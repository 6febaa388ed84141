"""Seeded op streams for the benchmark workloads.

A workload is a list of ops. An op is one public modfact call, or one
in-process ``modfact.cli.main([...])`` call. ``generate`` draws the ops
with ``modfact.randomgen`` from the workload seed and writes them as JSON
under a work directory. ``load_pass`` reads them back for one pass, and
``Op.fresh`` builds an op's inputs anew from that JSON each time it runs,
so no run sees another run's memoized composites. ``fresh`` gives a
timed ``run`` and an untimed ``check``.

Every op records what is known about its answer:

- ``null``: a morphism built from a random witness;
- ``not-null``: the identity of a certified stably nonzero object;
- ``skew-not-null``: the identity of a random conjugate of a sum of the
  skew (x, x) object over F4[x; Frob]/(x^2), whose negative may come back
  bounded or definitive;
- ``unknown``: a morphism of one of the kinds ``random_morphism`` draws
  (see ``_morphism``); over commutative rings the two deciders are
  cross-checked against each other.

These checks run on an op's first answer; every later answer must
reproduce it byte for byte.
"""

import functools
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

WORKLOADS = ("decide-q", "decide-skew", "cli-present")

# omega shapes, low degree first
X2, X3, X4, X2XM1 = [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, -1, 1]


# ---------------------------------------------------------------------------
# rings

# (field, twist, omega shape) per ring of each workload
RINGS = {
    "decide-q": [("Q", 0, s) for s in (X3, X4, X2XM1)],
    "decide-skew": [("F4", 1, [0, 1]), ("F4", 1, X2)],
    "cli-present": [("Q", 0, X3), ("F5", 0, X4), ("F5", 0, X2XM1),
                    ("F4", 1, X2)],
}


def _build_rings(workload):
    from modfact.fields import RationalField, PrimeField, ExtensionField
    from modfact.rings import BaseRing
    out = []
    for kind, twist, shape in RINGS[workload]:
        fld = {"Q": RationalField, "F5": lambda: PrimeField(5),
               "F4": lambda: ExtensionField(2, 2)}[kind]()
        out.append(BaseRing(fld, twist, [fld.from_int(c) for c in shape]))
    return out


# ---------------------------------------------------------------------------
# generation

def _invertible(ring, rng, r, degree):
    """(U, U^-1) for a rank-r slot. At rank 1, a unit scaling: the units
    of k[x; sigma] are the nonzero constants. At rank r >= 2, r elementary
    steps in a fixed order, step s adding a random polynomial of exactly
    the given degree times row s+1 to row s (mod r); only its coefficients
    are drawn. randomgen.random_invertible also draws the kinds of its
    steps (elementary, scaling or swap), their rows and the degrees of
    their polynomials, and the cost of deciding on the result then varies
    by several times from object to object; with this fixed shape it
    varies by a quarter to a third."""
    from modfact import randomgen as rg
    from modfact.matrices import TwistedMatrix
    if r == 1:
        return rg.random_invertible(ring, rng, 1, ops=1)
    fld = ring.field
    u = uinv = TwistedMatrix.identity(ring, r)
    for i in range(r):
        lead = fld.random(rng)
        while fld.is_zero(lead):
            lead = fld.random(rng)
        a = [fld.random(rng) for _ in range(degree)] + [lead]
        step = [[[fld.from_int(1)] if b == d else [] for d in range(r)]
                for b in range(r)]
        back = [row[:] for row in step]
        step[i][(i + 1) % r] = a
        back[i][(i + 1) % r] = ring.neg(a)
        u = u.then(TwistedMatrix(ring, step, 0))
        uinv = TwistedMatrix(ring, back, 0).then(uinv)
    return u, uinv


def _conjugate(rg, x, rng, degree):
    """A random conjugate of x, by one _invertible per slot."""
    return rg.conjugate(x, [_invertible(x.ring, rng, r, degree)
                            for r in x.ranks])


def _diagonal(ring, rng, n, rank):
    """A diagonal seed of the given fold and rank. Each diagonal column
    deals omega's atoms, in random order, to the slots in turn from a
    random first slot, so the slot degrees differ by at most one.
    randomgen.random_diagonal drops each atom in a random slot, and the
    cost of deciding on the result varies about twice as much."""
    from modfact import randomgen as rg
    from modfact.factorizations import Factorization
    from modfact.matrices import TwistedMatrix
    cols = []
    for _ in range(rank):
        atoms = list(rg.omega_atoms(ring))
        rng.shuffle(atoms)
        first = rng.randrange(n)
        slots = [[ring.field.from_int(1)] for _ in range(n)]
        for k, atom in enumerate(atoms):
            i = (first + k) % n
            slots[i] = ring.mul(slots[i], atom)
        cols.append(slots)
    maps = [TwistedMatrix(ring, [[cols[a][i] if a == b else []
                                  for b in range(rank)]
                                 for a in range(rank)],
                          1 if i == n - 1 else 0)
            for i in range(n)]
    x = Factorization(ring, [rank] * n, maps)
    x.assert_valid()
    return x


def _object(rg, ring, rng, n, rank, degree=0):
    """An object of the given fold and rank: a diagonal seed conjugated
    by random invertibles whose elementary steps have polynomials of the
    given degree. At rank 1 this is the diagonal seed up to units, so only
    rank 2 and up mix the entries."""
    return _conjugate(rg, _diagonal(ring, rng, n, rank), rng, degree)


def _nonzero_object(rg, ring, rng, n, rank, degree=0):
    """An object as _object draws it whose identity randomgen certifies
    as not null homotopic (a cokernel invariant factor e with
    gcd(e, omega/e) a nonunit)."""
    while True:
        x = _object(rg, ring, rng, n, rank, degree)
        if rg.certified_nonzero(x):
            return x


def _skew_neg(ring, rank, rng):
    """A random conjugate of rank copies of the skew (x, x) object, whose
    identity is not null homotopic."""
    from modfact import randomgen as rg
    from modfact.factorizations import Factorization, direct_sum
    from modfact.matrices import TwistedMatrix
    x = ring.x_power(1)
    base = Factorization(ring, [1, 1], [TwistedMatrix(ring, [[x]], 0),
                                        TwistedMatrix(ring, [[x]], 1)])
    return _conjugate(rg, direct_sum([base] * rank), rng, 0)


# the kinds of map randomgen.random_morphism draws from, by the case it
# is in; it draws the kind at random, and how many cheap zero maps or
# costly hom-module maps a seed gets moved the median latency by a fifth
# from seed to seed. Here the kind follows a fixed rotation, so every seed
# has the same count of each, and only the entries are drawn
MORPHISM_KINDS = {
    "hom": ("zero", "null", "hom", "null", "hom", "hom+null"),
    "endo": ("zero", "null", "identity", "omega", "identity+null", "null"),
    "skew": ("zero", "null", "null", "null"),
    "skew-endo": ("zero", "null", "identity", "identity+null"),
}


def _morphism(rg, rng, x, y, turn):
    """A morphism x -> y of the kind that MORPHISM_KINDS gives for this
    turn of the rotation, built as randomgen.random_morphism builds it."""
    from modfact.factorizations import Morphism
    endo = x is y
    case = ("endo" if endo else "hom") if x.ring.commutative else (
        "skew-endo" if endo else "skew")
    kinds = MORPHISM_KINDS[case]
    kind = kinds[turn % len(kinds)]
    if kind == "zero":
        return Morphism.zero(x, y)
    if kind == "identity":
        return Morphism.identity(x)
    if kind == "omega":
        return rg.omega_morphism(x)
    if kind == "hom":
        return rg.random_hom_element(rng, x, y)
    g, _ = rg.random_null_morphism(rng, x, y)
    if kind == "hom+null":
        return rg.random_hom_element(rng, x, y).add(g)
    if kind == "identity+null":
        return Morphism.identity(x).add(g)
    return g


def _decide_op(call, kind, truth, ring_idx, x, y=None, f=None):
    op = {"call": call, "kind": kind, "truth": truth, "ring": ring_idx,
          "source": x.to_json(), "target": None if y is None else y.to_json()}
    if f is not None:
        op["morphism"] = f.to_json()
    return op


def _gen_decide_q(rings, rng, reps):
    """Per repetition and ring:

    - ``is_p_null_homotopic`` on a morphism built from a random witness,
      between objects of rank 1 at folds 2 and 3;
    - ``is_p_null_homotopic`` on the identity of a certified nonzero
      object of rank 1, at folds 2, 3, 4 and 6;
    - at folds 2 and 3, on a pair of rank 1 objects:
      ``is_p_null_homotopic`` on a morphism between them and
      ``factors_through_trivials`` on an endomorphism, both of the kinds
      ``random_morphism`` draws (``_morphism``), and ``stable_hom``;

    and once per repetition, on one ring in turn, ``is_p_null_homotopic``
    on a null morphism between objects of ranks 1 and 2 (then 2 and 1)
    at fold 2. Objects of rank 2 are conjugated by steps of degree 1, so
    Hermite forms over Q meet coefficients of about a dozen bits.

    Every op takes a few milliseconds (see run.py for why): a null
    morphism between objects of rank 2 at fold 3 takes 50 to 250 ms, and
    one of rank 1 at fold 4 25 to 45 ms, so both stay out. The fold 6
    identities are the heaviest ops but for a few of the rank 2 null
    morphisms, and the tail latency falls among them. A rank 1 object is
    its diagonal seed up to units, so their costs on one ring are within
    a tenth of each other, whereas a null morphism of rank 2 costs from
    one to three times as much as a fold 6 identity, by its entries. At
    one such op per ring and repetition the tail would fall among them
    and move by a quarter from seed to seed; at one per repetition at
    most six rise above the fold 6 identities.

    Over Q the Smith forms behind ``stable_hom`` swell (one fold 2 pair
    of rank 2 over x^2(x-1) took 35 s where its neighbours took 0.05 s),
    so it stays at rank 1."""
    from modfact import randomgen as rg
    from modfact.factorizations import Morphism
    ops = []
    for rep in range(reps):
        for r, ring in enumerate(rings):
            for n in (2, 3, 4, 6):
                shapes = [(1, 1)] if n <= 3 else []
                if n == 2 and r == rep % len(rings):
                    shapes.append((1, 2) if rep < len(rings) else (2, 1))
                for a, b in shapes:
                    x = _object(rg, ring, rng, n, a, 1)
                    y = _object(rg, ring, rng, n, b, 1)
                    f, _ = rg.random_null_morphism(rng, x, y)
                    ops.append(_decide_op("is_p_null_homotopic", "null",
                                          "null", r, x, y, f))
                z = _nonzero_object(rg, ring, rng, n, 1)
                ops.append(_decide_op("is_p_null_homotopic", "nonzero-id",
                                      "not-null", r, z, None,
                                      Morphism.identity(z)))
                if n >= 4:
                    continue
                u = _object(rg, ring, rng, n, 1)
                v = _object(rg, ring, rng, n, 1)
                turn = rep + r + n
                g = _morphism(rg, rng, u, v, turn)
                ops.append(_decide_op("is_p_null_homotopic", "random",
                                      "unknown", r, u, v, g))
                g = _morphism(rg, rng, v, v, turn)
                ops.append(_decide_op("factors_through_trivials", "random",
                                      "unknown", r, v, None, g))
                ops.append(_decide_op("stable_hom", "pair", "unknown",
                                      r, u, v))
    return ops


def _gen_decide_skew(rings, rng, reps):
    """Per repetition, on each ring (omega = x and x^2) and at folds 1, 2
    and 3, ``is_p_null_homotopic`` on a morphism built from a random
    witness and on a morphism of the kinds ``random_morphism`` draws
    (``_morphism``); then on the identities of twenty
    random conjugates of the skew (x, x) object. Objects have rank 1,
    or at fold 1 ranks 1 and 2 in turn. Every op takes a few to some
    twenty milliseconds (see run.py for why): objects of rank 2 at fold 2
    take up to 40 ms, and the skew (x, x) object doubled 100 to 200 ms."""
    from modfact import randomgen as rg
    from modfact.factorizations import Morphism
    ops = []
    for rep in range(reps):
        for r, ring in enumerate(rings):
            for n in (1, 2, 3):
                a = 1 + (rep + r) % 2 if n == 1 else 1
                b = 1 + (rep + r + 1) % 2 if n == 1 else 1
                x = _object(rg, ring, rng, n, a)
                y = _object(rg, ring, rng, n, b)
                f, _ = rg.random_null_morphism(rng, x, y)
                ops.append(_decide_op("is_p_null_homotopic", "null", "null",
                                      r, x, y, f))
                # endomorphisms only where every object is stably zero
                # (omega = x, or fold 1): an identity of a random object
                # over x^2 at fold >= 2 may be a bounded negative of 1-8 s;
                # the bounded negatives come from the skew-neg-id ops below,
                # whose count and shape every seed shares
                endo = r == 0 or n == 1
                g = _morphism(rg, rng, x, x if endo else y, rep + r + n)
                ops.append(_decide_op("is_p_null_homotopic", "random",
                                      "unknown", r, x, None if endo else y, g))
        # the skew (x, x) identities are over half the stream and cost
        # within a tenth of each other, so that both the median and the
        # tail latency fall among them rather than between two shapes
        for _ in range(20):
            z = _skew_neg(rings[1], 1, rng)
            ops.append(_decide_op("is_p_null_homotopic", "skew-neg-id",
                                  "skew-not-null", 1, z, None,
                                  Morphism.identity(z)))
    return ops


def _gen_cli(rings, rng, reps, fixtures):
    """CLI ops per object: validate, three functors, phi, psi of the phi
    output and cok0; over commutative rings also lift of that chain, cok0
    of the lift and chain-iso between the two chains."""
    from modfact import randomgen as rg
    ops = []
    count = 0
    for rep in range(reps):
        for r, ring in enumerate(rings):
            n = 2 + (rep + r) % 3
            # rank 1, so that an op's cost follows its verb, ring and fold
            # and hardly its entries (a rank 1 object is its diagonal seed
            # up to units). Verbs on rank 2 objects vary by half with the
            # entries and, as the heaviest ops, would move the tail latency
            # by a sixth from seed to seed; chain-iso over Q at rank 3
            # ranges from 0.02 s to over 0.5 s by object
            x = _object(rg, ring, rng, n, 1)
            tag = "o%d" % count
            count += 1
            with open(os.path.join(fixtures, tag + ".json"), "w") as fh:
                json.dump(x.to_json(), fh)
            ring_arg = ["--ring", "{fx}/ring%d.json" % r]
            obj = "{fx}/%s.json" % tag

            def add(verb, args, check=None, extract=None, out=None):
                out = out or "%s-%s" % (tag, verb)
                ops.append({"kind": verb, "ring": r, "object": tag,
                            "argv": [verb] + args + ring_arg
                            + ["--json", "{out}/%s.json" % out],
                            "report": out, "check": check,
                            "extract": extract})

            add("validate", [obj], check="passed")
            add("functor", ["shift", obj], check="factorization",
                out=tag + "-shift")
            add("functor", ["face", obj, "--i", str(rng.randrange(n + 1))],
                check="factorization", out=tag + "-face")
            add("functor", ["degeneracy", obj, "--i", str(rng.randrange(n))],
                check="factorization", out=tag + "-degeneracy")
            add("phi", [obj], extract="gamma")
            add("psi", ["{out}/%s-phi.gamma.json" % tag], check="roundtrip")
            add("cok0", [obj], extract="chain")
            if ring.commutative:
                add("lift", ["{out}/%s-cok0.chain.json" % tag],
                    check="lifted", extract="factorization")
                add("cok0", ["{out}/%s-lift.factorization.json" % tag],
                    extract="chain", out=tag + "-cok0-lift")
                add("chain-iso", ["{out}/%s-cok0.chain.json" % tag,
                                  "{out}/%s-cok0-lift.chain.json" % tag],
                    check="iso-found")
    return ops


# repetitions of each workload's op pattern, sized so that one pass takes
# well under a second on a 2-core host and a run of 40 s times each op
# some fifty times (see run.py)
REPS = {"decide-q": 6, "decide-skew": 1, "cli-present": 4}


def generate(workload, seed, workdir):
    """Draw the workload's ops from the seed and write them under workdir;
    returns the path of the ops file."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    rings = _build_rings(workload)
    fixtures = os.path.join(workdir, "fx")
    os.makedirs(fixtures, exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    for i, ring in enumerate(rings):
        with open(os.path.join(fixtures, "ring%d.json" % i), "w") as fh:
            json.dump(ring.to_json(), fh)
    if workload == "decide-q":
        ops = _gen_decide_q(rings, rng, REPS[workload])
    elif workload == "decide-skew":
        ops = _gen_decide_skew(rings, rng, REPS[workload])
    else:
        ops = _gen_cli(rings, rng, REPS[workload], fixtures)
    for i, op in enumerate(ops):
        op["id"] = i
    path = os.path.join(workdir, "ops.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "rings": [r.to_json() for r in rings], "ops": ops}, fh)
    return path


# ---------------------------------------------------------------------------
# loading and running one pass

class CheckError(Exception):
    """An op's answer failed its correctness check."""


class Op:
    """One op of a pass. ``fresh()`` builds its inputs anew from the
    loaded JSON and returns ``(run, check)``: ``run`` is the timed call,
    ``check(answer, thorough)`` verifies the answer outside the timed
    region and returns a canonical digest. A thorough check runs on an
    op's first answer; every later answer must match its digest."""

    def __init__(self, spec, fresh):
        self.id = spec["id"]
        self.kind = spec["kind"]
        self.fresh = fresh


def load_pass(path, workdir):
    """The ops of one pass, with fresh rings, read back from JSON."""
    from modfact import jsonio
    from modfact.rings import ring_from_json
    data = jsonio.read_json(path)
    rings = [ring_from_json(r) for r in data["rings"]]
    if data["workload"] == "cli-present":
        return [_cli_op(spec, rings, workdir) for spec in data["ops"]]
    return [Op(spec, functools.partial(_decide_inputs, spec, rings))
            for spec in data["ops"]]


def _decide_inputs(spec, rings):
    from modfact import homotopy
    from modfact.factorizations import Factorization, Morphism
    ring = rings[spec["ring"]]
    x = Factorization.from_json(ring, spec["source"])
    y = x if spec["target"] is None else Factorization.from_json(ring, spec["target"])
    call = spec["call"]
    if call == "stable_hom":
        return (lambda: homotopy.stable_hom(x, y),
                lambda rep, thorough: _check_stable_hom(rep, thorough))
    f = Morphism.from_json(x, y, spec["morphism"])
    if call == "is_p_null_homotopic":
        return (lambda: homotopy.is_p_null_homotopic(f),
                lambda v, thorough: _check_verdict(spec, f, v, thorough))
    return (lambda: homotopy.factors_through_trivials(f),
            lambda t, thorough: _check_trivials(f, t, thorough))


def _digest(report):
    return json.dumps(report, sort_keys=True)


def _check_verdict(spec, f, v, thorough):
    if thorough:
        _verify_verdict(spec, f, v)
    return _digest(v.to_json())


def _verify_verdict(spec, f, v):
    from modfact import homotopy
    truth = spec["truth"]
    commutative = f.source.ring.commutative
    if v.null:
        w = homotopy.reconstruct_from_witness(f.source, f.target, v.witness)
        if w != f:
            raise CheckError("witness does not reconstruct the morphism")
        if truth in ("not-null", "skew-not-null"):
            raise CheckError("certified non-null morphism came back null")
    else:
        if truth == "null":
            raise CheckError("constructed null morphism came back negative")
        if v.bounded and commutative:
            raise CheckError("bounded verdict over a commutative ring")
    if truth == "unknown" and commutative:
        other = homotopy.factors_through_trivials(f)
        if other.factors != v.null:
            raise CheckError("deciders disagree: witness %s, trivials %s"
                             % (v.null, other.factors))


def _check_trivials(f, t, thorough):
    from modfact import homotopy
    if thorough and t.factors:
        if not t.g.is_valid() or t.g.then(t.counit) != f:
            raise CheckError("factorization through trivials does not compose to f")
    if thorough and f.source.ring.commutative:
        other = homotopy.is_p_null_homotopic(f)
        if other.null != t.factors:
            raise CheckError("deciders disagree: trivials %s, witness %s"
                             % (t.factors, other.null))
    return _digest(t.to_json())


def _check_stable_hom(rep, thorough):
    # omega kills every stable hom module, so no free part may appear.
    # The representatives are not checked: StableHomReport builds them from
    # hom-basis coordinates read as slot coordinates, so they fail the
    # commuting squares (a known defect of the program, not of this op).
    if thorough and not rep.omega_torsion:
        raise CheckError("stable hom module is not omega-torsion")
    return _digest(rep.to_json())


def _cli_op(spec, rings, workdir):
    from modfact import cli, jsonio
    from modfact.factorizations import Factorization
    places = {"fx": os.path.join(workdir, "fx"),
              "out": os.path.join(workdir, "out")}
    argv = [a.format(**places) for a in spec["argv"]]
    report_path = os.path.join(places["out"], spec["report"] + ".json")
    ring = rings[spec["ring"]]

    def run():
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(argv)

    def check(code, thorough):
        if code != 0:
            raise CheckError("%s exited with %s" % (spec["kind"], code))
        report = jsonio.read_json(report_path)
        kind = spec["check"] if thorough else None
        if kind == "passed" and not report["passed"]:
            raise CheckError("validate rejected a generated object")
        if kind == "factorization":
            Factorization.from_json(ring, report["result"]).assert_valid()
        if kind == "lifted":
            Factorization.from_json(ring, report["factorization"]).assert_valid()
        if kind == "roundtrip":
            orig = jsonio.load_factorization(
                os.path.join(places["fx"], spec["object"] + ".json"), ring)
            back = Factorization.from_json(ring, report["factorization"])
            if back != orig:
                raise CheckError("psi of phi does not give the object back")
        if kind == "iso-found" and not report["result"]["isomorphic"]:
            raise CheckError("chain-iso found no isomorphism to the lift roundtrip")
        if spec["extract"]:
            key = spec["extract"]
            target = os.path.join(places["out"], "%s.%s.json"
                                  % (spec["report"], key))
            with open(target, "w") as fh:
                json.dump(report[key], fh)
        report.pop("exit_code", None)
        return _digest(report)

    return Op(spec, lambda: (run, check))
