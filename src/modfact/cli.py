"""Command line surface.

Every verb reads exact JSON artifacts, runs the requested check or
construction, and emits a machine-readable JSON report (stdout, or the
--json target) plus a short human summary on stderr.  Reports carry no
timestamps, so a fixed seed gives byte-identical output.

Each verb declares only the options it reads.  All take --ring and
--json.  Without --ring a verb that reads a file uses the ring embedded
in it; laws, and recollement without Z, default to Q[x] with omega = x^3.
functor adds --i/--a, chain-iso adds --seed, and the randomized
verbs recollement and laws add the sampling flags --seed, --max-rank,
--max-deg and --cases (laws also --suite and --n).  Any other flag is a
usage error, and so is a negative --max-deg or --n, and a --max-rank or
--cases below 1.

The parsers are built on every call, from the VERBS table that declares
each verb once: its name, handler, summary and arguments.  When the
first argument names a verb, parse_args builds that verb's parser alone
and no top parser, so a call builds one parser, the one it runs.  The
full parser of every verb (build_parser) is built only for the messages
that name every verb: on no arguments, a leading flag such as --help,
an unknown word, and arguments the verb does not read.  The modules only
laws and recollement use are imported when those verbs run.

Exit codes: 0 pass, 2 property failure, 3 input error, 4 unsupported
ring operation, 5 chain-iso found no isomorphism within its search
budget and could not rule one out. Homotopy verdicts are definitive on
every ring, so homotopy-check, stably-zero and recollement end in 0 or 2
on valid input. The verbs that decide something of an object
(homotopy-check, stable-hom, stably-zero, recollement with Z) first check
that it is a factorization, and exit 3 when a rotated composite is not
omega; validate reports such defects, and the constructions leave them be.
recollement also exits 3, before it samples anything, on a Z whose fold
is not N - K + 1.  A reader that closes stdout early leaves the verb's
exit code as it is; a --json file that cannot be written is an input
error.
"""

import argparse
import os
import random
import sys

from .rings import BaseRing, UnsupportedRingError
from .fields import RationalField
from .factorizations import (shift, shift_morphism, shift_inverse,
                             shift_inverse_morphism, shift_power,
                             shift_power_morphism, face, face_morphism,
                             degeneracy, degeneracy_morphism)
from .homotopy import (is_p_null_homotopic, is_stably_zero, stable_hom,
                       reconstruct_from_witness)
from .matrixring import phi, psi, validate_gamma
from .chains import cok0, lift, chain_iso
from . import jsonio
from . import randomgen as rg

PASS, FAIL, BAD_INPUT, BAD_RING, INCONCLUSIVE = 0, 2, 3, 4, 5


def _default_ring():
    # rationals with omega = x^3; override with --ring
    fld = RationalField()
    return BaseRing(fld, 0, [fld.from_int(0)] * 3 + [fld.from_int(1)])


def _ring_for(args):
    if args.ring:
        return jsonio.load_ring(args.ring)
    return _default_ring()


def _scenario(args, ring, folds=(1, 2, 3, 4)):
    from .laws import Scenario
    return Scenario(ring, seed=args.seed, folds=folds,
                    max_rank=args.max_rank, max_deg=args.max_deg,
                    cases=args.cases)


def _maybe_ring(args):
    return jsonio.load_ring(args.ring) if args.ring else None


def _factorization(x, what):
    """x itself, or an input error naming what when a rotation fails."""
    bad = x.rotation_defects()
    if bad:
        raise jsonio.InputError("%s is not a factorization; rotation fails "
                                "at slots %s" % (what, bad))
    return x


# -- verbs ------------------------------------------------------------------

def cmd_validate(args):
    ring = _maybe_ring(args)
    results = []
    ok = True
    for path in args.paths:
        kind, obj = jsonio.load_any(path, ring)
        entry = {"path": path, "kind": kind}
        if kind == "factorization":
            bad = obj.rotation_defects()
            entry["valid"] = not bad
            entry["defects"] = ["rotation fails at slot %d" % i for i in bad]
        elif kind == "morphism":
            bad = obj.square_defects()
            entry["valid"] = not bad
            entry["defects"] = ["square fails at slot %d" % i for i in bad]
        elif kind == "gamma":
            bad = validate_gamma(obj)
            entry["valid"] = not bad
            entry["defects"] = bad
        else:  # a chain
            bad = obj.defects()
            entry["valid"] = not bad
            entry["defects"] = bad
        ok = ok and entry["valid"]
        results.append(entry)
    report = {"command": "validate", "results": results, "passed": ok}
    human = ["%s: %s %s" % (e["path"], e["kind"],
                            "ok" if e["valid"] else "INVALID")
             for e in results]
    return (PASS if ok else FAIL), report, human


_FUNCTORS = {
    "shift": (shift, shift_morphism, ()),
    "shift-inverse": (shift_inverse, shift_inverse_morphism, ()),
    "shift-power": (shift_power, shift_power_morphism, ("a",)),
    "face": (face, face_morphism, ("i",)),
    "degeneracy": (degeneracy, degeneracy_morphism, ("i",)),
}


def cmd_functor(args):
    on_obj, on_mor, extra = _FUNCTORS[args.name]
    for field in ("i", "a"):
        if field not in extra and getattr(args, field) is not None:
            raise jsonio.InputError("functor %r takes no --%s"
                                    % (args.name, field))
    params = []
    for field in extra:
        value = getattr(args, field)
        if value is None:
            raise jsonio.InputError("functor %r needs --%s" % (args.name, field))
        params.append(value)
    ring = _maybe_ring(args)
    kind, obj = jsonio.load_any(args.path, ring)
    if kind == "factorization":
        out = on_obj(obj, *params)
        payload = out.to_json()
        human = ["%s: fold %d ranks %s -> fold %d ranks %s"
                 % (args.name, obj.n, obj.ranks, out.n, out.ranks)]
    elif kind == "morphism":
        out = on_mor(obj, *params)
        payload = out.to_json()
        payload["source"] = out.source.to_json()
        payload["target"] = out.target.to_json()
        human = ["%s: morphism between fold %d objects -> fold %d"
                 % (args.name, obj.n, out.n)]
    else:
        raise jsonio.InputError("functors act on factorizations or morphisms, "
                                "not %r" % kind)
    report = {"command": "functor", "functor": args.name, "result": payload}
    return PASS, report, human


def cmd_homotopy_check(args):
    ring = _maybe_ring(args)
    f = jsonio.load_morphism(args.path, ring)
    _factorization(f.source, "the source in %s" % args.path)
    _factorization(f.target, "the target in %s" % args.path)
    bad = f.square_defects()
    if bad:
        raise jsonio.InputError("input is not a morphism; squares fail at "
                                "slots %s" % bad)
    verdict = is_p_null_homotopic(f)
    report = {"command": "homotopy-check", "verdict": verdict.to_json()}
    if verdict.null:
        rebuilt = reconstruct_from_witness(f.source, f.target, verdict.witness)
        report["witness_reconstructs"] = rebuilt == f
        human = ["null homotopic; witness reconstructs the morphism: %s"
                 % report["witness_reconstructs"]]
        code = PASS if report["witness_reconstructs"] else FAIL
    else:
        human = ["not null homotopic"]
        code = PASS
    return code, report, human


def cmd_stable_hom(args):
    ring = _maybe_ring(args)
    x = _factorization(jsonio.load_factorization(args.path_x, ring),
                       args.path_x)
    y = _factorization(jsonio.load_factorization(args.path_y, ring),
                       args.path_y)
    if x.ring != y.ring:
        raise jsonio.InputError("the two objects live over different rings")
    report = {"command": "stable-hom", "report": stable_hom(x, y).to_json()}
    names = report["report"]["invariant_factors_pretty"]
    human = ["stable hom module: %s" % (" + ".join(names) if names else "0")]
    return PASS, report, human


def cmd_stably_zero(args):
    ring = _maybe_ring(args)
    x = _factorization(jsonio.load_factorization(args.path, ring), args.path)
    verdict = is_stably_zero(x)
    report = {"command": "stably-zero", "verdict": verdict.to_json()}
    if verdict.null:
        return PASS, report, ["stably zero (identity is null homotopic)"]
    return PASS, report, ["not stably zero"]


def cmd_cok0(args):
    ring = _maybe_ring(args)
    x = jsonio.load_factorization(args.path, ring)
    c = cok0(x)
    report = {"command": "cok0", "chain": c.to_json(), "dims": c.dims()}
    human = ["chain of %d modules, k-dimensions %s" % (len(c.modules), c.dims())]
    return PASS, report, human


def cmd_lift(args):
    ring = _maybe_ring(args)
    c = jsonio.load_chain(args.path, ring)
    x = lift(c)
    report = {"command": "lift", "factorization": x.to_json()}
    human = ["lifted to a fold %d factorization of rank %d" % (x.n, x.ranks[0])]
    return PASS, report, human


def cmd_chain_iso(args):
    ring = _maybe_ring(args)
    c = jsonio.load_chain(args.path_c, ring)
    d = jsonio.load_chain(args.path_d, ring)
    res = chain_iso(c, d, rng=random.Random(args.seed))
    report = {"command": "chain-iso", "result": res.to_json()}
    if res.found:
        return PASS, report, ["chain isomorphism found"]
    if res.definitive:
        return FAIL, report, ["chains are not isomorphic: %s" % res.reason]
    return INCONCLUSIVE, report, ["no isomorphism found within the search budget"]


def cmd_phi(args):
    ring = _maybe_ring(args)
    x = jsonio.load_factorization(args.path, ring)
    gm = phi(x)
    report = {"command": "phi", "gamma": gm.to_json()}
    return PASS, report, ["matrix-ring module with ranks %s" % gm.ranks]


def cmd_psi(args):
    ring = _maybe_ring(args)
    gm = jsonio.load_gamma(args.path, ring)
    bad = validate_gamma(gm)
    if bad:
        report = {"command": "psi", "defects": bad}
        return FAIL, report, ["input fails the module axioms: %s" % bad[:3]]
    x = psi(gm)
    report = {"command": "psi", "factorization": x.to_json()}
    return PASS, report, ["read back a fold %d factorization" % x.n]


_RECOLLEMENT_FAILURES = {
    "section_identities": "quotient of the section is not the identity",
    "section_identities_morphism": "section identities fail on a morphism",
    "triangles": "an adjunction triangle identity fails",
    "inclusion_valid": "an included object is not a factorization",
    "kernel_stably_zero": "an included object survives the quotient",
}


def cmd_recollement(args):
    from .recollement import recollement
    rec = recollement(args.fold, args.level)
    zs = []
    if args.path:
        # Z brings its ring unless --ring overrides it
        z = jsonio.load_factorization(args.path, _maybe_ring(args))
        zs = [_factorization(z, args.path)]
    sc = _scenario(args, zs[0].ring if zs else _ring_for(args))
    for z in zs:
        # so that a Z of the wrong fold fails before any sampling
        rec.included(z)
    rng = random.Random("%s:recollement:%d:%d" % (sc.seed, args.fold,
                                                  args.level))
    checks = dict.fromkeys(rec.CHECKS, 0)
    failures = []
    if not zs:
        zs = [rg.random_object(sc.ring, rng, args.fold - args.level + 1,
                               sc.max_rank, sc.max_deg)
              for _ in range(sc.cases)]
    for z in zs:
        x = rg.random_object(sc.ring, rng, args.level, sc.max_rank, sc.max_deg)
        y = rg.random_object(sc.ring, rng, args.fold, sc.max_rank, sc.max_deg)
        f = rg.random_morphism(rng, x,
                               rg.random_object(sc.ring, rng, args.level,
                                                sc.max_rank, sc.max_deg),
                               sc.max_deg)
        for name, ok in rec.checks(x, y, f, z):
            if ok:
                checks[name] += 1
            else:
                failures.append(_RECOLLEMENT_FAILURES[name])
    report = {"command": "recollement", "fold": args.fold,
              "level": args.level, "cases": len(zs), "checks": checks,
              "failures": failures[:20],
              "passed": not failures}
    human = ["(%d, %d): %d cases, %s" % (args.fold, args.level, len(zs),
                                         "all checks pass" if not failures
                                         else "%d failures" % len(failures))]
    if failures:
        return FAIL, report, human
    return PASS, report, human


def cmd_laws(args):
    from .laws import run_suites
    ring = _ring_for(args)
    sc = _scenario(args, ring, (args.n,)) if args.n else _scenario(args, ring)
    names = None
    if args.suite:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
    report = run_suites(sc, names)
    report["command"] = "laws"
    human = []
    for s in report["suites"]:
        if s.get("skipped"):
            status = "skipped (%s)" % s["skipped"]
        elif s["passed"]:
            status = "pass (%d cases)" % s["cases"]
        else:
            status = "FAIL (%d failures in %d cases)" % (len(s["failures"]),
                                                         s["cases"])
        human.append("%-20s %s" % (s["name"], status))
    human.append("overall: %s" % ("pass" if report["passed"] else "FAIL"))
    return (PASS if report["passed"] else FAIL), report, human


# -- wiring -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems are input errors, not property failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(BAD_INPUT, "%s: error: %s\n" % (self.prog, message))


def _at_least(low):
    # sizes and counts: one below low is a usage error, and a non-integer
    # gets the message argparse gives for type=int
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, not %d" % (low, value))
        return value
    return parse


def _suite_help():
    from .laws import suite_names
    return ("comma-separated suite names (default: all; known: %s)"
            % ", ".join(suite_names()))


# every verb reads --ring and --json
_COMMON = (
    ("--ring", dict(metavar="FILE",
                    help="ring description JSON; falls back to a ring "
                         "embedded in the input, or rationals with x^3")),
    ("--json", dict(metavar="OUT", default="-",
                    help="write the JSON report here (default stdout)")),
)

_SAMPLING = (
    ("--seed", dict(type=int, default=0, metavar="N")),
    ("--max-rank", dict(type=_at_least(1), default=3, metavar="R")),
    ("--max-deg", dict(type=_at_least(0), default=2, metavar="D")),
    ("--cases", dict(type=_at_least(1), default=24, metavar="C",
                     help="randomized cases")),
)

# Each verb once, in listing order: name, handler, summary and the
# arguments it reads besides --ring and --json.  A callable help is called
# when the verb's parser is built.
VERBS = (
    ("validate", cmd_validate, "check rotation/square/module axioms",
     (("paths", dict(nargs="+", metavar="PATH")),)),
    ("functor", cmd_functor, "apply shift/face/degeneracy functors",
     (("name", dict(choices=sorted(_FUNCTORS))),
      ("path", dict(metavar="PATH")),
      ("--i", dict(type=int, default=None,
                   help="slot index (face, degeneracy)")),
      ("--a", dict(type=int, default=None,
                   help="shift power (shift-power)")))),
    ("homotopy-check", cmd_homotopy_check,
     "decide null homotopy and return a witness",
     (("path", dict(metavar="MORPHISM")),)),
    ("stable-hom", cmd_stable_hom,
     "invariant factors of the stable hom module",
     (("path_x", dict(metavar="X")), ("path_y", dict(metavar="Y")))),
    ("stably-zero", cmd_stably_zero, "is the identity null homotopic",
     (("path", dict(metavar="X")),)),
    ("cok0", cmd_cok0, "quotient chain of a factorization",
     (("path", dict(metavar="X")),)),
    ("lift", cmd_lift, "rebuild a factorization from a chain",
     (("path", dict(metavar="CHAIN")),)),
    ("chain-iso", cmd_chain_iso, "search for a chain isomorphism",
     (("path_c", dict(metavar="C")), ("path_d", dict(metavar="D")),
      ("--seed", dict(type=int, default=0, metavar="N",
                      help="seed of the search over chain maps")))),
    ("phi", cmd_phi, "factorization to matrix-ring module",
     (("path", dict(metavar="X")),)),
    ("psi", cmd_psi, "matrix-ring module to factorization",
     (("path", dict(metavar="GAMMA")),)),
    ("recollement", cmd_recollement,
     "randomized checks of the quotient/section/inclusion identities",
     (("fold", dict(type=int, metavar="N")),
      ("level", dict(type=int, metavar="K")),
      ("path", dict(nargs="?", default=None, metavar="Z",
                    help="optional object to push through the inclusion")))
     + _SAMPLING),
    ("laws", cmd_laws, "run the randomized law suites",
     (("--suite", dict(metavar="TAGS", help=_suite_help)),
      ("--n", dict(type=_at_least(0), default=0, metavar="N",
                   help="fold count of generated objects (0 = mix of 1..4)")))
     + _SAMPLING),
)


def _verb_parser(p, verb):
    """p with the arguments and defaults of verb, an entry of VERBS."""
    name, fn, _, arguments = verb
    for flag, kwargs in _COMMON + arguments:
        if callable(kwargs.get("help")):
            kwargs = dict(kwargs, help=kwargs["help"]())
        p.add_argument(flag, **kwargs)
    p.set_defaults(fn=fn, verb=name)
    return p


def build_parser():
    """The full parser: a top parser with a subparser for every verb.
    parse_args builds it only when argv names no verb (no arguments, a
    leading flag such as --help, an unknown word) and to report arguments
    a verb does not read; a call that names a verb and parses cleanly
    builds that verb's parser alone."""
    top = _Parser(
        prog="modfact",
        description="exact computations with n-fold factorizations of a "
                    "normal ring element")
    sub = top.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        _verb_parser(sub.add_parser(verb[0], help=verb[2]), verb)
    return top


def parse_args(argv):
    """The namespace build_parser().parse_args(argv) gives, with the same
    output and exit on a usage error or --help.  When argv[0] names a verb,
    only that verb's parser is built: it is the subparser the full parser
    would hand the rest to.  Arguments it leaves over are reported by the
    full parser, whose usage names every verb."""
    for verb in VERBS:
        if argv and argv[0] == verb[0]:
            p = _verb_parser(_Parser(prog="modfact " + verb[0]), verb)
            args, extra = p.parse_known_args(argv[1:])
            if extra:
                build_parser().error("unrecognized arguments: %s"
                                     % " ".join(extra))
            return args
    return build_parser().parse_args(argv)


def _drop_stdout():
    # Point a real stdout at the null device, so that the flush at
    # interpreter exit finds no closed pipe to complain about.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code, report, human = args.fn(args)
        report["exit_code"] = code
        jsonio.write_json(report, args.json)
        # the summary goes wherever the report does not
        out = sys.stderr if args.json == "-" else sys.stdout
        for line in human:
            print(line, file=out)
        # a closed stdout shows here, not in the flush at interpreter exit
        if sys.stdout is not None:
            sys.stdout.flush()
    except UnsupportedRingError as e:
        print("unsupported ring operation: %s" % e, file=sys.stderr)
        return BAD_RING
    except BrokenPipeError:
        # the reader of stdout left early; the verb's answer stands
        _drop_stdout()
        return code
    except (ValueError, OSError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
