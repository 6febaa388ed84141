import argparse
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import modfact
from modfact import jsonio
from modfact import cli
from modfact.rings import ring_from_json
from modfact.factorizations import (Factorization, Morphism, theta, shift,
                                    shift_morphism)
from modfact.matrices import TwistedMatrix
from modfact.matrixring import phi
from modfact.chains import cok0
from modfact.randomgen import (default_instances, random_object,
                               random_morphism, random_null_morphism,
                               random_nonzero_object, corrupt_gamma)

from common import equal_invariant_pair

INST = default_instances()
Q2 = INST[0]
F4 = [r for r in INST if not r.commutative][0]
F4X2 = [r for r in INST if not r.commutative and r.omega_deg == 2][0]


def run(*argv):
    """Run the CLI in process; usage errors surface as SystemExit."""
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 3
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    rng = random.Random(7)

    def wj(name, data):
        p = str(tmp / name)
        jsonio.write_json(data, p)
        return p

    x = random_object(Q2, rng, 3)
    y = random_object(Q2, rng, 3)
    f = random_morphism(rng, x, y)
    fd = f.to_json()
    fd.update(source=x.to_json(), target=y.to_json(), ring=Q2.to_json())
    bad = x.to_json()
    bad["maps"][0]["entries"][0][0] = ["1", "1"]
    d = {
        "tmp": tmp, "wj": wj, "rng": rng, "x": x, "y": y,
        "ring": wj("ring.json", Q2.to_json()),
        "skew": wj("skew.json", F4.to_json()),
        "x.json": wj("x.json", dict(x.to_json(), ring=Q2.to_json())),
        "bad.json": wj("bad.json", dict(bad, ring=Q2.to_json())),
        "f.json": wj("f.json", fd),
        "g.json": wj("g.json", dict(phi(x).to_json(), ring=Q2.to_json())),
        "c.json": wj("c.json", dict(cok0(x).to_json(), ring=Q2.to_json())),
    }
    return d


def test_validate_accepts_all_kinds(paths):
    code, out, err = run("validate", paths["x.json"], paths["f.json"],
                         paths["g.json"], paths["c.json"])
    rep = json.loads(out)
    assert code == 0 and rep["passed"]
    assert [e["kind"] for e in rep["results"]] == ["factorization", "morphism",
                                                   "gamma", "chain"]


# F_5 with omega = x^2, and over it A/(x) -> A/(x^2), e |-> e: the
# relation x e goes to x e, which is not 0, so the map is not well defined
F5X2 = {"field": {"kind": "prime", "p": 5}, "sigma_power": 0, "omega": [0, 0, 1]}


def _one_by_one(poly, twist=0):
    return {"rows": 1, "cols": 1, "twist": twist, "entries": [[poly]]}


def _chain_over_f5(rel1, rel2, image):
    # A/(rel1) -> A/(rel2), e |-> image e
    return {"n": 3, "ring": F5X2,
            "modules": [{"generators": 1, "relations": _one_by_one(rel)}
                        for rel in (rel1, rel2)],
            "maps": [_one_by_one(image)]}


ILL_DEFINED_CHAIN = _chain_over_f5([0, 1], [0, 0, 1], [1])
# A -> A/(x^2), e |-> e: the first module is free
FREE_CHAIN = dict(_chain_over_f5([0, 1], [0, 0, 1], [1]), modules=[
    {"generators": 1, "relations": {"rows": 0, "cols": 1, "twist": 0, "entries": []}},
    {"generators": 1, "relations": _one_by_one([0, 0, 1])}])
# A/(x^3) -> A/(x^2), e |-> e: torsion, but omega = x^2 does not kill A/(x^3)
LOOSE_CHAIN = _chain_over_f5([0, 0, 0, 1], [0, 0, 1], [1])
# x * : A/(x^2) -> A/(x^2) is well defined and not injective
NON_INJECTIVE_CHAIN = _chain_over_f5([0, 0, 1], [0, 0, 1], [0, 1])
# 2-fold (x, x + 1): its rotated composites are x^2 + x, not omega
NON_FACTORIZATION = {"n": 2, "ranks": [1, 1], "ring": F5X2,
                     "maps": [_one_by_one([0, 1]), _one_by_one([1, 1], 1)]}
# 3-fold (x, x + 1, x), the last map at twist 1
NON_FACTORIZATION_3 = {"n": 3, "ranks": [1, 1, 1], "ring": F5X2,
                       "maps": [_one_by_one([0, 1]), _one_by_one([1, 1]),
                                _one_by_one([0, 1], 1)]}


def test_validate_rejects_broken_object(paths):
    code, out, err = run("validate", paths["bad.json"])
    assert code == 2 and not json.loads(out)["passed"]
    # a chain is checked for well-defined maps and injectivity, each map
    # named by the slot of its target
    for name, chain, defect in (
            ("ill.json", ILL_DEFINED_CHAIN,
             "chain map into slot 2 is not well defined"),
            ("noninj.json", NON_INJECTIVE_CHAIN,
             "chain map into slot 2 is not injective"),
            # a module omega does not kill has no coordinates, so its
            # chain is judged on that alone
            ("free.json", FREE_CHAIN, "a module is not killed by omega"),
            ("loose.json", LOOSE_CHAIN, "a module is not killed by omega")):
        code, out, err = run("validate", paths["wj"](name, chain))
        rep = json.loads(out)
        assert code == 2 and not rep["passed"], name
        assert rep["results"][0]["defects"] == [defect]
        assert "Traceback" not in err


def test_validate_garbage_file_is_input_error(paths):
    p = str(paths["tmp"] / "junk.json")
    with open(p, "w") as fh:
        fh.write("{nope")
    code, out, err = run("validate", p)
    assert code == 3


def test_functor_verbs(paths):
    for name, extra in [("shift", []), ("shift-inverse", []),
                        ("shift-power", ["--a", "2"]), ("face", ["--i", "1"]),
                        ("degeneracy", ["--i", "0"])]:
        code, out, err = run("functor", name, paths["x.json"], *extra)
        assert code == 0, (name, err)
        assert "result" in json.loads(out)
    code, out, err = run("functor", "face", paths["f.json"], "--i", "0")
    assert code == 0


def test_shift_power_of_a_huge_exponent_answers_at_once(paths):
    # shift^(n e) is the identity, e the degree of the field over its prime
    # field; shift_power takes the laps of a huge exponent as one power of
    # sigma, with no shift per step
    rng = random.Random(23)
    xs = random_object(F4, rng, 2, max_rank=2)
    skew = paths["wj"]("xs.json", dict(xs.to_json(), ring=F4.to_json()))
    f = jsonio.load_morphism(paths["f.json"])
    for path, obj, period in ((paths["x.json"], paths["x"], 3),
                              (paths["f.json"], f, 3), (skew, xs, 4)):
        for a in (10 ** 12, -10 ** 12):
            t0 = time.perf_counter()
            code, out, err = run("functor", "shift-power", path, "--a", str(a))
            assert code == 0 and time.perf_counter() - t0 < 1.0, (path, a, err)
            want = obj
            for _ in range(a % period):
                want = (shift_morphism if obj is f else shift)(want)
            want_json = want.to_json()
            if obj is f:
                want_json.update(source=want.source.to_json(),
                                 target=want.target.to_json())
            assert json.loads(out)["result"] == want_json, (path, a)


def test_functor_missing_index_is_input_error(paths):
    code, out, err = run("functor", "face", paths["x.json"])
    assert code == 3


def test_functor_rejects_a_parameter_it_does_not_take(paths):
    for name, extra in [("shift", ["--i", "2"]), ("shift-inverse", ["--a", "1"]),
                        ("shift-power", ["--a", "2", "--i", "0"]),
                        ("face", ["--i", "1", "--a", "1"]),
                        ("degeneracy", ["--a", "1"])]:
        code, out, err = run("functor", name, paths["x.json"], *extra)
        assert code == 3 and "takes no --" in err, (name, err)
        assert out == ""


def test_homotopy_check_positive(paths):
    rng = paths["rng"]
    fnull, _ = random_null_morphism(rng, paths["x"], paths["y"])
    fd = fnull.to_json()
    fd.update(source=paths["x"].to_json(), target=paths["y"].to_json(),
              ring=Q2.to_json())
    code, out, err = run("homotopy-check", paths["wj"]("fnull.json", fd))
    rep = json.loads(out)
    assert code == 0 and rep["verdict"]["null_homotopic"]
    assert rep["witness_reconstructs"]


def test_homotopy_check_needs_embedded_endpoints(paths):
    # validate and functor sniff the file as a morphism and name the key too
    fd = jsonio.read_json(paths["f.json"])
    del fd["source"]
    path = paths["wj"]("nosource.json", fd)
    for verb in (["homotopy-check"], ["validate"], ["functor", "shift"]):
        code, out, err = run(*verb, path)
        assert code == 3 and "'source'" in err and "--" not in err, verb
        assert "Traceback" not in err and out == ""


def test_homotopy_check_certified_negative(paths):
    z = random_nonzero_object(Q2, paths["rng"], 3)
    fd = Morphism.identity(z).to_json()
    fd.update(source=z.to_json(), target=z.to_json(), ring=Q2.to_json())
    code, out, err = run("homotopy-check", paths["wj"]("idz.json", fd))
    rep = json.loads(out)
    assert code == 0
    assert not rep["verdict"]["null_homotopic"] and not rep["verdict"]["bounded"]


def test_homotopy_check_skew_negative_is_definitive(paths):
    # a definitive negative passes, as over Q; exit 5 is left to chain-iso
    zs = Factorization(F4X2, [1, 1], [TwistedMatrix(F4X2, [[F4X2.x_power(1)]], 0),
                                      TwistedMatrix(F4X2, [[F4X2.x_power(1)]], 1)])
    fd = Morphism.identity(zs).to_json()
    fd.update(source=zs.to_json(), target=zs.to_json(), ring=F4X2.to_json())
    code, out, err = run("homotopy-check", paths["wj"]("ids.json", fd))
    rep = json.loads(out)
    assert code == 0 and rep["verdict"] == {"null_homotopic": False,
                                            "bounded": False}
    code, out, err = run("stably-zero", paths["wj"]("zsx.json",
                                                    dict(zs.to_json(), ring=F4X2.to_json())))
    assert code == 0 and not json.loads(out)["verdict"]["null_homotopic"]
    code, out, err = run("homotopy-check", paths["wj"]("ids2.json", fd),
                         "--escalations", "2")
    assert code == 3


def test_large_prime_ring_loads_and_composite_is_input_error(paths):
    big = {"field": {"kind": "prime", "p": 999999999999999989},
           "omega": [0, 0, 1]}
    start = time.perf_counter()
    ring = jsonio.load_ring(paths["wj"]("big.json", big))
    assert time.perf_counter() - start < 2
    tp = paths["wj"]("tbig.json", dict(theta(ring, 2, 0, 1).to_json(),
                                       ring=ring.to_json()))
    code, out, err = run("stably-zero", tp)
    assert code == 0 and json.loads(out)["verdict"]["null_homotopic"]
    # 1000000007 * 2147483647: trial division would take 10^9 steps
    bad = dict(big, field={"kind": "prime", "p": 2147483662032385529})
    code, out, err = run("stably-zero", tp, "--ring", paths["wj"]("composite.json", bad))
    assert code == 3 and "not a prime" in err


def test_stable_hom_and_skew_guard(paths):
    z = random_nonzero_object(Q2, paths["rng"], 3)
    zp = paths["wj"]("z.json", dict(z.to_json(), ring=Q2.to_json()))
    code, out, err = run("stable-hom", zp, zp)
    assert code == 0 and json.loads(out)["report"]["hom_rank"] >= 1
    zs = Factorization(F4X2, [1, 1], [TwistedMatrix(F4X2, [[F4X2.x_power(1)]], 0),
                                      TwistedMatrix(F4X2, [[F4X2.x_power(1)]], 1)])
    sp = paths["wj"]("zs.json", dict(zs.to_json(), ring=F4X2.to_json()))
    code, out, err = run("stable-hom", sp, sp)
    assert code == 4


def test_stable_hom_refuses_objects_of_different_folds(paths):
    x2 = paths["wj"]("fold2.json", dict(theta(Q2, 2, 0).to_json(), ring=Q2.to_json()))
    x3 = paths["wj"]("fold3.json", dict(theta(Q2, 3, 0).to_json(), ring=Q2.to_json()))
    code, out, err = run("stable-hom", x2, x3)
    assert (code, out, err) == (3, "", "input error: fold counts differ\n")


def test_stable_hom_reads_each_objects_own_ring(paths):
    # X over Q with x^3, Y over F_5 with x^3: Y is read over its own ring
    q3, f53 = INST[1], INST[5]
    rng = random.Random(5)
    xp, yp = (paths["wj"](name, dict(random_object(r, rng, 2).to_json(),
                                     ring=r.to_json()))
              for name, r in (("q3.json", q3), ("f53.json", f53)))
    code, out, err = run("stable-hom", xp, yp)
    assert (code, out, err) == (
        3, "", "input error: the two objects live over different rings\n")


def test_a_unit_omega_is_an_input_error(paths):
    # omega = 2 over Q: a 1-fold rank-1 object (2) and its identity are
    # valid over it, but the ring itself is refused where it is read
    wj = paths["wj"]
    ring = {"field": {"kind": "rationals"}, "omega": ["2"]}
    obj = {"n": 1, "ranks": [1], "maps": [
        {"rows": 1, "cols": 1, "twist": 1, "entries": [[["2"]]]}]}
    mor = {"components": [{"rows": 1, "cols": 1, "twist": 0, "entries": [[["1"]]]}],
           "source": obj, "target": obj}
    rp = wj("unit-ring.json", ring)
    xp = wj("unit-x.json", dict(obj, ring=ring))
    fp = wj("unit-f.json", dict(mor, ring=ring))
    for argv in (("stable-hom", xp, xp), ("stably-zero", xp),
                 ("homotopy-check", fp), ("laws", "--cases", "1", "--ring", rp),
                 ("recollement", "2", "1", "--ring", rp)):
        code, out, err = run(*argv)
        assert (code, out) == (3, ""), argv
        assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)
        assert "omega must have positive degree" in err, (argv, err)


def test_stably_zero_both_verdicts(paths):
    z = random_nonzero_object(Q2, paths["rng"], 3)
    zp = paths["wj"]("znz.json", dict(z.to_json(), ring=Q2.to_json()))
    code, out, err = run("stably-zero", zp)
    assert code == 0 and not json.loads(out)["verdict"]["null_homotopic"]
    t0 = theta(Q2, 3, 0, 2)
    tp = paths["wj"]("t0.json", dict(t0.to_json(), ring=Q2.to_json()))
    code, out, err = run("stably-zero", tp)
    assert code == 0 and json.loads(out)["verdict"]["null_homotopic"]


def test_cok0_lift_chain_iso_roundtrip(paths):
    code, out, err = run("cok0", paths["x.json"])
    assert code == 0
    cpath = paths["wj"]("xc.json", dict(json.loads(out)["chain"], ring=Q2.to_json()))
    code, out, err = run("lift", cpath)
    assert code == 0
    lx = json.loads(out)["factorization"]
    code, out, err = run("cok0", paths["wj"]("lx.json", dict(lx, ring=Q2.to_json())))
    assert code == 0
    c2path = paths["wj"]("xc2.json", dict(json.loads(out)["chain"], ring=Q2.to_json()))
    code, out, err = run("chain-iso", cpath, c2path)
    assert code == 0 and json.loads(out)["result"]["isomorphic"]


def test_chain_iso_definitive_mismatch_exits_2(paths):
    code, out, err = run("cok0", paths["x.json"])
    cpath = paths["wj"]("xc3.json", dict(json.loads(out)["chain"], ring=Q2.to_json()))
    other = cok0(theta(Q2, 3, 1, 1))
    op = paths["wj"]("other.json", dict(other.to_json(), ring=Q2.to_json()))
    code, out, err = run("chain-iso", cpath, op)
    assert code == 2
    # equal slot invariants, told apart by their chain-map dimensions
    c, d = equal_invariant_pair(19)
    cp, dp = (paths["wj"](name, dict(ch.to_json(), ring=ch.ring.to_json()))
              for name, ch in (("eq-c.json", c), ("eq-d.json", d)))
    code, out, err = run("chain-iso", cp, dp)
    assert code == 2 and json.loads(out)["result"]["definitive"]


def test_chain_iso_out_of_tries_exits_5(paths, monkeypatch):
    import modfact.chains as ch
    monkeypatch.setattr(ch, "_ISO_TRIES", 0)
    code, out, err = run("cok0", paths["x.json"])
    cpath = paths["wj"]("xc5.json", dict(json.loads(out)["chain"], ring=Q2.to_json()))
    code, out, err = run("chain-iso", cpath, cpath)
    assert code == 5
    assert json.loads(out)["result"] == {
        "isomorphic": False, "definitive": False,
        "reason": "no invertible combination in 0 tries"}
    assert err == "no isomorphism found within the search budget\n"


def test_phi_psi_roundtrip_and_corruption(paths):
    code, out, err = run("phi", paths["x.json"])
    assert code == 0
    gout = json.loads(out)["gamma"]
    code, out, err = run("psi", paths["wj"]("gx.json", dict(gout, ring=Q2.to_json())))
    assert code == 0
    back = Factorization.from_json(Q2, json.loads(out)["factorization"])
    assert back == paths["x"]
    bad = corrupt_gamma(phi(paths["x"]), paths["rng"])
    bp = paths["wj"]("gbad.json", dict(bad.to_json(), ring=Q2.to_json()))
    code, out, err = run("psi", bp)
    assert code == 2


def test_recollement_verb(paths):
    code, out, err = run("recollement", "3", "1", "--ring", paths["ring"],
                         "--cases", "4")
    rep = json.loads(out)
    assert code == 0 and rep["passed"]
    # the five checks of Recollement.checks, each counted once a case
    assert rep["checks"] == dict.fromkeys(
        ["section_identities", "section_identities_morphism", "triangles",
         "inclusion_valid", "kernel_stably_zero"], 4)
    code, out, err = run("recollement", "3", "1", "--ring", paths["skew"],
                         "--cases", "3")
    assert code == 0 and json.loads(out)["passed"]
    code, out, err = run("recollement", "1", "1", "--ring", paths["ring"])
    assert code == 3


def test_recollement_failure_exits_2_and_names_it(paths, monkeypatch):
    from modfact.recollement import Recollement
    monkeypatch.setattr(Recollement, "triangles", lambda self, x, y: False)
    code, out, err = run("recollement", "3", "1", "--ring", paths["ring"],
                         "--cases", "2")
    rep = json.loads(out)
    assert code == 2 and not rep["passed"]
    assert rep["failures"] == ["an adjunction triangle identity fails"] * 2
    assert rep["checks"]["triangles"] == 0
    assert rep["checks"]["section_identities"] == 2


def test_input_error_paths_print_one_line(paths):
    # each exits 3 with one "input error:" line and nothing on stdout
    wj, x = paths["wj"], paths["x"]
    bare = wj("bare.json", x.to_json())
    badring = wj("badring.json", dict(x.to_json(),
                                      ring={"field": {"kind": "nope"}}))
    # the identity of x with its slot-0 component zeroed: squares fail
    broken = Morphism(x, x, [TwistedMatrix.zero(Q2, x.ranks[0], x.ranks[0])]
                      + Morphism.identity(x).components[1:])
    broken = dict(broken.to_json(), source=x.to_json(), target=x.to_json(),
                  ring=Q2.to_json())
    ill = wj("e-ill.json", ILL_DEFINED_CHAIN)
    # A/(x) -> A/(x^2), e |-> x e: well defined and injective
    f5chain = wj("e-f5chain.json", _chain_over_f5([0, 1], [0, 0, 1], [0, 1]))
    # -1 generators over a 0 x -1 relation matrix
    negative = wj("e-negative.json", {
        "n": 2, "ring": F5X2, "maps": [],
        "modules": [{"generators": -1, "relations": {
            "rows": 0, "cols": -1, "twist": 0, "entries": []}}]})
    free = wj("e-free.json", FREE_CHAIN)
    loose = wj("e-loose.json", LOOSE_CHAIN)
    # arrays nested past the parser's recursion limit
    deep = str(paths["tmp"] / "e-deep.json")
    with open(deep, "w") as fh:
        fh.write("[" * 200000 + "]" * 200000)
    cases = [
        (("validate", deep), "JSON in %s is nested too deeply" % deep),
        (("validate", paths["c.json"], "--ring", deep),
         "JSON in %s is nested too deeply" % deep),
        (("lift", free), "a module is not killed by omega"),
        (("lift", loose), "a module is not killed by omega"),
        (("chain-iso", free, f5chain), "a module is not killed by omega"),
        (("chain-iso", f5chain, loose), "a module is not killed by omega"),
        (("cok0", bare), "no ring supplied and none embedded"),
        (("cok0", badring), "bad embedded ring in %s" % badring),
        (("chain-iso", ill, ill), "chain map into slot 2 is not well defined"),
        (("chain-iso", f5chain, ill), "chain map into slot 2 is not well defined"),
        (("chain-iso", paths["c.json"], f5chain), "chains live over different rings"),
        (("functor", "shift", paths["c.json"]),
         "functors act on factorizations or morphisms, not 'chain'"),
        (("homotopy-check", wj("broken.json", broken)),
         "input is not a morphism; squares fail at slots"),
        (("validate", negative), "a matrix cannot be 0x-1"),
        (("lift", negative), "a matrix cannot be 0x-1"),
        (("chain-iso", negative, negative), "a matrix cannot be 0x-1"),
    ]
    # omega as a string or an object, not a coefficient array
    for name, omega in (("e-omega-str.json", "0001"),
                        ("e-omega-obj.json", {"0": 1, "1": 2})):
        ring = wj(name, {"field": {"kind": "rationals"}, "omega": omega})
        cases.append((("laws", "--ring", ring),
                      "bad ring in %s: omega encodes as a coefficient array" % ring))
    # oversized hostile values: the line shows only the head of each
    chain, obj = jsonio.read_json(paths["c.json"]), jsonio.read_json(paths["x.json"])
    rational = jsonio.read_json(paths["x.json"])
    rational["maps"][0]["entries"][0][0] = ["x" * 100000]
    hostile = [
        (("validate", wj("e-huge-n.json", dict(chain, n=[0] * 200000))),
         "n must be an integer, not [0, 0, "),
        (("validate", wj("e-huge-rank.json",
                         dict(obj, ranks=["x" * 100000] + obj["ranks"][1:]))),
         "a rank must be an integer, not 'xxx"),
        (("validate", wj("e-huge-rational.json", rational)),
         "not a rational: 'xxx"),
    ]
    for argv, want in cases + hostile:
        code, out, err = run(*argv)
        assert code == 3 and out == "", argv
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        assert want in err, (argv, err)
        assert len(err.encode()) < 300 or (argv, want) not in hostile, argv


def test_laws_reports_are_byte_identical(paths):
    p1 = str(paths["tmp"] / "laws1.json")
    p2 = str(paths["tmp"] / "laws2.json")
    for p in (p1, p2):
        code, out, err = run("laws", "--ring", paths["ring"], "--seed", "11",
                             "--cases", "3", "--json", p)
        assert code == 0, err
    with open(p1, "rb") as fh1, open(p2, "rb") as fh2:
        b1, b2 = fh1.read(), fh2.read()
    assert b1 == b2 and len(b1) > 100


def test_laws_suite_filter(paths):
    code, out, err = run("laws", "--ring", paths["ring"], "--cases", "2",
                         "--suite", "functor-laws,adjunction")
    rep = json.loads(out)
    assert code == 0 and len(rep["suites"]) == 2
    code, out, err = run("laws", "--suite", "nope", "--ring", paths["ring"])
    assert code == 3


def test_laws_default_ring(paths):
    code, out, err = run("laws", "--cases", "2", "--n", "2")
    assert code == 0


def test_laws_skips_a_suite_with_no_fold_in_reach(paths):
    # classical-sanity needs a fold <= deg omega + 2
    code, out, err = run("laws", "--n", "6", "--suite", "classical-sanity")
    (rep,) = json.loads(out)["suites"]
    assert code == 0 and rep["cases"] == 0
    assert rep["skipped"] == "no requested fold (6) is within deg omega + 2 = 5"
    code, out, err = run("laws", "--n", "4", "--ring", paths["skew"],
                         "--cases", "2")
    assert code == 0, err
    by = {s["name"]: s for s in json.loads(out)["suites"]}
    assert "(4)" in by["classical-sanity"]["skipped"]


def _child_env():
    # pytest's own pythonpath setting does not reach a child process, so
    # hand it the directory this modfact was imported from
    src = os.path.dirname(os.path.dirname(os.path.abspath(modfact.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "modfact.cli", "laws",
                           "--cases", "1", "--n", "2",
                           "--suite", "ring-laws"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"]


# the options each verb reads, besides --help
VERB_OPTIONS = {
    "validate": {"--ring", "--json"},
    "functor": {"--ring", "--json", "--i", "--a"},
    "homotopy-check": {"--ring", "--json"},
    "stable-hom": {"--ring", "--json"},
    "stably-zero": {"--ring", "--json"},
    "cok0": {"--ring", "--json"},
    "lift": {"--ring", "--json"},
    "chain-iso": {"--ring", "--json", "--seed"},
    "phi": {"--ring", "--json"},
    "psi": {"--ring", "--json"},
    "recollement": {"--ring", "--json", "--seed", "--max-rank", "--max-deg",
                    "--cases"},
    "laws": {"--ring", "--json", "--suite", "--n", "--seed", "--max-rank",
             "--max-deg", "--cases"},
}


def test_each_verb_declares_only_the_options_it_reads():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    verbs = sub.choices
    assert set(verbs) == set(VERB_OPTIONS)
    total = 0
    for name, p in verbs.items():
        opts = [a for a in p._actions if a.option_strings
                and not isinstance(a, argparse._HelpAction)]
        assert {s for a in opts for s in a.option_strings} == VERB_OPTIONS[name]
        total += len(opts)
    assert total == 37


def test_a_flag_the_verb_does_not_read_is_a_usage_error(paths):
    unread = "unrecognized arguments"
    for argv, why in ((["validate", paths["x.json"], "--cases", "2"], unread),
                      (["cok0", paths["x.json"], "--seed", "1"], unread),
                      (["recollement", "3", "1", "--n", "2"], unread),
                      (["lift", paths["c.json"], "--seed", "1"], unread),
                      (["lift", paths["c.json"], "--n", "2"], unread),
                      (["functor", "nope", paths["x.json"]], "invalid choice")):
        code, out, err = run(*argv)
        assert code == 3, argv
        assert "usage:" in err and why in err, argv
        assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("verb", [None] + sorted(VERB_OPTIONS))
def test_help_exits_0(verb):
    code, out, err = run(*([verb] if verb else []), "--help")
    assert code == 0 and "usage: modfact" in out and err == ""


def test_hostile_numbers_and_kinds_are_input_errors(paths):
    wj = paths["wj"]
    q = Q2.to_json()
    f5 = {"field": {"kind": "prime", "p": 5}, "omega": [0, 0, 1]}
    x = paths["x"].to_json()
    x5 = random_object(ring_from_json(f5), random.Random(3), 2).to_json()
    x4 = random_object(F4X2, random.Random(3), 2).to_json()

    def entry(obj, value):
        # the obj with its first map's first entry replaced by [value]
        out = json.loads(json.dumps(obj))
        out["maps"][0]["entries"][0][0] = [value]
        return out

    def twisted(obj, twist):
        out = json.loads(json.dumps(obj))
        out["maps"][0]["twist"] = twist
        return out

    t2 = theta(Q2, 2, 0)
    t2j = dict(t2.to_json(), ring=q)
    gamma = dict(phi(t2).to_json(), ring=q)
    chain = dict(cok0(t2).to_json(), ring=q)

    def gamma_row(row):
        out = json.loads(json.dumps(gamma))
        out["maps"][0]["row"] = row
        return out

    def chain_gens(extra):
        out = json.loads(json.dumps(chain))
        out["modules"][0]["generators"] += extra
        return out

    # two modules with a second copy of their one map
    extra_map = dict(cok0(theta(Q2, 3, 0)).to_json(), ring=q)
    extra_map["maps"] *= 2

    cases = {
        "zero denominator in an entry": ([wj("h1.json", dict(entry(x, "1/0"), ring=q))], None),
        "zero denominator in omega": ([paths["x.json"]], dict(q, omega=["0", "0", "1/0"])),
        "exponent in an entry": ([wj("h2.json", dict(entry(x, "1e3"), ring=q))], None),
        "exponent in omega": ([paths["x.json"]], dict(q, omega=["0", "0", "1e2"])),
        "float p": ([wj("h3.json", x5)], dict(f5, field={"kind": "prime", "p": 5.5})),
        "string p": ([wj("h4.json", x5)], dict(f5, field={"kind": "prime", "p": "5"})),
        "bool sigma_power": ([wj("h5.json", x4)], dict(F4X2.to_json(), sigma_power=True)),
        "float F_4 coordinate": ([wj("h6.json", entry(x4, [1.0, 0]))], F4X2.to_json()),
        "maps as an object": ([wj("h7.json", {"maps": {"a": 1}})], None),
        "maps as a number": ([wj("h8.json", {"maps": 5})], None),
        # structural integers are never truncated: each of these loaded as
        # t2 or its phi and cok0 when they went through int()
        "float n": ([wj("h9.json", dict(t2j, n=2.7))], None),
        "float ranks": ([wj("h10.json", dict(t2j, ranks=[1.5, 1.5]))], None),
        "float twist": ([wj("h11.json", twisted(t2j, 0.9))], None),
        "float gamma row": ([wj("h12.json", gamma_row(1.0))], None),
        "float generators": ([wj("h13.json", chain_gens(0.5))], None),
        "float chain n": ([wj("h14.json", dict(chain, n=float(chain["n"])))], None),
        "two maps for two modules": ([wj("h15.json", extra_map)], None),
    }
    for what, (files, ring) in cases.items():
        extra = ["--ring", wj("hring.json", ring)] if ring else []
        start = time.perf_counter()
        code, out, err = run("validate", *files, *extra)
        assert code == 3 and "input error" in err, (what, code, err)
        assert "Traceback" not in err and out == "", what
        assert time.perf_counter() - start < 1, what
        if what == "two maps for two modules":
            assert "a chain of 2 modules needs 1 map, not 2" in err, err

    # a chain lift cannot rebuild, and objects whose rotation fails, are
    # refused by the verbs that would decide something of them
    ill = wj("h-ill.json", ILL_DEFINED_CHAIN)
    noninj = wj("h-noninj.json", NON_INJECTIVE_CHAIN)
    nf = wj("h-nf.json", NON_FACTORIZATION)
    nf3 = wj("h-nf3.json", NON_FACTORIZATION_3)
    idnf = dict(Morphism.identity(Factorization.from_json(
        ring_from_json(F5X2), NON_FACTORIZATION)).to_json(),
        source=NON_FACTORIZATION, target=NON_FACTORIZATION, ring=F5X2)
    idnf = wj("h-idnf.json", idnf)
    f5ring = wj("h-f5.json", F5X2)

    def zfold(fold):
        z = random_object(ring_from_json(F5X2), random.Random(3), fold)
        return dict(z.to_json(), ring=F5X2)
    rotation = "is not a factorization; rotation fails at slots "
    verbs = (
        (["lift", ill], "chain map into slot 2 is not well defined"),
        (["lift", noninj], "chain map into slot 2 is not injective"),
        (["homotopy-check", idnf], "the source in %s %s[0, 1]" % (idnf, rotation)),
        (["stably-zero", nf], "%s %s[0, 1]" % (nf, rotation)),
        (["stable-hom", nf, nf], "%s %s[0, 1]" % (nf, rotation)),
        # recollement reads Z's ring when --ring is not given
        (["recollement", "3", "1", nf3], "%s %s[0, 1, 2]" % (nf3, rotation)),
        (["recollement", "3", "1", nf3, "--ring", f5ring],
         "%s %s[0, 1, 2]" % (nf3, rotation)),
    )
    # a Z outside F_{N-K+1} is refused before any sampling, with or
    # without --ring
    for fold in (1, 2, 4, 5):
        zf = wj("h-z%d.json" % fold, zfold(fold))
        message = "the inclusion takes fold n - k + 1 = 3, not fold %d" % fold
        verbs += ((["recollement", "3", "1", zf], message),
                  (["recollement", "3", "1", zf, "--ring", f5ring], message))
    for argv, message in verbs:
        code, out, err = run(*argv)
        assert code == 3 and err == "input error: %s\n" % message, (argv, err)
        assert out == "", argv
    # a fold-3 Z over F_5 is checked over its own ring, not over Q[x]
    code, out, err = run("recollement", "3", "1", wj("h-z3.json", zfold(3)))
    assert code == 0 and err == "(3, 1): 1 cases, all checks pass\n", err
    assert json.loads(out)["passed"]


def test_oversized_fields_are_input_errors(paths):
    wj = paths["wj"]
    x4 = wj("o4.json", random_object(F4X2, random.Random(3), 2).to_json())
    for field in ({"kind": "finite", "p": 2, "e": 32},
                  {"kind": "finite", "p": 2, "e": 64},
                  {"kind": "finite", "p": 1000003, "e": 2},
                  {"kind": "finite", "p": 10007, "e": 4}):
        ring = {"field": field, "sigma_power": 1, "omega": [0, 0, 1]}
        start = time.perf_counter()
        code, out, err = run("validate", x4, "--ring", wj("oring.json", ring))
        assert code == 3 and "field size cap" in err, (field, code, err)
        assert "Traceback" not in err and out == "", field
        assert time.perf_counter() - start < 1, field


HOSTILE = [None, "x", -1, 0, 10 ** 6, 2 ** 70, 1.5, True, [], {}, [[]], "1/0"]


def _json_paths(data, path=()):
    """Every path into data, itself first, keys and indices in order."""
    yield path
    if isinstance(data, dict):
        for key in sorted(data):
            yield from _json_paths(data[key], path + (key,))
    elif isinstance(data, list):
        for i, item in enumerate(data):
            yield from _json_paths(item, path + (i,))


def _set_at(data, path, value):
    out = json.loads(json.dumps(data))
    if not path:
        return value
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_a_hostile_value_anywhere_ends_in_an_exit_code(paths):
    # each fixture kind with one field, at a seeded path, set to a hostile
    # value, through every verb that reads that kind: no exception may
    # escape, and the run ends in one of the documented exit codes
    wj = paths["wj"]
    ring = ring_from_json(F5X2)
    rng = random.Random(103)
    x = random_object(ring, rng, 3, max_rank=2)
    y = random_object(ring, rng, 3, max_rank=2)
    f = random_morphism(rng, x, y)
    emb = {"ring": F5X2}
    fixtures = {
        "factorization": dict(x.to_json(), **emb),
        "morphism": dict(f.to_json(), source=x.to_json(), target=y.to_json(), **emb),
        "chain": dict(cok0(x).to_json(), **emb),
        "gamma": dict(phi(x).to_json(), **emb),
    }
    xp = wj("z-x.json", fixtures["factorization"])
    cp = wj("z-c.json", fixtures["chain"])
    verbs = {
        "factorization": [["validate"], ["functor", "shift"],
                          ["functor", "face", "--i", "1"], ["stably-zero"],
                          ["stable-hom", "{}", xp], ["cok0"], ["phi"],
                          ["recollement", "3", "1", "{}", "--cases", "1"]],
        "morphism": [["validate"], ["functor", "shift"], ["homotopy-check"]],
        "chain": [["validate"], ["lift"], ["chain-iso", "{}", cp]],
        "gamma": [["validate"], ["psi"]],
    }
    runs = 0
    for kind, data in fixtures.items():
        spots = list(_json_paths(data))
        for k in range(100):
            path = spots[rng.randrange(len(spots))]
            value = HOSTILE[rng.randrange(len(HOSTILE))]
            hostile = wj("z-%s-%d.json" % (kind, k), _set_at(data, path, value))
            for argv in verbs[kind]:
                argv = [a.replace("{}", hostile) for a in argv]
                if hostile not in argv:
                    argv.append(hostile)
                code, out, err = run(*argv)
                assert code in (0, 2, 3, 4, 5), (argv, path, value, code, err)
                runs += 1
    assert runs == 100 * sum(len(v) for v in verbs.values())


def test_unwritable_json_target_is_input_error(paths):
    target = str(paths["tmp"] / "no-such-dir" / "out.json")
    code, out, err = run("validate", paths["x.json"], "--json", target)
    assert code == 3 and err.startswith("input error: cannot write " + target)
    assert "Traceback" not in err and out == ""


def test_negative_sampling_values_are_usage_errors():
    # a case count or a rank bound must be at least 1, a degree bound or
    # a fold count at least 0
    for argv, why in ((["laws", "--n", "-1", "--cases", "2"], "--n: must be >= 0, not -1"),
                      (["laws", "--cases", "-3"], "--cases: must be >= 1, not -3"),
                      (["laws", "--max-rank", "-1"], "--max-rank: must be >= 1, not -1"),
                      (["laws", "--max-deg", "-2"], "--max-deg: must be >= 0, not -2"),
                      (["laws", "--cases", "0"], "--cases: must be >= 1, not 0"),
                      (["laws", "--max-rank", "0"], "--max-rank: must be >= 1, not 0"),
                      (["recollement", "3", "1", "--cases", "-2"],
                       "--cases: must be >= 1, not -2"),
                      (["recollement", "3", "1", "--max-rank", "-1"],
                       "--max-rank: must be >= 1, not -1"),
                      (["recollement", "3", "1", "--max-deg", "-1"],
                       "--max-deg: must be >= 0, not -1"),
                      (["recollement", "3", "1", "--cases", "0"],
                       "--cases: must be >= 1, not 0"),
                      (["recollement", "3", "1", "--max-rank", "0"],
                       "--max-rank: must be >= 1, not 0")):
        code, out, err = run(*argv)
        assert code == 3 and out == "", argv
        assert "usage: modfact %s" % argv[0] in err and "argument " + why in err, argv
    code, out, err = run("laws", "--cases", "two")
    assert code == 3 and "argument --cases: invalid int value: 'two'" in err
    # zero is still a value: --n 0 means a mix of folds
    code, out, err = run("laws", "--n", "0", "--cases", "1", "--suite", "ring-laws")
    assert code == 0 and json.loads(out)["passed"], err


# an accepted command line of each verb
SAMPLE_ARGV = {
    "validate": ["a.json", "b.json", "--ring", "r.json"],
    "functor": ["face", "x.json", "--i", "1", "--json", "o.json"],
    "homotopy-check": ["f.json"],
    "stable-hom": ["x.json", "y.json"],
    "stably-zero": ["x.json"],
    "cok0": ["x.json"],
    "lift": ["c.json"],
    "chain-iso": ["c.json", "d.json", "--seed", "4"],
    "phi": ["x.json"],
    "psi": ["g.json"],
    "recollement": ["3", "1", "z.json", "--cases", "5", "--max-deg", "1"],
    "laws": ["--suite", "adjunction", "--n", "2", "--max-rank", "2", "--seed", "9"],
}


def _parse(parse, argv):
    """(exit code, stdout, stderr, namespace) of parse(argv)."""
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    ns, code = None, None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            ns = vars(parse(argv))
    except SystemExit as e:
        code = e.code
    return code, out.getvalue(), err.getvalue(), ns


@pytest.fixture
def built(monkeypatch):
    """The parsers cli builds, in the order it builds them."""
    parsers = []
    init = cli._Parser.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        parsers.append(self)
    monkeypatch.setattr(cli._Parser, "__init__", record)
    return parsers


def test_one_verb_parser_matches_the_full_one(built):
    assert [v[0] for v in cli.VERBS] == list(SAMPLE_ARGV)
    full = cli.build_parser().parse_args
    total = 0
    for verb, sample in SAMPLE_ARGV.items():
        del built[:]
        assert _parse(cli.parse_args, [verb] + sample)[0] is None
        (one,) = built
        assert one.prog == "modfact " + verb
        opts = [a for a in one._actions if a.option_strings
                and not isinstance(a, argparse._HelpAction)]
        assert {s for a in opts for s in a.option_strings} == VERB_OPTIONS[verb]
        total += len(opts)
        # same namespace, help text and usage errors; on an unrecognized
        # flag or positional the top parser's usage, which names every
        # verb, is printed
        for argv in ([verb] + sample, [verb, "--help"], [verb, "--ring"],
                     [verb] + sample + ["--zzz"],
                     [verb] + sample + ["extra.json", "more.json"],
                     [verb, "--"] + sample,
                     [verb] + sample + ["--jso", "o.json"],
                     [verb, "x.json", "-h"]):
            assert _parse(cli.parse_args, argv) == _parse(full, argv), argv
    assert total == 37


def test_a_named_verb_builds_one_parser(paths, built):
    out = str(paths["tmp"] / "one-parser.json")
    for argv in (["cok0", paths["x.json"], "--json", out],
                 ["functor", "face", paths["x.json"], "--i", "1", "--json", out],
                 ["laws", "--suite", "ring-laws", "--cases", "1", "--json", out]):
        del built[:]
        assert run(*argv)[0] == 0, argv
        assert [p.prog for p in built] == ["modfact " + argv[0]], argv


class _ClosedPipe(io.StringIO):
    # a stdout whose reader has gone
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_keeps_the_verbs_exit_code(paths):
    from contextlib import redirect_stdout, redirect_stderr
    report = str(paths["tmp"] / "closed.json")
    bad = paths["bad.json"]
    for argv, want in ((["validate", paths["x.json"]], 0),
                       (["validate", paths["x.json"], "--json", report], 0),
                       (["validate", bad], 2),
                       (["validate", bad, "--json", report], 2)):
        err = io.StringIO()
        with redirect_stdout(_ClosedPipe()), redirect_stderr(err):
            code = cli.main(argv)
        assert code == want and "input error" not in err.getvalue(), argv
    with open(report) as fh:
        assert json.load(fh)["exit_code"] == 2


def test_a_closed_pipe_on_stdout_ends_quietly(paths):
    report = str(paths["tmp"] / "piped.json")
    bad = paths["bad.json"]
    laws = ["laws", "--suite", "ring-laws", "--cases", "1"]
    for argv, want in ((laws, 0), (laws + ["--json", report], 0),
                       (["validate", bad], 2),
                       (["validate", bad, "--json", report], 2),
                       (laws + ["--json", str(paths["tmp"] / "no" / "r.json")], 3)):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "modfact.cli"] + argv,
                                  stdout=write, stderr=subprocess.PIPE,
                                  text=True, env=_child_env(), timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == want, (argv, proc.stderr)
        for text in ("Traceback", "Exception ignored", "Broken pipe"):
            assert text not in proc.stderr, (argv, proc.stderr)
        assert ("input error: cannot write" in proc.stderr) == (want == 3)


TOP_USAGE = """\
usage: modfact [-h]
               {validate,functor,homotopy-check,stable-hom,stably-zero,cok0,lift,chain-iso,phi,psi,recollement,laws}
               ...
"""

TOP_HELP = TOP_USAGE + """
exact computations with n-fold factorizations of a normal ring element

positional arguments:
  {validate,functor,homotopy-check,stable-hom,stably-zero,cok0,lift,chain-iso,phi,psi,recollement,laws}
    validate            check rotation/square/module axioms
    functor             apply shift/face/degeneracy functors
    homotopy-check      decide null homotopy and return a witness
    stable-hom          invariant factors of the stable hom module
    stably-zero         is the identity null homotopic
    cok0                quotient chain of a factorization
    lift                rebuild a factorization from a chain
    chain-iso           search for a chain isomorphism
    phi                 factorization to matrix-ring module
    psi                 matrix-ring module to factorization
    recollement         randomized checks of the quotient/section/inclusion
                        identities
    laws                run the randomized law suites

options:
  -h, --help            show this help message and exit
"""


def test_top_level_listing_and_messages(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run() == (3, "", TOP_USAGE + "modfact: error: the following "
                                         "arguments are required: verb\n")
    assert run("--help") == (0, TOP_HELP, "")
    assert run("-h") == (0, TOP_HELP, "")
    choices = ", ".join("'%s'" % v[0] for v in cli.VERBS)
    assert run("nope") == (3, "", TOP_USAGE + "modfact: error: argument verb: "
                           "invalid choice: 'nope' (choose from %s)\n" % choices)
    code, out, err = run("cok0", "x.json", "--cases", "2")
    assert (code, out) == (3, "") and err == (
        TOP_USAGE + "modfact: error: unrecognized arguments: --cases 2\n")


def test_cli_imports_laws_and_recollement_only_for_their_verbs():
    env = _child_env()
    probe = ("import sys, modfact.cli; print(sorted(m for m in sys.modules "
             "if m in ('modfact.laws', 'modfact.recollement')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr
    proc = subprocess.run([sys.executable, "-m", "modfact.cli", "laws", "--help"],
                          capture_output=True, text=True, env=env)
    from modfact.laws import suite_names
    assert proc.returncode == 0 and len(suite_names()) > 1
    # help text wraps at spaces and hyphens alike
    assert ("known:" + ",".join(suite_names()) + ")") in "".join(proc.stdout.split())
