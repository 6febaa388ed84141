import argparse
import json
import random
import subprocess
import sys
import time

import pytest

from modfact import jsonio
from modfact import cli
from modfact.factorizations import Factorization, Morphism, theta
from modfact.matrices import TwistedMatrix
from modfact.matrixring import phi
from modfact.chains import cok0
from modfact.randomgen import (default_instances, random_object,
                               random_morphism, random_null_morphism,
                               random_nonzero_object, corrupt_gamma)

INST = default_instances()
Q2 = INST[0]
F4 = [r for r in INST if not r.commutative][0]
F4X2 = [r for r in INST if not r.commutative and r.omega_deg == 2][0]


def run(*argv):
    """Run the CLI in process; usage errors surface as SystemExit."""
    import io
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
    d = {
        "tmp": tmp, "wj": wj, "rng": rng, "x": x, "y": y,
        "ring": wj("ring.json", Q2.to_json()),
        "skew": wj("skew.json", F4.to_json()),
        "x.json": wj("x.json", dict(x.to_json(), ring=Q2.to_json())),
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


def test_validate_rejects_broken_object(paths):
    bad = paths["x"].to_json()
    bad["maps"][0]["entries"][0][0] = ["1", "1"]
    p = paths["wj"]("bad.json", dict(bad, ring=Q2.to_json()))
    code, out, err = run("validate", p)
    assert code == 2 and not json.loads(out)["passed"]


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
    assert code == 0 and json.loads(out)["passed"]
    code, out, err = run("recollement", "3", "1", "--ring", paths["skew"],
                         "--cases", "3")
    assert code == 0 and json.loads(out)["passed"]
    code, out, err = run("recollement", "1", "1", "--ring", paths["ring"])
    assert code == 3


def test_laws_reports_are_byte_identical(paths):
    p1 = str(paths["tmp"] / "laws1.json")
    p2 = str(paths["tmp"] / "laws2.json")
    for p in (p1, p2):
        code, out, err = run("laws", "--ring", paths["ring"], "--seed", "11",
                             "--cases", "3", "--json", p)
        assert code == 0, err
    b1 = open(p1, "rb").read()
    b2 = open(p2, "rb").read()
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


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "modfact.cli", "laws",
                           "--cases", "1", "--n", "2",
                           "--suite", "ring-laws"],
                          capture_output=True, text=True)
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
    "lift": {"--ring", "--json", "--n"},
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
    assert total == 38


def test_a_flag_the_verb_does_not_read_is_a_usage_error(paths):
    unread = "unrecognized arguments"
    for argv, why in ((["validate", paths["x.json"], "--cases", "2"], unread),
                      (["cok0", paths["x.json"], "--seed", "1"], unread),
                      (["recollement", "3", "1", "--n", "2"], unread),
                      (["lift", paths["c.json"], "--seed", "1"], unread),
                      (["functor", "nope", paths["x.json"]], "invalid choice")):
        code, out, err = run(*argv)
        assert code == 3, argv
        assert "usage:" in err and why in err, argv
        assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("verb", [None] + sorted(VERB_OPTIONS))
def test_help_exits_0(verb):
    code, out, err = run(*([verb] if verb else []), "--help")
    assert code == 0 and "usage: modfact" in out and err == ""
