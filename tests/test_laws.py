import json

import pytest

from modfact import randomgen as rg
from modfact.laws import Scenario, run_suites, suite_names

INST = rg.default_instances()
F5X3 = [r for r in INST[4:8] if r.omega_deg == 3][0]
SKEW = [r for r in INST if not r.commutative and r.omega_deg == 2][0]
SKEW_X = [r for r in INST if not r.commutative and r.omega_deg == 1][0]


def run_all(ring, cases=5):
    sc = Scenario(ring, seed=3, folds=(1, 2, 3, 4), max_rank=2, max_deg=2,
                  cases=cases)
    return run_suites(sc)


RING_IDS = ["q-x2", "q-x3", "q-x4", "q-split", "f5-x2", "f5-x3", "f5-x4",
            "f5-split", "skew-f4-x", "skew-f4-x2"]
COMMUTATIVE_ONLY = {"chain-lift", "classical-sanity"}


@pytest.mark.parametrize("ring", INST, ids=RING_IDS)
def test_all_suites_pass(ring):
    rep = run_all(ring)
    assert rep["passed"]
    for s in rep["suites"]:
        assert s.get("skipped") or s["cases"] > 0, s["name"]
        assert not s["failures"], (s["name"], s["failures"][:2])
    # at the default folds only Smith-form and lift suites skip, and only
    # on the skew rings
    skipped = {s["name"] for s in rep["suites"] if s.get("skipped")}
    assert skipped == (set() if ring.commutative else COMMUTATIVE_ONLY)


def test_reports_are_deterministic():
    a = json.dumps(run_all(F5X3), sort_keys=True)
    b = json.dumps(run_all(F5X3), sort_keys=True)
    assert a == b


def test_skew_ring_skips_commutative_suites():
    # the skips come from the UnsupportedRingError a suite raises; partial
    # cases are dropped with it
    for ring in (SKEW, SKEW_X):
        by = {s["name"]: s for s in run_all(ring, cases=3)["suites"]}
        for name in COMMUTATIVE_ONLY:
            assert by[name] == {"name": name, "cases": 0, "failures": [],
                                "passed": True,
                                "skipped": "needs a commutative base ring"}
        for name in ("homotopy-oracle", "stable-face", "cokernel-faithful"):
            assert not by[name].get("skipped") and by[name]["cases"] > 0


def test_commutative_ring_skips_no_suite(monkeypatch):
    # on a commutative ring an UnsupportedRingError is a bug, not a skip
    from modfact import laws
    from modfact.rings import UnsupportedRingError
    rep = run_all(F5X3, cases=3)
    assert not any(s.get("skipped") for s in rep["suites"])

    def unsupported(sc, rng, rep):
        rep.case(True)
        raise UnsupportedRingError("boom")

    monkeypatch.setattr(laws, "_REGISTRY",
                        [(n, unsupported if n == "ring-laws" else fn)
                         for n, fn in laws._REGISTRY])
    with pytest.raises(UnsupportedRingError, match="boom"):
        run_suites(Scenario(F5X3, cases=1), names=["ring-laws"])
    (s,) = run_suites(Scenario(SKEW, cases=1), names=["ring-laws"])["suites"]
    assert s["skipped"] == "needs a commutative base ring" and s["cases"] == 0


def test_unknown_suite_name_raises():
    sc = Scenario(F5X3, seed=0, cases=1)
    with pytest.raises(ValueError):
        run_suites(sc, names=["nope"])


def test_scenario_refuses_empty_sampling_bounds():
    # a bound the sampler cannot meet is an error, not a quiet other run
    for kw in (dict(cases=0), dict(max_rank=0), dict(max_deg=-1), dict(cases=-3)):
        with pytest.raises(ValueError, match="must be >="):
            Scenario(F5X3, **kw)


def test_suite_registry_has_expected_members():
    assert suite_names() == [
        "adjunction", "chain-lift", "classical-sanity", "cokernel-chain",
        "cokernel-faithful", "functor-laws", "homotopy-oracle",
        "matrix-module-grid", "omega-division", "recollement", "ring-laws",
        "stable-face"]


def test_omega_scaling_check_runs_on_skew_rings(monkeypatch):
    # with omega scaling swapped for the identity the check must fail
    # wherever a cokernel chain is nonzero, skew rings included
    from modfact import laws
    from modfact.factorizations import Morphism
    sc = Scenario(SKEW, seed=3, folds=(2, 3), max_rank=2, max_deg=2, cases=5)
    assert run_suites(sc, names=["cokernel-chain"])["passed"]
    monkeypatch.setattr(laws, "omega_morphism", Morphism.identity)
    (rep,) = run_suites(sc, names=["cokernel-chain"])["suites"]
    assert "omega scaling dies in the cokernels" in rep["failures"]
