import json

import pytest

from modfact.fields import RationalField
from modfact import randomgen as rg
from modfact.laws import Scenario, run_suites, suite_names

INST = rg.default_instances()
F5X3 = [r for r in INST[4:8] if r.omega_deg == 3][0]
QX2 = INST[0]
QSPLIT = [r for r in INST if isinstance(r.field, RationalField)
          and list(r.omega) != r.x_power(r.omega_deg)][0]
SKEW = [r for r in INST if not r.commutative and r.omega_deg == 2][0]


def run_all(ring, cases=5):
    sc = Scenario(ring, seed=3, folds=(1, 2, 3, 4), max_rank=2, max_deg=2,
                  cases=cases)
    return run_suites(sc)


@pytest.mark.parametrize("ring", [F5X3, QX2, QSPLIT, SKEW],
                         ids=["f5-x3", "q-x2", "q-split", "skew-f4-x2"])
def test_all_suites_pass(ring):
    rep = run_all(ring)
    assert rep["passed"]
    for s in rep["suites"]:
        assert s.get("skipped") or s["cases"] > 0, s["name"]
        assert not s["failures"], (s["name"], s["failures"][:2])


def test_reports_are_deterministic():
    a = json.dumps(run_all(F5X3), sort_keys=True)
    b = json.dumps(run_all(F5X3), sort_keys=True)
    assert a == b


def test_skew_ring_skips_commutative_suites():
    rep = run_all(SKEW, cases=3)
    by = {s["name"]: s for s in rep["suites"]}
    assert by["homotopy-oracle"].get("skipped")
    assert by["chain-lift"].get("skipped")
    assert not by["skew-soundness"].get("skipped")
    assert by["skew-soundness"]["cases"] > 0


def test_commutative_ring_skips_skew_suite():
    rep = run_all(F5X3, cases=3)
    by = {s["name"]: s for s in rep["suites"]}
    assert by["skew-soundness"].get("skipped")
    assert not by["homotopy-oracle"].get("skipped")


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
    names = suite_names()
    for want in ["ring-laws", "functor-laws", "adjunction", "homotopy-oracle",
                 "matrix-module-grid", "omega-division", "cokernel-chain",
                 "chain-lift", "cokernel-faithful", "classical-sanity",
                 "stable-face", "recollement", "skew-soundness"]:
        assert want in names


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
