"""The names bench/tracer.py wraps and the attributes its hooks read, and
a short traced benchmark run of every workload.

A refactor that renames a traced function or method fails here instead
of in a traced benchmark run (``bench/run.py --trace 1``). The traced runs
themselves fail when a layer a workload should load is never called, when
the exact counters of two passes of one seed differ, or when an op fails
its check.
"""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

from modfact import homotopy
from modfact.factorizations import Morphism

from common import X2

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "bench")
TRACER_PATH = os.path.join(BENCH_DIR, "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    # executed from its source, so nothing is written beside it
    mod = types.ModuleType("bench_tracer")
    with open(TRACER_PATH) as fh:
        exec(compile(fh.read(), TRACER_PATH, "exec"), mod.__dict__)
    return mod


def test_every_traced_function_resolves(tracer):
    for mod_name, fn_name, *_ in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module("modfact." + mod_name), fn_name, None)
        assert callable(fn), "modfact.%s.%s" % (mod_name, fn_name)


def test_every_traced_method_is_defined_on_its_class(tracer):
    # Tracer.install reads the method from the class's own __dict__
    for mod_name, cls_name, meth, *_ in tracer.METHODS:
        cls = getattr(importlib.import_module("modfact." + mod_name), cls_name)
        assert callable(cls.__dict__.get(meth)), "%s.%s" % (cls_name, meth)


def test_hooks_read_attributes_that_exist(tracer):
    tr = tracer.Tracer()
    verdict = homotopy.is_p_null_homotopic(Morphism.identity(X2))
    assert isinstance(homotopy.HomotopyVerdict.bounded, bool)
    tracer._verdict_after(tr, (), verdict)
    assert isinstance(X2._ranges, dict)
    X2.compose_range(0, 0)
    tracer._compose_before(tr, (X2, 0, 0))
    assert tr.counters["factorizations.Factorization.compose_range.hits"] == 1


# decide-q reaches smith_form and solve_right, which LOADED requires, only
# through the representatives of nonzero stable Hom modules, so it runs at
# three seeds
RUNS = [("decide-q", 0), ("decide-q", 1), ("decide-q", 2), ("decide-skew", 0),
        ("cli-present", 0)]


@pytest.mark.parametrize("workload, seed", RUNS,
                         ids=[w if not s else "%s-seed%d" % (w, s) for w, s in RUNS])
def test_traced_benchmark_run_passes(workload, seed):
    # a separate process, as the benchmark imports modfact afresh at
    # every set-up
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["failed"] == 0, out.stdout
