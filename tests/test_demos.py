"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys

import pytest

import modfact

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(modfact.__file__)))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    # the demos start the CLI in subprocesses of their own, so the package
    # path travels in the environment
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
