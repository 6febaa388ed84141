#!/usr/bin/env python3
"""The modfact benchmark: seeded, closed-loop query streams.

    python3 bench/run.py --workload decide-q --seed 0 --seconds 40 --trace 0

One client sends one op at a time and waits for the answer (closed loop,
one process). The op list is drawn from ``--seed`` (see workloads.py) and
replayed in passes, one timing per op and pass, until ``--seconds`` have
gone by, with at least two passes. Each pass re-reads its inputs from
JSON, because ``Factorization.compose_range`` memoizes per object and a
reused object would time a warm cache that users do not get. Every answer
is checked outside the timed region.

An op's latency is the least of its timings over the passes. On a shared
2-core host the speed of a fixed loop is bimodal: most of the time it
runs at one speed, and in bursts of mostly 5 to 50 ms up to twice as
fast; how much of a given second is fast swings from none to three
quarters. An op of a few milliseconds, timed once a pass at some fifty
moments spread over the run, nearly always has a timing inside a burst,
so its least time is the steady one. An op of 100 ms or more seldom fits
in a burst, and any estimate of it follows the host's mix of the moment;
so the workloads hold only ops of a few milliseconds (workloads.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs two
untraced passes and then two traced passes (tracer.py); it prints the
per-layer metrics and the tracing overhead, and fails with exit code 1 if
the exact counters of the two traced passes differ or a layer the
workload should load was never called.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` beside this directory; without it the benchmark
exits with code 2 and prints no result.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# set-ups timed before the first pass; one more is timed before each later
# pass of an untraced run, and the median is reported
SETUPS = 5


def fail(msg, code=2):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(code)


def import_modfact():
    """Drop any loaded modfact modules and import them afresh."""
    for name in [k for k in sys.modules if k == "modfact" or k.startswith("modfact.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mod = importlib.import_module("modfact")
    importlib.import_module("modfact.cli")
    importlib.import_module("modfact.randomgen")
    if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
        fail("imported modfact from %s, not from %s" % (mod.__file__, SRC))


def canary():
    """Seconds for a fixed pure-Python Fraction loop; a host-speed probe."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 20000):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(1, i % 5 + 1)
    return perf_counter() - t0


def setup(ops_path, workdir):
    """Import modfact, then build the rings and the first pass's inputs
    from JSON."""
    import workloads
    t0 = perf_counter()
    import_modfact()
    ops = workloads.load_pass(ops_path, workdir)
    for op in ops:
        op.fresh()
    return perf_counter() - t0, ops


def run_pass(ops, answers, tracer=None, deadline=None):
    """Run each op once, in order, closed loop, on fresh inputs, stopping
    early once past the deadline; returns (latencies, failures, ops run).

    answers maps op id to the digest of its first, thoroughly checked
    answer; every later answer must match it. A failed op has latency
    None."""
    import workloads
    lats = []
    failures = []
    for op in ops:
        if deadline is not None and perf_counter() > deadline:
            break
        run, check = op.fresh()
        if tracer is not None:
            tracer.op = op.id
            tracer.stack = []
            tracer.enabled = True
        # as timeit does, no cyclic garbage collection inside the timed
        # call: a collection's cost follows whatever the earlier untimed
        # checks left behind, not the op
        gc.disable()
        try:
            t0 = perf_counter()
            out = run()
            dt = perf_counter() - t0
            err = None
        except Exception as exc:  # a raised exception is a failed op
            err = "raised %s: %s" % (type(exc).__name__, exc)
        finally:
            gc.enable()
            if tracer is not None:
                tracer.enabled = False
        if err is None:
            try:
                thorough = op.id not in answers
                digest = check(out, thorough)
                if thorough:
                    answers[op.id] = digest
                elif digest != answers[op.id]:
                    raise workloads.CheckError("answer differs from the first one")
            except Exception as exc:
                err = "check failed: %s: %s" % (type(exc).__name__, exc)
        if err is not None:
            failures.append("op %d (%s): %s" % (op.id, op.kind, err))
            dt = None
        lats.append(dt)
    return lats, failures, len(lats)


def best_latencies(passes):
    """Per op, the least latency over passes (the last one may have been
    cut short); None if it failed in any pass."""
    out = []
    for i in range(len(passes[0])):
        ts = [p[i] for p in passes if i < len(p)]
        out.append(None if None in ts else min(ts))
    return out


def summarize(lats):
    """op_p50_ms, op_tail_ms, tail percentile, ops_per_s over good ops."""
    good = sorted(t for t in lats if t is not None)
    n = len(good)
    if not n:
        return {"op_p50_ms": 0.0, "op_tail_ms": 0.0, "tail_pct": 0.0,
                "ops": 0, "ops_per_s": 0.0}
    k = max(n - 11, 0)  # leaves at least 10 ops beyond the tail
    return {
        "op_p50_ms": statistics.median(good) * 1e3,
        "op_tail_ms": good[k] * 1e3,
        "tail_pct": 100.0 * (k + 1) / n,
        "ops": n,
        "ops_per_s": n / sum(good),
    }


# -- per-layer metrics ------------------------------------------------------

def _calls(tr, name):
    return tr.stats.get(name, [0, 0.0])[0]


def _self(tr, name):
    return tr.stats.get(name, [0, 0.0])[1]


def _class_self(tr, prefix):
    return sum(st[1] for n, st in tr.stats.items() if n.startswith(prefix + "."))


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (unit, value from a tracer after one traced pass)
LAYER_METRICS = {}
for _cls, _ms in (("RationalField", ("mul", "add", "inv")),
                  ("ExtensionField", ("mul", "add", "inv", "frob")),
                  ("PrimeField", ("mul", "add"))):
    for _m in _ms:
        _n = "fields.%s.%s" % (_cls, _m)
        LAYER_METRICS[_n + ".calls"] = ("count", lambda tr, n=_n: _calls(tr, n))
    _p = "fields." + _cls
    LAYER_METRICS[_p + ".self_s"] = ("s", lambda tr, p=_p: _class_self(tr, p))
for _n in ("rings.BaseRing.mul", "rings.BaseRing.right_quo_rem",
           "rings.BaseRing.left_quo_rem", "matrices.mat_mul",
           "matrices.hermite_form", "matrices.solve_right",
           "matrices.smith_form", "modules.kmat_solve",
           "modules.kmat_nullspace", "modules.kmat_rank", "modules.kmat_inv",
           "factorizations.functors", "homotopy.stable_hom",
           "homotopy.HomSpace", "homotopy.factors_through_trivials",
           "chains.cok0", "chains.lift", "chains.chain_iso",
           "matrixring.phi", "matrixring.psi", "matrixring.validate_gamma",
           "cli.main"):
    LAYER_METRICS[_n + ".calls"] = ("count", lambda tr, n=_n: _calls(tr, n))
    LAYER_METRICS[_n + ".self_s"] = ("s", lambda tr, n=_n: _self(tr, n))
for _n in ("matrices.hermite_form.max_coeff_bits",
           "matrices.hermite_form.max_degree",
           "matrices.solve_right.unknowns", "matrices.solve_right.equations",
           "modules.kmat_solve.unknowns", "modules.kmat_solve.equations",
           "homotopy.verdicts.bounded", "jsonio.bytes_read",
           "jsonio.bytes_written"):
    LAYER_METRICS[_n] = ("count", lambda tr, n=_n: tr.counters.get(n, 0))
LAYER_METRICS.update({
    "factorizations.Factorization.compose_range.calls": (
        "count", lambda tr: _calls(tr, "factorizations.Factorization.compose_range")),
    "factorizations.Factorization.compose_range.hit_frac": (
        "ratio", lambda tr: _ratio(
            tr.counters.get("factorizations.Factorization.compose_range.hits", 0),
            _calls(tr, "factorizations.Factorization.compose_range"))),
    "homotopy.reconstruct_from_witness.calls": (
        "count", lambda tr: _calls(tr, "homotopy.reconstruct_from_witness")),
    "homotopy.decide.calls": ("count", lambda tr: _calls(tr, "homotopy.decide")),
    "homotopy.decide.assemble_s": ("s", lambda tr: tr.decide_split()[0]),
    "homotopy.decide.solve_s": ("s", lambda tr: tr.decide_split()[1]),
    "homotopy.decide.verify_s": ("s", lambda tr: tr.decide_split()[2]),
    "homotopy.probes_per_decide": (
        "ratio", lambda tr: _ratio(tr.decide_split()[3],
                                   _calls(tr, "homotopy.decide"))),
    "jsonio.read.self_s": ("s", lambda tr: _self(tr, "jsonio.read")),
    "jsonio.write.self_s": ("s", lambda tr: _self(tr, "jsonio.write")),
})
# tracing overhead: throughput of the untraced passes against the traced
# ones, each an op's least latency over two passes of one timing each
OVERHEAD_METRICS = {
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.slowdown": "ratio",
}

# per workload, the call counts that must be nonzero in a traced run: the
# layers bench/README.md says it loads. A zero means a wrapper was never
# reached, as when a module holds the function under a name that
# Tracer.install does not rebind
LOADED = {
    "decide-q": ["fields.RationalField.mul", "rings.BaseRing.mul",
                 "matrices.hermite_form", "matrices.solve_right",
                 "matrices.smith_form", "homotopy.decide",
                 "homotopy.reconstruct_from_witness", "homotopy.stable_hom",
                 "homotopy.HomSpace", "homotopy.factors_through_trivials"],
    "decide-skew": ["fields.ExtensionField.mul", "fields.ExtensionField.frob",
                    "fields.PrimeField.mul", "modules.kmat_solve",
                    "homotopy.decide", "homotopy.reconstruct_from_witness"],
    "cli-present": ["cli.main", "jsonio.read", "jsonio.write",
                    "factorizations.functors", "matrixring.phi",
                    "matrixring.psi", "matrixring.validate_gamma",
                    "chains.cok0", "chains.lift", "chains.chain_iso",
                    "modules.kmat_nullspace", "modules.kmat_inv",
                    "matrices.smith_form", "matrices.mat_mul",
                    "factorizations.Factorization.compose_range"],
}


def traced_run(workload, ops_path, workdir, ops, answers):
    """Two untraced passes, then two traced passes, each on fresh inputs
    and with one timing per op. Returns (per-layer metrics, attempted,
    failures, the tracer, the exact counters)."""
    import tracer as tracing
    import workloads
    untraced = []
    failures = []
    attempted = 0
    for i in range(2):
        if i:
            ops = workloads.load_pass(ops_path, workdir)
        lats, bad, ran = run_pass(ops, answers)
        untraced.append(lats)
        failures += bad
        attempted += ran
    untraced_rate = summarize(best_latencies(untraced))["ops_per_s"]
    tr = tracing.Tracer()
    tr.install()
    figures = []
    traced = []
    exact = []
    try:
        for _ in range(2):
            tr.reset()
            tr.op = -1  # loading the pass's inputs, outside any op
            tr.enabled = True
            try:
                ops = workloads.load_pass(ops_path, workdir)
            finally:
                tr.enabled = False
            lats, bad, ran = run_pass(ops, answers, tracer=tr)
            attempted += ran
            failures += bad
            traced.append(lats)
            figures.append({k: fn(tr) for k, (_, fn) in LAYER_METRICS.items()})
            exact.append(tr.exact())
    finally:
        tr.uninstall()
    unreached = [n for n in LOADED[workload] if not exact[0].get(n + ".calls")]
    if unreached:
        fail("traced layers never called on %s: %s"
             % (workload, ", ".join(unreached)), code=1)
    if exact[0] != exact[1]:
        diff = sorted(k for k in set(exact[0]) | set(exact[1])
                      if exact[0].get(k) != exact[1].get(k))
        fail("exact counters differ between two traced passes of one seed: %s"
             % ", ".join(diff), code=1)
    metrics = {}
    for k, (unit, _) in LAYER_METRICS.items():
        vals = [f[k] for f in figures]
        metrics[k] = {"value": min(vals) if unit == "s" else vals[-1],
                      "unit": unit}
    traced_rate = summarize(best_latencies(traced))["ops_per_s"]
    overhead = {"trace.ops_per_s_untraced": untraced_rate,
                "trace.ops_per_s_traced": traced_rate,
                "trace.slowdown": untraced_rate / traced_rate}
    for k, unit in OVERHEAD_METRICS.items():
        metrics[k] = {"value": overhead[k], "unit": unit}
    return metrics, attempted, failures, tr, exact[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "modfact", "__init__.py")):
        fail("no modfact package under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r; choose from %s"
             % (args.workload, ", ".join(workloads.WORKLOADS)))

    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    try:
        import_modfact()
        ops_path = workloads.generate(args.workload, args.seed, workdir)
        canary_before = canary()
        setup_times = []
        for _ in range(SETUPS):
            dt, ops = setup(ops_path, workdir)
            setup_times.append(dt)
        answers = {}
        if args.trace:
            metrics, attempted, failures, tr, exact = traced_run(
                args.workload, ops_path, workdir, ops, answers)
            tr.write_spans(os.path.join(WORK, "spans-%s.jsonl" % args.workload))
            # the in-process check above cannot see nondeterminism between
            # processes (hash-seed-dependent order, say); two runs of one
            # seed print the same digest and write the same file
            blob = json.dumps(exact, sort_keys=True)
            with open(os.path.join(WORK, "exact-%s-%d.json"
                                   % (args.workload, args.seed)), "w") as fh:
                fh.write(blob + "\n")
            exact_digest = hashlib.sha256(blob.encode()).hexdigest()
            summary = None
        else:
            # at least two passes; after that the pass in flight stops at
            # the deadline
            passes = []
            failures = []
            attempted = 0
            deadline = perf_counter() + args.seconds
            while len(passes) < 2 or perf_counter() < deadline:
                if passes:
                    # a later pass loads its inputs by a full set-up, so
                    # that the set-up timings spread over the run as the
                    # op timings do
                    dt, ops = setup(ops_path, workdir)
                    setup_times.append(dt)
                lats, bad, ran = run_pass(
                    ops, answers,
                    deadline=deadline if len(passes) >= 2 else None)
                passes.append(lats)
                failures += bad
                attempted += ran
            summary = summarize(best_latencies(passes))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "op_p50_ms": {"value": summary["op_p50_ms"], "unit": "ms"},
                "op_tail_ms": {"value": summary["op_tail_ms"], "unit": "ms"},
                "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
        canary_after = canary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print("FAILED %s" % line)
    print("workload=%s seed=%d ops=%d attempted=%d failed=%d failed_frac=%.6g"
          % (args.workload, args.seed, len(ops), attempted, len(failures),
             len(failures) / attempted))
    if summary is not None:
        print("passes=%d, %d of them complete; tail=p%.1f of %d ops"
              % (len(passes), sum(len(p) == len(ops) for p in passes),
                 summary["tail_pct"], summary["ops"]))
    print("canary_s before=%.4f after=%.4f (fixed Fraction loop; host speed, "
          "not a program metric)" % (canary_before, canary_after))
    if args.trace:
        print("exact_counters sha256=%s" % exact_digest)
    for name, m in metrics.items():
        print("%-56s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
