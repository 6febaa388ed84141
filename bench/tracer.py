"""Outside tracing of modfact's layers, installed only for a traced run.

``Tracer.install`` rebinds each traced public function in every modfact
module that holds it (so ``modfact.homotopy.solve_right`` and
``modfact.matrices.solve_right`` both reach the wrapper) and wraps the
traced class methods in place. Nothing under ``src/`` changes.

Every wrapped call is a frame on one stack; a frame's self time is its
duration minus the time its wrapped children cover. Calls above the
field and ring layers are also kept as spans (id, parent, name, start,
end, op) in memory and written out by ``write_spans`` at the end; field
and ring calls number in the millions per pass, so they are only
aggregated (calls and self time). Exact counters (calls, system shapes,
coefficient sizes, cache hits, bytes) sit beside the times; they must
repeat exactly across two traced passes of one seed.
"""

import functools
import json
import os
import sys
from time import perf_counter


def _fraction_bits(c):
    num = getattr(c, "numerator", None)
    if num is None:
        return 0
    return max(abs(num).bit_length(), c.denominator.bit_length())


def _matrix_sizes(mats):
    """(max coefficient bits, max degree) over matrices of polynomials."""
    bits = 0
    deg = -1
    for m in mats:
        for row in m:
            for p in row:
                if len(p) - 1 > deg:
                    deg = len(p) - 1
                for c in p:
                    b = _fraction_bits(c)
                    if b > bits:
                        bits = b
    return bits, deg


def _hermite_after(tr, args, out):
    h, u, _ = out
    bits, deg = _matrix_sizes((h, u))
    tr.maximum("matrices.hermite_form.max_coeff_bits", bits)
    tr.maximum("matrices.hermite_form.max_degree", deg)


def _solve_shape(prefix):
    # X * m = rhs: one unknown per row of m, one equation per column
    def before(tr, args):
        m = args[1]
        tr.count(prefix + ".unknowns", len(m))
        tr.count(prefix + ".equations", len(m[0]) if m else 0)
    return before


def _compose_before(tr, args):
    x, i, j = args
    if (i, j) in x._ranges:
        tr.count("factorizations.Factorization.compose_range.hits", 1)


def _read_before(tr, args):
    tr.count("jsonio.bytes_read", os.path.getsize(args[0]))


def _write_after(tr, args, out):
    path = args[1] if len(args) > 1 else None
    if path not in (None, "-"):
        tr.count("jsonio.bytes_written", os.path.getsize(path))


def _verdict_after(tr, args, out):
    if out.bounded:
        tr.count("homotopy.verdicts.bounded", 1)


# (module, name, trace name, before hook, after hook); every call is kept
# as a span
FUNCTIONS = [
    ("matrices", "mat_mul", "matrices.mat_mul", None, None),
    ("matrices", "hermite_form", "matrices.hermite_form", None,
     _hermite_after),
    ("matrices", "solve_right", "matrices.solve_right",
     _solve_shape("matrices.solve_right"), None),
    ("matrices", "smith_form", "matrices.smith_form", None, None),
    ("modules", "kmat_solve", "modules.kmat_solve",
     _solve_shape("modules.kmat_solve"), None),
    ("modules", "kmat_nullspace", "modules.kmat_nullspace", None, None),
    ("modules", "kmat_rank", "modules.kmat_rank", None, None),
    ("modules", "kmat_inv", "modules.kmat_inv", None, None),
    ("homotopy", "is_p_null_homotopic", "homotopy.decide", None,
     _verdict_after),
    ("homotopy", "factors_through_trivials",
     "homotopy.factors_through_trivials", None, None),
    ("homotopy", "reconstruct_from_witness",
     "homotopy.reconstruct_from_witness", None, None),
    ("homotopy", "stable_hom", "homotopy.stable_hom", None, None),
    ("chains", "cok0", "chains.cok0", None, None),
    ("chains", "lift", "chains.lift", None, None),
    ("chains", "chain_iso", "chains.chain_iso", None, None),
    ("matrixring", "phi", "matrixring.phi", None, None),
    ("matrixring", "psi", "matrixring.psi", None, None),
    ("matrixring", "validate_gamma", "matrixring.validate_gamma", None,
     None),
    ("jsonio", "read_json", "jsonio.read", _read_before, None),
    ("jsonio", "write_json", "jsonio.write", None, _write_after),
    ("cli", "main", "cli.main", None, None),
]
FUNCTIONS += [("factorizations", name, "factorizations.functors", None, None)
              for name in ("shift", "shift_morphism", "shift_inverse",
                           "shift_inverse_morphism", "face", "face_morphism",
                           "degeneracy", "degeneracy_morphism")]

# (module, class, method, trace name, keep spans, before hook)
METHODS = [
    ("fields", "RationalField", m, "fields.RationalField." + m, False, None)
    for m in ("add", "sub", "mul", "inv")
] + [
    ("fields", "ExtensionField", m, "fields.ExtensionField." + m, False, None)
    for m in ("add", "sub", "mul", "inv", "frob")
] + [
    ("fields", "PrimeField", m, "fields.PrimeField." + m, False, None)
    for m in ("add", "sub", "mul", "inv")
] + [
    ("rings", "BaseRing", m, "rings.BaseRing." + m, False, None)
    for m in ("mul", "right_quo_rem", "left_quo_rem")
] + [
    ("factorizations", "Factorization", "compose_range",
     "factorizations.Factorization.compose_range", True, _compose_before),
    ("homotopy", "HomSpace", "__init__", "homotopy.HomSpace", True, None),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self._installed = []
        self.reset()

    def reset(self):
        self.stack = []
        self.stats = {}      # trace name -> [calls, self seconds]
        self.counters = {}   # exact counters beyond call counts
        self.spans = []      # [id, parent id, name, start, end, op]

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name, value):
        if value > self.counters.get(name, -1):
            self.counters[name] = value

    def _wrap(self, fn, name, keep, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][2] if stack else None
            if before is not None:
                tracer.enabled = False
                before(tracer, args)
                tracer.enabled = True
            if keep:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            else:
                sid = parent
            frame = [perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                stat = tracer.stats.get(name)
                if stat is None:
                    stat = tracer.stats[name] = [0, 0.0]
                stat[0] += 1
                stat[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    tracer.spans[sid] = [sid, parent, name, frame[0], end,
                                         tracer.op]
            if after is not None:
                # hook time is charged to nobody: hide it from the parent
                t0 = perf_counter()
                tracer.enabled = False
                after(tracer, args, out)
                tracer.enabled = True
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return out

        return wrapper

    def install(self):
        """Rebind every traced name in every loaded modfact module, also
        where a module-level dict holds the function, alone or in a tuple
        (as ``cli._FUNCTORS`` does)."""
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "modfact" or k.startswith("modfact.")]
        for mod_name, fn_name, name, before, after in FUNCTIONS:
            orig = getattr(sys.modules["modfact." + mod_name], fn_name)
            wrapper = self._wrap(orig, name, True, before, after)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if isinstance(item, tuple) and any(v is orig for v in item):
                                item = tuple(wrapper if v is orig else v for v in item)
                                self._set(value, key, item)
                            elif item is orig:
                                self._set(value, key, wrapper)
        for mod_name, cls_name, meth, name, keep, before in METHODS:
            cls = getattr(sys.modules["modfact." + mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._set(cls, meth, self._wrap(orig, name, keep, before))

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._installed.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._installed.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._installed = []

    # -- derived figures --------------------------------------------------

    def decide_split(self):
        """(assemble_s, solve_s, verify_s, probes) summed over decide spans.

        solve: solve_right/kmat_solve spans inside a decide span; verify:
        reconstruct_from_witness spans that start after the decide's last
        solve ends; assemble: the remaining reconstruct_from_witness time.
        """
        spans = self.spans
        per = {}
        for s in spans:
            if s[2] not in ("matrices.solve_right", "modules.kmat_solve",
                            "homotopy.reconstruct_from_witness"):
                continue
            p = s[1]
            inner_solve = False
            while p is not None and spans[p][2] != "homotopy.decide":
                if spans[p][2] in ("matrices.solve_right", "modules.kmat_solve"):
                    inner_solve = True
                p = spans[p][1]
            if p is None or inner_solve:
                continue
            per.setdefault(p, []).append(s)
        assemble = solve = verify = 0.0
        probes = 0
        for inner in per.values():
            solves = [s for s in inner if s[2] != "homotopy.reconstruct_from_witness"]
            last = max((s[4] for s in solves), default=float("-inf"))
            solve += sum(s[4] - s[3] for s in solves)
            for s in inner:
                if s[2] == "homotopy.reconstruct_from_witness":
                    probes += 1
                    if s[3] >= last:
                        verify += s[4] - s[3]
                    else:
                        assemble += s[4] - s[3]
        return assemble, solve, verify, probes

    def exact(self):
        """Every counter that must repeat exactly for one seed."""
        out = {name + ".calls": st[0] for name, st in self.stats.items()}
        out.update(self.counters)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
