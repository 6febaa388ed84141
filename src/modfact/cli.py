"""Command line surface.

Every verb reads exact JSON artifacts, runs the requested check or
construction, and emits a machine-readable JSON report (stdout, or the
--json target) plus a short human summary on stderr.  Reports carry no
timestamps, so a fixed seed gives byte-identical output.

Each verb declares only the options it reads.  All take --ring and
--json.  functor adds --i/--a, lift adds --n, chain-iso adds --seed, and
the randomized verbs recollement and laws add the sampling flags --seed,
--max-rank, --max-deg and --cases (laws also --suite and --n).  Any
other flag is a usage error.

Exit codes: 0 pass, 2 property failure, 3 input error, 4 unsupported
ring operation, 5 chain-iso found no isomorphism within its search
budget and could not rule one out. Homotopy verdicts are definitive on
every ring, so homotopy-check, stably-zero and recollement end in 0 or 2.
"""

import argparse
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
from .chains import cok0, lift, chain_iso, chain_is_mono
from .recollement import recollement
from .laws import Scenario, run_suites, suite_names
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


def _scenario(args, folds=(1, 2, 3, 4)):
    return Scenario(_ring_for(args), seed=args.seed, folds=folds,
                    max_rank=args.max_rank, max_deg=args.max_deg,
                    cases=args.cases)


def _maybe_ring(args):
    return jsonio.load_ring(args.ring) if args.ring else None


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
        elif kind == "chain":
            defects = []
            if not obj.check_torsion():
                defects.append("a module is not killed by omega")
            mono, slot = chain_is_mono(obj)
            if not mono:
                defects.append("chain map into slot %s is not injective" % slot)
            entry["valid"] = not defects
            entry["defects"] = defects
        else:
            raise jsonio.InputError("%s: cannot validate kind %r" % (path, kind))
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
    x = jsonio.load_factorization(args.path_x, ring)
    y = jsonio.load_factorization(args.path_y, ring or x.ring)
    if x.ring != y.ring:
        raise jsonio.InputError("the two objects live over different rings")
    report = {"command": "stable-hom", "report": stable_hom(x, y).to_json()}
    names = report["report"]["invariant_factors_pretty"]
    human = ["stable hom module: %s" % (" + ".join(names) if names else "0")]
    return PASS, report, human


def cmd_stably_zero(args):
    ring = _maybe_ring(args)
    x = jsonio.load_factorization(args.path, ring)
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
    x = lift(c, args.n if args.n else None)
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


def cmd_recollement(args):
    sc = _scenario(args)
    rec = recollement(args.fold, args.level)
    rng = random.Random("%s:recollement:%d:%d" % (sc.seed, args.fold,
                                                  args.level))
    checks = {"section_identities": 0, "section_identities_morphism": 0,
              "triangles": 0, "kernel_stably_zero": 0}
    failures = []
    if args.path:
        zs = [jsonio.load_factorization(args.path, sc.ring)]
    else:
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
        if rec.section_identities(x):
            checks["section_identities"] += 1
        else:
            failures.append("quotient of the section is not the identity")
        if rec.section_identities_morphism(f):
            checks["section_identities_morphism"] += 1
        else:
            failures.append("section identities fail on a morphism")
        if rec.triangles(x, y):
            checks["triangles"] += 1
        else:
            failures.append("an adjunction triangle identity fails")
        if rec.kernel_stably_zero(z).null:
            checks["kernel_stably_zero"] += 1
        else:
            failures.append("an included object survives the quotient")
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
    sc = _scenario(args, (args.n,)) if args.n else _scenario(args)
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


def build_parser():
    top = _Parser(
        prog="modfact",
        description="exact computations with n-fold factorizations of a "
                    "normal ring element")
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name, fn, summary):
        # every verb reads --ring and --json; the others are added per verb
        p = sub.add_parser(name, help=summary)
        p.add_argument("--ring", metavar="FILE",
                       help="ring description JSON; falls back to a ring "
                            "embedded in the input, or rationals with x^3")
        p.add_argument("--json", metavar="OUT", default="-",
                       help="write the JSON report here (default stdout)")
        p.set_defaults(fn=fn)
        return p

    def sampling(p):
        p.add_argument("--seed", type=int, default=0, metavar="N")
        p.add_argument("--max-rank", type=int, default=3, metavar="R")
        p.add_argument("--max-deg", type=int, default=2, metavar="D")
        p.add_argument("--cases", type=int, default=24, metavar="C",
                       help="randomized cases")

    p = verb("validate", cmd_validate, "check rotation/square/module axioms")
    p.add_argument("paths", nargs="+", metavar="PATH")

    p = verb("functor", cmd_functor, "apply shift/face/degeneracy functors")
    p.add_argument("name", choices=sorted(_FUNCTORS))
    p.add_argument("path", metavar="PATH")
    p.add_argument("--i", type=int, default=None,
                   help="slot index (face, degeneracy)")
    p.add_argument("--a", type=int, default=None,
                   help="shift power (shift-power)")

    p = verb("homotopy-check", cmd_homotopy_check,
             "decide null homotopy and return a witness")
    p.add_argument("path", metavar="MORPHISM")

    p = verb("stable-hom", cmd_stable_hom,
             "invariant factors of the stable hom module")
    p.add_argument("path_x", metavar="X")
    p.add_argument("path_y", metavar="Y")

    p = verb("stably-zero", cmd_stably_zero, "is the identity null homotopic")
    p.add_argument("path", metavar="X")

    p = verb("cok0", cmd_cok0, "quotient chain of a factorization")
    p.add_argument("path", metavar="X")

    p = verb("lift", cmd_lift, "rebuild a factorization from a chain")
    p.add_argument("path", metavar="CHAIN")
    p.add_argument("--n", type=int, default=0, metavar="N",
                   help="fold count of the result (0 = the chain's)")

    p = verb("chain-iso", cmd_chain_iso, "search for a chain isomorphism")
    p.add_argument("path_c", metavar="C")
    p.add_argument("path_d", metavar="D")
    p.add_argument("--seed", type=int, default=0, metavar="N",
                   help="seed of the search over chain maps")

    p = verb("phi", cmd_phi, "factorization to matrix-ring module")
    p.add_argument("path", metavar="X")

    p = verb("psi", cmd_psi, "matrix-ring module to factorization")
    p.add_argument("path", metavar="GAMMA")

    p = verb("recollement", cmd_recollement,
             "randomized checks of the quotient/section/inclusion identities")
    p.add_argument("fold", type=int, metavar="N")
    p.add_argument("level", type=int, metavar="K")
    p.add_argument("path", nargs="?", default=None, metavar="Z",
                   help="optional object to push through the inclusion")
    sampling(p)

    p = verb("laws", cmd_laws, "run the randomized law suites")
    p.add_argument("--suite", metavar="TAGS",
                   help="comma-separated suite names (default: all; known: %s)"
                        % ", ".join(suite_names()))
    p.add_argument("--n", type=int, default=0, metavar="N",
                   help="fold count of generated objects (0 = mix of 1..4)")
    sampling(p)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, report, human = args.fn(args)
    except UnsupportedRingError as e:
        print("unsupported ring operation: %s" % e, file=sys.stderr)
        return BAD_RING
    except (ValueError, OSError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return BAD_INPUT
    report["exit_code"] = code
    if args.json == "-":
        jsonio.write_json(report)
        out = sys.stderr
    else:
        jsonio.write_json(report, args.json)
        out = sys.stdout
    for line in human:
        print(line, file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
