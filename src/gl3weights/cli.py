"""Command-line entry points.

Every invocation emits a single JSON document on stdout (except
`cycle --dot`, which emits DOT text), with keys sorted and no incidental
whitespace, so equal inputs produce byte-identical outputs.  Exit codes:
0 success, 1 domain error or sweep failure (machine-readable error
object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .arith import DIVISIBLE, decompose_exponent
from .breuil import (
    inertial_character,
    is_maximal,
    is_minimal,
    maximal_model,
    validate,
)
from .cycling import CyclingGraph, cycle, emit_dot
from .elimination import BRANCH_INTERSECTION, eliminate
from .predicted import enumerate_predicted
from .tame_types import ORDER_THREE_CYCLES, TameType, tau, type_from_exponent
from .weights import WeightClass, alcove, canonicalize, dim_weight
from . import sweeps

SCHEMA_VERSION = 1


def _dump(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _ints(text: str, n: int, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")
    if len(parts) != n:
        raise ValueError(f"{what} must have {n} entries, got {len(parts)}")
    return parts


def _type_from_params(params: dict, p: int) -> TameType:
    desc = params.get("type")
    if not isinstance(desc, dict):
        raise ValueError("missing type description")
    if "orbit_rep" in desc:
        return type_from_exponent(p, int(desc["orbit_rep"]))
    if "xi" in desc and "mu" in desc:
        xi = str(desc["xi"])
        if xi not in ORDER_THREE_CYCLES:
            raise ValueError(f"xi must be one of {ORDER_THREE_CYCLES}")
        mu = tuple(int(v) for v in desc["mu"])
        if len(mu) != 3:
            raise ValueError("mu must have 3 entries")
        return tau(xi, mu, p)
    raise ValueError("type needs either orbit_rep or xi and mu")


def _weight_from_params(params: dict, p: int, key: str = "weight") -> WeightClass:
    coords = params.get(key)
    if not isinstance(coords, (list, tuple)) or len(coords) != 3:
        raise ValueError(f"{key} must be a list of 3 integers")
    return canonicalize(tuple(int(v) for v in coords), p)


def _weight_doc(w: WeightClass) -> list[int]:
    return list(w.coords)


def _type_doc(t: TameType) -> dict:
    doc: dict[str, Any] = {"p": t.p, "niveau": t.niveau}
    if t.is_irreducible():
        doc["orbit_rep"] = t.orbit_rep()
    else:
        doc["orbit_reps"] = sorted(o.rep for o in t.chars)
    return doc


def handle_decompose(params: dict) -> dict:
    d = decompose_exponent(int(params["n"]), int(params["p"]))
    if d.kind == DIVISIBLE:
        return {"case": DIVISIBLE}
    return {"case": d.kind, "x": d.x, "y": d.y, "z": d.z}


def handle_dims(params: dict) -> dict:
    p = int(params["p"])
    w = _weight_from_params(params, p)
    return {"p": p, "F": _weight_doc(w), "dim": dim_weight(w), "alcove": alcove(w)}


def handle_predict(params: dict) -> dict:
    p = int(params["p"])
    t = _type_from_params(params, p)
    pred = enumerate_predicted(t)
    return {
        "p": p,
        "type": _type_doc(t),
        "weights": [_weight_doc(w) for w in pred.sorted_weights()],
    }


def handle_eliminate(params: dict) -> dict:
    p = int(params["p"])
    w = _weight_from_params(params, p)
    t = _type_from_params(params, p)
    report = eliminate(w, t)
    doc: dict[str, Any] = {
        "p": p,
        "F": _weight_doc(w),
        "type": _type_doc(t),
        "branch": report.branch,
        "verdict": report.verdict,
        "matched_orbit": report.matched_orbit,
    }
    if report.branch == BRANCH_INTERSECTION:
        doc["lift_sets"] = {kind: sorted(reps) for kind, reps in report.lift_sets}
        doc["intersection"] = sorted(report.intersection)
    return doc


def _graph_doc(g: CyclingGraph) -> dict:
    return {
        "p": g.p,
        "case": g.case,
        "params": list(g.params),
        "start": _weight_doc(g.start),
        "status": g.status,
        "stuck": None if g.stuck_node is None else {
            "node": _weight_doc(g.stuck_node), "reason": g.stuck_reason,
        },
        "nodes": sorted(_weight_doc(w) for w in g.nodes),
        "edges": [
            {"from": _weight_doc(u), "to": _weight_doc(v), "op": j}
            for u, v, j in sorted(
                g.edges, key=lambda e: (e[0].coords, e[1].coords, e[2])
            )
        ],
        "non_singletons": [
            {"at": _weight_doc(w), "op": j, "members": [_weight_doc(v) for v in vs]}
            for w, j, vs in sorted(
                g.non_singletons, key=lambda s: (s[0].coords, s[1])
            )
        ],
        "families": [
            {"F": _weight_doc(w), "family": name} for w, name in g.families
        ],
    }


def handle_cycle(params: dict) -> dict | str:
    p = int(params["p"])
    t = _type_from_params(params, p)
    start = _weight_from_params(params, p, key="start")
    g = cycle(t, start)
    if params.get("dot"):
        return emit_dot(g)
    return _graph_doc(g)


def handle_breuil(params: dict) -> dict:
    p, d, r = int(params["p"]), int(params["d"]), int(params["r"])
    heights = tuple(int(v) for v in params["heights"])
    if "exponents" in params and params["exponents"] is not None:
        exponents = tuple(int(v) for v in params["exponents"])
    else:
        k = [int(params["k0"])]
        for i in range(1, d):
            k.append(p * (k[-1] + heights[i - 1]) % (p**d - 1))
        exponents = tuple(k)
    m = validate(p, d, r, heights, exponents)
    mx = maximal_model(m)
    return {
        "p": p,
        "d": d,
        "r": r,
        "heights": list(m.heights),
        "exponents": list(m.exponents),
        "kappa0": inertial_character(m).value,
        "is_maximal": is_maximal(m),
        "is_minimal": is_minimal(m),
        "maximal_model": {
            "heights": list(mx.heights),
            "exponents": list(mx.exponents),
        },
    }


def handle_sweep(params: dict) -> dict:
    name = str(params.get("suite", "decompose"))
    p = int(params.get("p", 7))
    seed = int(params.get("seed", 0))
    count = int(params.get("count", 200))
    jobs = int(params.get("jobs", 1))
    checks, failures = sweeps.run_suite_parallel(name, p, seed, count, jobs)
    return {
        "suite": name,
        "p": p,
        "seed": seed,
        "count": count,
        "checks": checks,
        "failures": failures,
    }


HANDLERS = {
    "decompose": handle_decompose,
    "dims": handle_dims,
    "predict": handle_predict,
    "eliminate": handle_eliminate,
    "cycle": handle_cycle,
    "breuil": handle_breuil,
    "sweep": handle_sweep,
}


def _add_type_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--xi", choices=ORDER_THREE_CYCLES, help="order-3 cycle")
    sub.add_argument("--mu", help="comma-separated coordinate triple")
    sub.add_argument("--orbit-rep", type=int, dest="orbit_rep",
                     help="niveau-3 exponent orbit representative")


def _type_params(args: argparse.Namespace) -> dict:
    if args.orbit_rep is not None:
        return {"orbit_rep": args.orbit_rep}
    if args.xi is not None and args.mu is not None:
        return {"xi": args.xi, "mu": list(_ints(args.mu, 3, "--mu"))}
    raise ValueError("give a type via --orbit-rep or --xi with --mu")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3weights",
        description="Exact weight combinatorics for rank-3 mod-p types",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("decompose", help="three-digit split of an exponent")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = subs.add_parser("dims", help="dimension and alcove of a weight")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True, help="comma-separated weight coordinates")

    sp = subs.add_parser("predict", help="predicted weights of a type")
    sp.add_argument("--p", type=int, required=True)
    _add_type_flags(sp)

    sp = subs.add_parser("eliminate", help="test a weight against a type")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True, help="comma-separated weight coordinates")
    _add_type_flags(sp)

    sp = subs.add_parser("cycle", help="weight-cycling closure from a start weight")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--start", required=True, help="comma-separated start weight")
    sp.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    _add_type_flags(sp)

    sp = subs.add_parser("breuil", help="rank-one module invariants")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--heights", required=True, help="comma-separated heights r_i")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--exponents", help="comma-separated descent exponents k_i")
    group.add_argument("--k0", type=int, help="first exponent; the rest follow")

    sp = subs.add_parser("sweep", help="run an invariant sweep")
    sp.add_argument("--suite", default="decompose", choices=sorted(sweeps.SUITES))
    sp.add_argument("--p", type=int, default=7)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--jobs", type=int, default=1)

    subs.add_parser("query", help="read a JSON envelope from stdin")
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    cmd = args.command
    if cmd == "decompose":
        return {"n": args.n, "p": args.p}
    if cmd == "dims":
        return {"p": args.p, "weight": list(_ints(args.F, 3, "--F"))}
    if cmd == "predict":
        return {"p": args.p, "type": _type_params(args)}
    if cmd == "eliminate":
        return {
            "p": args.p,
            "weight": list(_ints(args.F, 3, "--F")),
            "type": _type_params(args),
        }
    if cmd == "cycle":
        return {
            "p": args.p,
            "start": list(_ints(args.start, 3, "--start")),
            "type": _type_params(args),
            "dot": args.dot,
        }
    if cmd == "breuil":
        params: dict[str, Any] = {
            "p": args.p,
            "d": args.d,
            "r": args.r,
            "heights": list(_ints(args.heights, args.d, "--heights")),
        }
        if args.exponents is not None:
            params["exponents"] = list(_ints(args.exponents, args.d, "--exponents"))
        else:
            params["k0"] = args.k0
        return params
    if cmd == "sweep":
        return {
            "suite": args.suite,
            "p": args.p,
            "seed": args.seed,
            "count": args.count,
            "jobs": args.jobs,
        }
    raise ValueError(f"unknown command {cmd!r}")


def _read_envelope(stream) -> tuple[str, dict]:
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
        raise SystemExit(_usage_error(f"malformed JSON envelope: {exc}"))
    if not isinstance(doc, dict):
        raise SystemExit(_usage_error("envelope must be a JSON object"))
    version = doc.get("version")
    # type(), not isinstance(): True == 1, but a boolean is not a version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SystemExit(_usage_error(f"unsupported envelope version {version!r}"))
    command = doc.get("command")
    if command not in HANDLERS:
        raise SystemExit(_usage_error(f"unknown command {command!r}"))
    params = doc.get("params")
    if not isinstance(params, dict):
        raise SystemExit(_usage_error("envelope params must be an object"))
    return command, params


def _usage_error(message: str) -> int:
    print(f"gl3weights: error: {message}", file=sys.stderr)
    return 2


def run(argv: list[str] | None = None, stdin=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "query":
        command, params = _read_envelope(stdin or sys.stdin)
    else:
        command = args.command
        try:
            params = _params_from_args(args)
        except ValueError as exc:
            return _usage_error(str(exc))
    try:
        result = HANDLERS[command](params)
    except (ValueError, KeyError, ArithmeticError, RuntimeError) as exc:
        print(_dump({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    if isinstance(result, str):
        sys.stdout.write(result)
        return 0
    print(_dump(result))
    if command == "sweep" and result.get("failures"):
        return 1
    return 0


def main() -> None:
    sys.exit(run())
