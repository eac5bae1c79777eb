"""Command-line entry points.

Every invocation emits a single JSON document on stdout (except
`cycle --dot`, which emits DOT text), with keys sorted and no incidental
whitespace, so equal inputs produce byte-identical outputs.  Exit codes:
0 success, 1 domain error or sweep failure (machine-readable error
object on stdout), 2 usage error: a malformed envelope, a missing
parameter or a value of the wrong JSON type (nothing on stdout).

Each handler imports the layers it needs when it runs, so a command
loads only its own part of the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .cycling import CyclingGraph
    from .tame_types import TameType
    from .weights import WeightClass

SCHEMA_VERSION = 1
# literal copies of tame_types.ORDER_THREE_CYCLES and sorted(sweeps.SUITES),
# so that building the parser imports neither (a test keeps them equal)
XI_CHOICES = ("123", "132")
SUITE_NAMES = (
    "breuil", "candidates", "cycling", "decompose", "elimination",
    "orbits", "predicted", "slopes", "tame", "weights",
)


class UsageError(ValueError):
    """A missing parameter or a value of the wrong type: exit 2."""


def _dump(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _ints(text: str, n: int, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")
    if len(parts) != n:
        raise UsageError(f"{what} must have {n} entries, got {len(parts)}")
    return parts


def _param(params: dict, key: str) -> Any:
    if key not in params:
        raise UsageError(f"missing parameter {key!r}")
    return params[key]


def _int(params: dict, key: str, default: int | None = None) -> int:
    """params[key], which must be a JSON integer; a default makes it optional."""
    value = _param(params, key) if default is None else params.get(key, default)
    # type(), not isinstance(): True is an int, but not an integer input
    if type(value) is not int:
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return value


def _int_list(params: dict, key: str, n: int) -> tuple[int, ...]:
    value = _param(params, key)
    if (not isinstance(value, list) or len(value) != n
            or any(type(v) is not int for v in value)):
        raise UsageError(f"{key} must be a list of {n} integers, got {value!r}")
    return tuple(value)


def _type_spec(params: dict) -> dict:
    """The type description, checked for shape only."""
    desc = _param(params, "type")
    if not isinstance(desc, dict):
        raise UsageError("type must be an object")
    if "orbit_rep" in desc:
        return {"orbit_rep": _int(desc, "orbit_rep")}
    if "xi" in desc and "mu" in desc:
        if not isinstance(desc["xi"], str):
            raise UsageError(f"xi must be a string, got {desc['xi']!r}")
        return {"xi": desc["xi"], "mu": _int_list(desc, "mu", 3)}
    raise UsageError("type needs either orbit_rep or xi and mu")


def _build_type(spec: dict, p: int) -> TameType:
    from .tame_types import tau, type_from_exponent

    if "orbit_rep" in spec:
        return type_from_exponent(p, spec["orbit_rep"])
    return tau(spec["xi"], spec["mu"], p)


def _weight_doc(w: WeightClass) -> list[int]:
    return list(w.coords)


def _type_doc(t: TameType) -> dict:
    doc: dict[str, Any] = {"p": t.p, "niveau": t.niveau}
    if t.is_irreducible():
        doc["orbit_rep"] = t.orbit_rep()
    else:
        doc["orbit_reps"] = sorted(o.rep for o in t.chars)
    return doc


# Handlers check the shape of every parameter before calling the
# library, so a usage error is reported ahead of any domain error.

def handle_decompose(params: dict) -> dict:
    from .arith import DIVISIBLE, decompose_exponent

    d = decompose_exponent(_int(params, "n"), _int(params, "p"))
    if d.kind == DIVISIBLE:
        return {"case": DIVISIBLE}
    return {"case": d.kind, "x": d.x, "y": d.y, "z": d.z}


def handle_dims(params: dict) -> dict:
    from .weights import alcove, canonicalize, dim_weight

    p, coords = _int(params, "p"), _int_list(params, "weight", 3)
    w = canonicalize(coords, p)
    return {"p": p, "F": _weight_doc(w), "dim": dim_weight(w), "alcove": alcove(w)}


def handle_predict(params: dict) -> dict:
    from .predicted import enumerate_predicted

    p, spec = _int(params, "p"), _type_spec(params)
    t = _build_type(spec, p)
    pred = enumerate_predicted(t)
    return {
        "p": p,
        "type": _type_doc(t),
        "weights": [_weight_doc(w) for w in pred.sorted_weights()],
    }


def handle_eliminate(params: dict) -> dict:
    from .elimination import BRANCH_INTERSECTION, eliminate
    from .weights import canonicalize

    p, coords, spec = _int(params, "p"), _int_list(params, "weight", 3), _type_spec(params)
    w = canonicalize(coords, p)
    t = _build_type(spec, p)
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
    from .cycling import cycle, emit_dot
    from .weights import canonicalize

    p, coords, spec = _int(params, "p"), _int_list(params, "start", 3), _type_spec(params)
    dot = params.get("dot", False)
    if not isinstance(dot, bool):
        raise UsageError(f"dot must be true or false, got {dot!r}")
    g = cycle(_build_type(spec, p), canonicalize(coords, p))
    if dot:
        return emit_dot(g)
    return _graph_doc(g)


def handle_breuil(params: dict) -> dict:
    from .breuil import inertial_character, is_maximal, is_minimal, maximal_model, validate

    p, d, r = _int(params, "p"), _int(params, "d"), _int(params, "r")
    heights = _int_list(params, "heights", d)
    if params.get("exponents") is not None:
        exponents = _int_list(params, "exponents", d)
    else:
        k = [_int(params, "k0")]
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
    from .sweeps import run_suite_parallel

    name = params.get("suite", "decompose")
    if not isinstance(name, str):
        raise UsageError(f"suite must be a string, got {name!r}")
    p = _int(params, "p", 7)
    seed = _int(params, "seed", 0)
    count = _int(params, "count", 200)
    jobs = _int(params, "jobs", 1)
    checks, failures = run_suite_parallel(name, p, seed, count, jobs)
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
    sub.add_argument("--xi", choices=XI_CHOICES, help="order-3 cycle")
    sub.add_argument("--mu", help="comma-separated coordinate triple")
    sub.add_argument("--orbit-rep", type=int, dest="orbit_rep",
                     help="niveau-3 exponent orbit representative")


def _type_params(args: argparse.Namespace) -> dict:
    if args.orbit_rep is not None:
        return {"orbit_rep": args.orbit_rep}
    if args.xi is not None and args.mu is not None:
        return {"xi": args.xi, "mu": list(_ints(args.mu, 3, "--mu"))}
    raise UsageError("give a type via --orbit-rep or --xi with --mu")


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
    sp.add_argument("--suite", default="decompose", choices=SUITE_NAMES)
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
    raise UsageError(f"unknown command {cmd!r}")


def _read_envelope(stream) -> tuple[str, dict]:
    try:
        doc = json.load(stream)
    # ValueError covers bad JSON, bad UTF-8 and over-long integer literals
    except (ValueError, RecursionError) as exc:
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
    args = build_parser().parse_args(argv)
    try:
        if args.command == "query":
            command, params = _read_envelope(stdin or sys.stdin)
        else:
            command, params = args.command, _params_from_args(args)
        result = HANDLERS[command](params)
    except UsageError as exc:
        return _usage_error(str(exc))
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


if __name__ == "__main__":
    main()
