"""Command-line entry points.

Every invocation emits a single JSON document on stdout (except
`cycle --dot`, which emits DOT text), with keys sorted and no incidental
whitespace, so equal inputs produce byte-identical outputs.  Exit codes:
0 success, 1 domain error or sweep failure (machine-readable error
object on stdout), 2 usage error: a malformed envelope, a missing,
unknown or conflicting parameter or a value of the wrong JSON type
(nothing on stdout).

Each command is one row of `COMMANDS`, from which the argparse flags,
the flag-to-parameter mapping and `_check` are derived; `_check` runs on
the flags and on the `query` envelope alike, before any handler.  Each
handler imports the layers it needs when it runs, so a command loads
only its own part of the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .cycling import CyclingGraph
    from .tame_types import TameType

SCHEMA_VERSION = 1


class UsageError(ValueError):
    """A missing, unknown or conflicting parameter, or an ill-typed value: exit 2."""


def _dump(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _build_type(spec: dict, p: int) -> TameType:
    from .tame_types import tau, type_from_exponent

    if "orbit_rep" in spec:
        return type_from_exponent(p, spec["orbit_rep"])
    return tau(spec["xi"], spec["mu"], p)


def _type_doc(t: TameType) -> dict:
    # predict and eliminate refuse a reducible type before they reach this
    return {"p": t.p, "niveau": t.niveau, "orbit_rep": t.orbit_rep()}


# Handlers receive parameters that `_check` has already validated and
# completed with their defaults; they hold library calls and output only.

def handle_decompose(params: dict) -> dict:
    from .arith import DIVISIBLE, decompose_exponent

    d = decompose_exponent(params["n"], params["p"])
    if d.kind == DIVISIBLE:
        return {"case": DIVISIBLE}
    return {"case": d.kind, "x": d.x, "y": d.y, "z": d.z}


def handle_dims(params: dict) -> dict:
    from .weights import alcove, canonicalize, dim_weight

    p = params["p"]
    w = canonicalize(params["weight"], p)
    return {"p": p, "F": list(w.coords), "dim": dim_weight(w), "alcove": alcove(w)}


def handle_predict(params: dict) -> dict:
    from .predicted import enumerate_predicted

    p = params["p"]
    t = _build_type(params["type"], p)
    pred = enumerate_predicted(t)
    return {
        "p": p,
        "type": _type_doc(t),
        "weights": [list(w.coords) for w in pred.sorted_weights()],
    }


def handle_eliminate(params: dict) -> dict:
    from .elimination import BRANCH_INTERSECTION, eliminate
    from .weights import canonicalize

    p = params["p"]
    w = canonicalize(params["weight"], p)
    t = _build_type(params["type"], p)
    report = eliminate(w, t)
    doc: dict[str, Any] = {
        "p": p,
        "F": list(w.coords),
        "type": _type_doc(t),
        "branch": report.branch,
        "verdict": report.verdict,
        "matched_orbit": report.matched_orbit,
    }
    if report.branch == BRANCH_INTERSECTION:
        doc["lift_sets"] = {kind: list(reps) for kind, reps in report.lift_sets}
        doc["intersection"] = list(report.intersection)
    return doc


def _graph_doc(g: CyclingGraph) -> dict:
    return {
        "p": g.p,
        "case": g.case,
        "params": list(g.params),
        "start": list(g.start.coords),
        "status": g.status,
        "stuck": None if g.stuck_node is None else {
            "node": list(g.stuck_node.coords), "reason": g.stuck_reason,
        },
        "nodes": sorted(list(w.coords) for w in g.nodes),
        "edges": [
            {"from": list(u.coords), "to": list(v.coords), "op": j}
            for u, v, j in sorted(
                g.edges, key=lambda e: (e[0].coords, e[1].coords, e[2])
            )
        ],
        "non_singletons": [
            {"at": list(w.coords), "op": j, "members": [list(v.coords) for v in vs]}
            for w, j, vs in sorted(
                g.non_singletons, key=lambda s: (s[0].coords, s[1])
            )
        ],
        "families": [
            {"F": list(w.coords), "family": name} for w, name in g.families
        ],
    }


def handle_cycle(params: dict) -> dict | str:
    from .cycling import cycle, emit_dot
    from .weights import canonicalize

    p = params["p"]
    g = cycle(_build_type(params["type"], p), canonicalize(params["start"], p))
    if params["dot"]:
        return emit_dot(g)
    return _graph_doc(g)


def handle_breuil(params: dict) -> dict:
    from .breuil import (descent_exponents, inertial_character, is_maximal, is_minimal,
                         maximal_model, validate)

    p, d, r, heights = params["p"], params["d"], params["r"], params["heights"]
    exponents = params.get("exponents")
    if exponents is None:
        exponents = descent_exponents(p, d, params["k0"], heights)
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
    from .sweeps import run_suite

    doc = {key: params[key] for key in ("suite", "p", "seed", "count")}
    doc["checks"], doc["failures"] = run_suite(
        params["suite"], params["p"], params["seed"], params["count"], params["jobs"])
    return doc


# A parameter is (name, JSON kind, default, flag, help); the default is
# REQUIRED, None (optional, no default) or the value of an absent one.
# Kinds: "int", "str", "bool", "triple" (3 integers), "d-list" (d integers)
# and "type": an object of TYPE_FIELDS, one flag per field.
REQUIRED = "required"
P = ("p", "int", REQUIRED, "--p", "the prime, 5 <= p < 2^16")
WEIGHT = ("weight", "triple", REQUIRED, "--F", "comma-separated weight coordinates")
TYPE = ("type", "type", REQUIRED, None, None)
TYPE_FIELDS = (
    ("xi", "str", None, "--xi", "order-3 cycle"),
    ("mu", "triple", None, "--mu", "comma-separated coordinate triple"),
    ("orbit_rep", "int", None, "--orbit-rep", "niveau-3 exponent orbit representative"),
)
TYPE_FORMS = ({"orbit_rep"}, {"xi", "mu"})

# command -> (handler, help, parameters, names of which exactly one is given)
COMMANDS = {
    "decompose": (handle_decompose, "three-digit split of an exponent",
                  (("n", "int", REQUIRED, "--n", "the exponent"), P), ()),
    "dims": (handle_dims, "dimension and alcove of a weight", (P, WEIGHT), ()),
    "predict": (handle_predict, "predicted weights of a type", (P, TYPE), ()),
    "eliminate": (handle_eliminate, "test a weight against a type", (P, WEIGHT, TYPE), ()),
    "cycle": (handle_cycle, "weight-cycling closure from a start weight", (
        P,
        ("start", "triple", REQUIRED, "--start", "comma-separated start weight"),
        TYPE,
        ("dot", "bool", False, "--dot", "emit DOT instead of JSON"),
    ), ()),
    "breuil": (handle_breuil, "rank-one module invariants", (
        P,
        ("d", "int", 3, "--d", "embedding components; e = p^d - 1"),
        ("r", "int", 2, "--r", "heights lie in [0, e*r]"),
        ("heights", "d-list", REQUIRED, "--heights", "comma-separated heights r_i"),
        ("exponents", "d-list", None, "--exponents", "comma-separated descent exponents k_i"),
        ("k0", "int", None, "--k0", "first exponent; the rest follow"),
    ), ("exponents", "k0")),
    "sweep": (handle_sweep, "run an invariant sweep", (
        ("suite", "str", "decompose", "--suite", "the suite to run"),
        ("p", "int", 7, "--p", "the prime"),
        ("seed", "int", 0, "--seed", "instance i draws from (seed, i)"),
        ("count", "int", 200, "--count", "number of instances"),
        ("jobs", "int", 1, "--jobs", "worker processes, at most the CPU count"),
    ), ()),
}

# JSON kind -> (Python type, what a value must be); type(), not
# isinstance(), because True is an int but not an integer input
SCALARS = {"int": (int, "an integer"), "str": (str, "a string"), "bool": (bool, "true or false")}


def _value(name: str, kind: str, value: Any, d: int | None) -> Any:
    """value, checked against its JSON kind (a list becomes a tuple)."""
    if kind == "type":
        if not isinstance(value, dict) or set(value) not in TYPE_FORMS:
            raise UsageError("type needs either orbit_rep alone or xi and mu")
        return {f: _value(f, k, value[f], d) for f, k, *_ in TYPE_FIELDS if f in value}
    if kind in SCALARS:
        cls, want = SCALARS[kind]
        ok = type(value) is cls
    else:
        from .arith import SUPPORTED_NIVEAUX  # each command with a list loads arith

        # the count of an unsupported d is left to the library's niveau error
        n = 3 if kind == "triple" else d if d in SUPPORTED_NIVEAUX else None
        want = f"a list of {n} integers" if n else "a list of integers"
        ok = (isinstance(value, list) and (n is None or len(value) == n)
              and all(type(v) is int for v in value))
        value = tuple(value) if ok else value
    if not ok:
        raise UsageError(f"{name} must be {want}, got {value!r}")
    return value


def _check(command: str, params: dict) -> dict:
    """The parameters of a command, checked and completed with defaults."""
    _handler, _help, spec, one_of = COMMANDS[command]
    unknown = sorted(set(params) - {name for name, *_ in spec})
    if unknown:
        raise UsageError(f"unknown parameter {unknown[0]!r} for {command}")
    if one_of and sum(name in params for name in one_of) != 1:
        raise UsageError(f"give exactly one of {' or '.join(one_of)}")
    checked: dict[str, Any] = {}
    for name, kind, default, _flag, _help in spec:
        if name in params:
            checked[name] = _value(name, kind, params[name], checked.get("d"))
        elif default is REQUIRED:
            raise UsageError(f"missing parameter {name!r}")
        elif default is not None:
            checked[name] = default
    return checked


def _digits(text: str) -> int:
    """An integer written as ASCII -?[0-9]+, as the envelope takes only JSON
    integers: `int` would also take "2_9", " 29", "+29" or full-width digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)  # over 4300 digits, Python's limit raises ValueError


def _int_flag(text: str) -> int:
    try:
        return _digits(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")


def _comma_ints(text: str) -> list[int]:
    try:
        return [_digits(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")


FLAG_TYPES = {"int": _int_flag, "triple": _comma_ints, "d-list": _comma_ints}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3weights",
        description="Exact weight combinatorics for rank-3 mod-p types",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, help_text, spec, _one_of) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for param in spec:
            for name, kind, default, flag, text in (
                    TYPE_FIELDS if param[1] == "type" else [param]):
                if kind == "bool":
                    sub.add_argument(flag, dest=name, action="store_true", help=text)
                else:
                    sub.add_argument(flag, dest=name, type=FLAG_TYPES.get(kind),
                                     required=default is REQUIRED, help=text)
    subs.add_parser("query", help="read a JSON envelope from stdin")
    return parser


def _flag_params(args: argparse.Namespace) -> dict:
    """The parameters the flags give; absent flags are left out."""
    params = {k: v for k, v in vars(args).items() if v is not None and k != "command"}
    desc = {name: params.pop(name) for name, *_ in TYPE_FIELDS if name in params}
    if desc:
        params["type"] = desc
    return params


def _read_envelope(stream) -> tuple[str, dict]:
    try:
        doc = json.load(stream)
    # ValueError covers bad JSON, bad UTF-8 and over-long integer literals
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"malformed JSON envelope: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("envelope must be a JSON object")
    version = doc.get("version")
    # type(), not isinstance(): True == 1, but a boolean is not a version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise UsageError(f"unsupported envelope version {version!r}")
    unknown = sorted(set(doc) - {"version", "command", "params"})
    if unknown:
        raise UsageError(f"unknown envelope key {unknown[0]!r}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise UsageError("envelope params must be an object")
    return command, params


def run(argv: list[str] | None = None, stdin=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with a negative number, as in
    # `--F -1,-2,-3`, as a flag, so a flag is joined to it: `--F=-1,-2,-3`
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1][:2] == "--" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "query":
            command, params = _read_envelope(stdin or sys.stdin)
        else:
            command, params = args.command, _flag_params(args)
        params = _check(command, params)
        result = COMMANDS[command][0](params)
    except UsageError as exc:
        print(f"gl3weights: error: {exc}", file=sys.stderr)
        return 2
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: no traceback, and no failed flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
