"""Random `query` envelopes always end in exit 0, 1 or 2 with a well-formed
reply, and the flags give the same reply as the envelope."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from gl3weights.arith import P_LIMIT, is_prime
from gl3weights.cli import COMMANDS, REQUIRED, TYPE_FIELDS, run
from gl3weights.predicted import nine_weight_table
from gl3weights.sweeps import SUITES
from gl3weights.tame_types import dual_twist, tau
from gl3weights.weights import dual

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)
NEAR_LIMIT = (65479, 65497, 65519, 65521)  # the largest primes below P_LIMIT


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# primes over the whole wire range [5, 65521], and at its top end
PRIMES = st.one_of(st.sampled_from(SMALL_PRIMES), st.sampled_from(NEAR_LIMIT),
                   st.integers(5, NEAR_LIMIT[-1]).map(_next_prime))
TRIPLE = st.lists(st.integers(-40, 90), min_size=3, max_size=3)
D_LIST = st.one_of(st.lists(st.integers(0, 700), min_size=3, max_size=3),
                   st.lists(st.integers(0, 700), max_size=3))
# values of the right JSON kind, kept small so that every command is quick
RIGHT = {
    "p": st.one_of(PRIMES, st.sampled_from((1, 4, 9, -7, P_LIMIT))),  # and refused ones
    "n": st.integers(-5, 3000),
    "weight": TRIPLE,
    "start": TRIPLE,
    "type": st.one_of(
        st.fixed_dictionaries({"orbit_rep": st.integers(-5, 25000)}),
        st.fixed_dictionaries({"xi": st.sampled_from(["123", "132", "321"]), "mu": TRIPLE}),
    ),
    "dot": st.booleans(),
    "d": st.sampled_from([3, 3, 2, 0]),
    "r": st.integers(-1, 4),
    "heights": D_LIST,
    "exponents": D_LIST,
    "k0": st.integers(-5, 700),
    "suite": st.sampled_from([*sorted(SUITES), "nope"]),
    "seed": st.integers(0, 5),
    "count": st.integers(-2, 3),
    "jobs": st.sampled_from([1, 0, -1]),
}


def right(draw, command, name, params):
    """A value of the right kind for name; the exhaustive decompose suite,
    the default one, walks p^2+p+1 exponents, so it stays on small primes."""
    if command == "sweep" and name == "p" and params.get("suite", "decompose") == "decompose":
        return draw(st.sampled_from(SMALL_PRIMES))
    return draw(RIGHT[name])


WRONG = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.lists(st.booleans(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def envelopes(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _handler, _help, spec, one_of = COMMANDS[command]
    params = {}
    for name, *_ in spec:
        choice = draw(st.sampled_from(["right"] * 5 + ["wrong", "missing"]))
        if choice != "missing":
            params[name] = right(draw, command, name, params) if choice == "right" else draw(WRONG)
    # sampled_from leans to its first entry: mostly one member of the group,
    # and now and then an unknown key
    if one_of and draw(st.sampled_from([True, True, False])):
        keep = draw(st.sampled_from(one_of))
        params = {k: v for k, v in params.items() if k == keep or k not in one_of}
    if draw(st.sampled_from([False] * 9 + [True])):
        params[draw(st.sampled_from(["jbos", "type", "xi", "extra"]))] = 1
    return command, params


@settings(max_examples=150, deadline=None)
@given(envelopes())
def test_random_envelopes_get_well_formed_replies(drawn):
    command, params = drawn
    stdin = io.StringIO(json.dumps({"version": 1, "command": command, "params": params}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["query"], stdin=stdin)
    text = out.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert text == "" and err.getvalue().startswith("gl3weights: error: ")
    elif code == 0 and params.get("dot") is True:
        assert text.startswith("digraph weight_cycling {")
    else:
        assert text.endswith("\n") and text.count("\n") == 1
        doc = json.loads(text)
        assert isinstance(doc, dict)
        assert code == 0 or "error" in doc or doc.get("failures")


def reply(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv, stdin=stdin)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue()


def _flags(spec):
    """parameter name -> flag, with the fields of a type in place of the type."""
    return {name: flag for param in spec
            for name, _kind, _default, flag, _text in (
                TYPE_FIELDS if param[1] == "type" else [param])}


def _spellings(flags):
    """flag -> the spellings argparse takes for it: the flag itself and each
    prefix that no other option of the command starts with."""
    taken = [*flags, "--help"]
    return {flag: [flag[:k] for k in range(3, len(flag))
                   if sum(o.startswith(flag[:k]) for o in taken) == 1] + [flag]
            for flag in flags}


@st.composite
def table_cycles(draw):
    """p, a type of a nine-weight table, directly or in dual form, and one
    of its table weights: the parameters of a closure that completes."""
    p = draw(PRIMES.filter(lambda q: q >= 19))
    g1 = draw(st.integers(6, p - 13))
    g2 = draw(st.integers(5, p - 8 - g1))
    c = draw(st.integers(0, p - 2))
    a, b = c + g1 + g2, c + g2
    start = draw(st.sampled_from(nine_weight_table(a, b, c, p).sorted_weights()))
    if draw(st.booleans()):
        return {"p": p, "type": {"xi": "123", "mu": [a + 2, b + 1, c]}, "start": [*start.coords]}
    t = dual_twist(tau("123", (a + 2, b + 1, c), p), 2)
    return {"p": p, "type": {"orbit_rep": t.orbit_rep()}, "start": [*dual(start).coords]}


@st.composite
def flag_commands(draw):
    """A command with right-kind values for its required parameters, some
    optional ones and exactly one of each one-of group, as the params of an
    envelope and as argv, in any order, full or abbreviated, `--f v` or `--f=v`."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _handler, _help, spec, one_of = COMMANDS[command]
    keep = draw(st.sampled_from(one_of)) if one_of else None
    params = {}
    for name, _kind, default, *_ in spec:
        if name == keep or name not in one_of and (default == REQUIRED or draw(st.booleans())):
            params[name] = right(draw, command, name, params)
    if command == "cycle" and draw(st.booleans()):
        params.update(draw(table_cycles()))
    for name in ("heights", "exponents"):
        if params.get(name) == []:
            params[name] = [0]  # an empty flag value is argparse's own error
    flags = _flags(spec)
    spellings = _spellings(flags.values())
    flat = {**params.get("type", {}), **params}
    flat.pop("type", None)
    words = [command]
    for name in draw(st.permutations(sorted(flat))):
        value, spelled = flat[name], draw(st.sampled_from(spellings[flags[name]]))
        if value is True:
            words.append(spelled)
        elif value is not False:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            words += draw(st.sampled_from([[spelled, text], [f"{spelled}={text}"]]))
    return command, params, words


@settings(max_examples=150, deadline=None)
@given(flag_commands())
def test_flags_and_envelope_give_the_same_reply(drawn):
    command, params, argv = drawn
    envelope = json.dumps({"version": 1, "command": command, "params": params})
    assert reply(argv) == reply(["query"], io.StringIO(envelope)), argv
