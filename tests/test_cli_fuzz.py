"""Random `query` envelopes always end in exit 0, 1 or 2 with a well-formed reply."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from gl3weights.cli import COMMANDS, run
from gl3weights.sweeps import SUITES

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)
TRIPLE = st.lists(st.integers(-40, 90), min_size=3, max_size=3)
D_LIST = st.one_of(st.lists(st.integers(0, 700), min_size=3, max_size=3),
                   st.lists(st.integers(0, 700), max_size=3))
# values of the right JSON kind, kept small so that every command is quick
RIGHT = {
    "p": st.sampled_from(SMALL_PRIMES + (1, 4, 9)),
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
            params[name] = draw(RIGHT[name] if choice == "right" else WRONG)
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
