"""Weight cycling: parameter normalization, closure, DOT emission."""

import hashlib
import importlib
import pkgutil
import random
import re

import pytest

import gl3weights
from gl3weights import arith, cli, cycling, elimination, predicted
from gl3weights.arith import Record, orbit_rep
from gl3weights.cycling import (
    CASE_DIRECT,
    CASE_DUAL,
    STATUS_COMPLETE,
    STATUS_STUCK,
    ConsistencyError,
    cycle,
    emit_dot,
)
from gl3weights.elimination import eliminate
from gl3weights.induction import implied_coords, implied_weights
from gl3weights.predicted import (
    LOWER_FAMILY,
    SHADOW_FAMILY,
    UPPER_FAMILY,
    is_predicted,
    nine_weight_table,
)
from gl3weights.tame_types import XI_123, dual_twist, tau, type_from_exponent
from gl3weights.weights import WeightClass, dual, weight

from oracles import closure_bfs, dualized_closure, table_parameter_scan
from test_acceptance import _table_triples

# sha256 over the DOT text and CLI graph JSON of the graphs of
# test_graph_bytes_are_frozen
FROZEN_GRAPH_DIGEST = "03d9f709017f0fa073eeceb0835dddfc8581a9a3d8e1369fac972e545ecf881f"

EXPECTED_DOT = """digraph weight_cycling {
  label="start F(15,8,0); status complete";
  "F(15,8,0)" [family="lower", peripheries=2];
  "F(27,15,9)" [family="lower"];
  "F(36,15,0)" [family="shadow"];
  "F(36,27,16)" [family="lower"];
  "F(43,27,9)" [family="shadow"];
  "F(43,28,8)" [family="upper"];
  "F(55,36,16)" [family="shadow"];
  "F(55,37,15)" [family="upper"];
  "F(64,44,27)" [family="upper"];
  "F(15,8,0)" -> "F(36,15,0)" [label="T2"];
  "F(15,8,0)" -> "F(43,28,8)" [label="T1"];
  "F(27,15,9)" -> "F(43,27,9)" [label="T2"];
  "F(27,15,9)" -> "F(55,37,15)" [label="T1"];
  "F(36,15,0)" -> "F(27,15,9)" [label="T1"];
  "F(36,27,16)" -> "F(55,36,16)" [label="T2"];
  "F(36,27,16)" -> "F(64,44,27)" [label="T1"];
  "F(43,27,9)" -> "F(36,27,16)" [label="T1"];
  "F(43,28,8)" -> "F(27,15,9)" [label="T2"];
  "F(55,36,16)" -> "F(15,8,0)" [label="T1"];
  "F(55,37,15)" -> "F(36,27,16)" [label="T2"];
  "F(64,44,27)" -> "F(15,8,0)" [label="T2"];
}
"""


def table_type(p=29, abc=(15, 8, 0)):
    a, b, c = abc
    return tau(XI_123, (a + 2, b + 1, c), p)


def test_normalize_direct():
    g = cycle(table_type(), weight(29, 15, 8, 0))
    assert g.case == CASE_DIRECT
    assert g.params == (15, 8, 0)


def test_normalize_dual():
    t = dual_twist(table_type(), 2)
    start = dual(weight(29, 15, 8, 0))
    g = cycle(t, start)
    assert g.case == CASE_DUAL
    assert g.params == (15, 8, 0)


def test_normalize_guards():
    # the start's refusals come first, in order (4-generic, then predicted),
    # then the type's: a reducible type's, or a type that fits no table
    t = table_type()
    with pytest.raises(ValueError, match="4-generic"):
        cycle(t, weight(29, 5, 3, 1))
    with pytest.raises(ValueError, match="predicted"):
        cycle(t, weight(29, 16, 9, 1))
    with pytest.raises(ValueError, match="different characteristics"):
        cycle(t, weight(31, 15, 8, 0))
    reducible = type_from_exponent(29, 0)
    with pytest.raises(ValueError, match="4-generic"):
        cycle(reducible, weight(29, 5, 3, 1))
    with pytest.raises(ValueError, match="irreducible"):
        cycle(reducible, weight(29, 15, 8, 0))
    # orbit rep 125 fits neither table; F(59,36,27) is predicted for it
    untabled = type_from_exponent(29, 125)
    with pytest.raises(ValueError, match="not predicted for the type"):
        cycle(untabled, weight(29, 15, 8, 0))
    assert is_predicted(weight(29, 59, 36, 27), untabled)
    with pytest.raises(ValueError, match="does not fit any generic nine-weight table"):
        cycle(untabled, weight(29, 59, 36, 27))
    for u in (t, dual_twist(t, 2)):
        with pytest.raises(ValueError, match="not predicted for the type"):
            cycle(u, weight(29, 16, 9, 1))


def test_cycle_complete_from_each_start():
    t = table_type()
    table = nine_weight_table(15, 8, 0, 29)
    for start in table.sorted_weights():
        g = cycle(t, start)
        assert g.status == STATUS_COMPLETE
        assert g.nodes == table.weights
        assert g.start == start
        assert len(g.edges) == 12
        assert len(g.non_singletons) == 6
        for _, _, j in g.edges:
            assert j in (1, 2)
        for u, v, _ in g.edges:
            assert u in g.nodes and v in g.nodes


def test_cycle_edge_semantics():
    g = cycle(table_type(), weight(29, 15, 8, 0))
    edges = {(u.coords, j): v.coords for u, v, j in g.edges}
    # lower weight: T1 reaches the obvious upper, T2 the shadow partner
    assert edges[((15, 8, 0), 1)] == (43, 28, 8)
    assert edges[((15, 8, 0), 2)] == (36, 15, 0)
    # shadow weight under T1 and obvious upper under T2 advance the cycle
    assert edges[((36, 15, 0), 1)] == (27, 15, 9)
    assert edges[((43, 28, 8), 2)] == (27, 15, 9)
    fams = dict(g.families)
    lower = [w for w, name in fams.items() if name == LOWER_FAMILY]
    upper = [w for w, name in fams.items() if name == UPPER_FAMILY]
    shad = [w for w, name in fams.items() if name == SHADOW_FAMILY]
    assert len(lower) == len(upper) == len(shad) == 3
    # recorded stalls happen only at upper/shadow nodes with the off operator
    for w, j, members in g.non_singletons:
        assert fams[w] in (UPPER_FAMILY, SHADOW_FAMILY)
        assert len(members) == 3


def test_dual_case_graph_is_dualized():
    t = table_type()
    g = cycle(t, weight(29, 15, 8, 0))
    td = dual_twist(t, 2)
    gd = cycle(td, dual(weight(29, 15, 8, 0)))
    assert gd.case == CASE_DUAL
    assert gd.status == STATUS_COMPLETE
    assert gd.nodes == frozenset(dual(w) for w in g.nodes)
    want_edges = {(dual(u), dual(v), 3 - j) for u, v, j in g.edges}
    assert set(gd.edges) == want_edges


def test_cycle_other_parameters():
    p = 31
    t = tau(XI_123, (22, 10, 3), p)  # (a,b,c) = (20,9,3)
    table = nine_weight_table(20, 9, 3, p)
    g = cycle(t, weight(p, 20, 9, 3))
    assert g.status == STATUS_COMPLETE
    assert g.nodes == table.weights


def test_emit_dot_frozen():
    g = cycle(table_type(), weight(29, 15, 8, 0))
    assert emit_dot(g) == EXPECTED_DOT
    assert emit_dot(g) == emit_dot(cycle(table_type(), weight(29, 15, 8, 0)))


def cycling_memos():
    """The lru_caches defined in the cycling module, found by scanning."""
    return [
        obj for obj in vars(cycling).values()
        if hasattr(obj, "cache_clear")
        and obj.__wrapped__.__module__ == cycling.__name__
    ]


def clear_cycling_memos():
    for memo in cycling_memos():
        memo.cache_clear()


def test_every_memo_is_bounded():
    memos = []
    for info in pkgutil.iter_modules(gl3weights.__path__):
        mod = importlib.import_module(f"gl3weights.{info.name}")
        memos += [
            obj for obj in vars(mod).values()
            if hasattr(obj, "cache_info") and obj.__wrapped__.__module__ == mod.__name__
        ]
    # arith.is_prime, two in elimination (_lift_rows, _intersection_data)
    # and three in predicted (_membership_rows, membership_reps, _solvers)
    assert len(memos) == len(cycling_memos()) + 6
    for memo in memos:
        assert memo.cache_info().maxsize is not None, memo


def record_batches(monkeypatch):
    """Patch cycling's two batched kernels to record each call as (kernel,
    points, rep); the list of calls is returned."""
    calls = []
    for name in ("are_members", "are_consistent"):

        def recording(p, points, rep, name=name, real=getattr(cycling, name)):
            calls.append((name, tuple(points), rep))
            return real(p, points, rep)

        monkeypatch.setattr(cycling, name, recording)
    return calls


def frame_points(frame, p):
    """The distinct implied weights of a frame's table, by coordinates."""
    return {v for w in frame.order for j in (1, 2) for v in implied_coords(p, w.coords, j)}


@pytest.mark.parametrize("dual_case", [False, True])
def test_a_cold_frame_tests_each_large_span_weight_once(monkeypatch, dual_case):
    # a cold frame hands its 24 distinct implied weights to each batched
    # kernel once; the elimination kernel probes the lifts' masks for the
    # type's orbit at each large-span weight once, in one row_masks call,
    # and the frame leaves the intersection and membership memos as they
    # were.  A built frame has no weight in neither regime, so
    # x - z >= p - 3 picks out the large-span ones
    p, probes = 29, []
    real_masks = elimination.row_masks

    def counting_masks(p, masks, points, rep):
        probes.append(list(points))
        return real_masks(p, masks, points, rep)

    monkeypatch.setattr(elimination, "row_masks", counting_masks)
    calls = record_batches(monkeypatch)
    t = table_type(p, (20, 9, 3))
    if dual_case:
        t = dual_twist(t, 2)
    clear_cycling_memos()
    memos = (elimination._intersection_data, predicted.membership_reps)
    before = [memo.cache_info().currsize for memo in memos]
    frame = cycling._frame(t)
    assert [memo.cache_info().currsize for memo in memos] == before
    implied = frame_points(frame, p)
    assert len(implied) == 24
    assert [name for name, _, _ in calls] == ["are_members", "are_consistent"]
    for _, batch, rep in calls:
        assert len(batch) == 24 and set(batch) == implied and rep == t.orbit_rep()
    large = [v for v in implied if v[0] - v[2] >= p - 3]
    assert large and len(probes) == 1 and sorted(probes[0]) == sorted(large)


@pytest.mark.parametrize("p, abc", [(29, (20, 9, 3)), (31, (21, 10, 3)),
                                    (65521, (40000, 20000, 7))])
@pytest.mark.parametrize("dual_case", [False, True])
def test_a_cold_frame_reduces_no_row(monkeypatch, cold_memos, p, abc, dual_case):
    # a cold frame's decisions test the type's orbit against the membership
    # rows and the lifts' masks without reducing any row's value: no
    # row_reps call, at both acceptance primes and the largest supported one
    def reduced(*args):
        raise AssertionError("a cold frame reduced a row")

    for module in (arith, predicted, elimination):
        monkeypatch.setattr(module, "row_reps", reduced)
    t = table_type(p, abc)
    if dual_case:
        t = dual_twist(t, 2)
    frame = cycling._frame(t)
    assert frame.case == (CASE_DUAL if dual_case else CASE_DIRECT)
    assert any(v[0] - v[2] >= p - 3 for v in frame.decided), "no large-span weight"
    assert sum(frame.decided.values()) >= 9


def test_one_memo_per_type():
    assert cycling_memos() == [cycling._frame]


@pytest.mark.parametrize("p", [29, 31])
def test_table_parameters_match_scan(p):
    c2 = p * p + p + 1
    for rep in sorted({orbit_rep(p, v) for v in range(p**3 - 1) if v % c2}):
        t = type_from_exponent(p, rep)
        for u in (t, dual_twist(t, 2)):
            assert cycling.table_parameters(u) == table_parameter_scan(u), rep


@pytest.mark.parametrize("dual_case", [False, True])
def test_memoized_closure_matches_cold(dual_case):
    t = table_type(31, (20, 9, 3))
    starts = nine_weight_table(20, 9, 3, 31).sorted_weights()
    if dual_case:
        t = dual_twist(t, 2)
        starts = tuple(dual(w) for w in starts)
    cold = []
    for start in starts:
        clear_cycling_memos()
        cold.append(cycle(t, start))
    warm = [cycle(t, start) for start in starts]
    assert cold[0].case == (CASE_DUAL if dual_case else CASE_DIRECT)
    assert warm == cold
    assert [emit_dot(g) for g in warm] == [emit_dot(g) for g in cold]


def test_cross_check_stays_on_the_path(monkeypatch):
    # F(43,28,8) is T1-implied by the start F(15,8,0); the dual type checks
    # its own weights, so there the lie sits at the dual weight.  A lie in
    # either kernel is caught, and a second lie later in the check order
    # does not change the weight named
    t, start, implied = table_type(), weight(29, 15, 8, 0), weight(29, 43, 28, 8)
    for kernel in ("are_members", "are_consistent"):
        real = getattr(cycling, kernel)
        for u, s, flip_at in ((t, start, implied),
                              (dual_twist(t, 2), dual(start), dual(implied))):
            clear_cycling_memos()
            checked = list(cycling._frame(u).decided)  # in check order
            flips = {flip_at.coords, checked[-1]}
            assert checked.index(flip_at.coords) < len(checked) - 1

            def lying(p, points, rep, flips=flips, real=real):
                return [m != (v in flips) for v, m in zip(points, real(p, points, rep))]

            clear_cycling_memos()
            monkeypatch.setattr(cycling, kernel, lying)
            with pytest.raises(ConsistencyError, match=re.escape(f"disagree at {flip_at} ")):
                cycle(u, s)
            monkeypatch.undo()


def test_dual_form_matches_witness():
    # every p=29 triple given in dual form, against the per-start dualization
    # of the direct closure; the start rotates through the nine table weights
    for k, (a, b, c) in enumerate(_table_triples(29)):
        t = table_type(29, (a, b, c))
        start = nine_weight_table(a, b, c, 29).sorted_weights()[k % 9]
        td = dual_twist(t, 2)
        want = dualized_closure(cycle(t, start), td, dual(start))
        got = cycle(td, dual(start))
        assert got == want, (a, b, c)
        assert len(set(got.edges)) == len(got.edges), (a, b, c)


@pytest.fixture
def cold_memos():
    clear_cycling_memos()
    yield
    clear_cycling_memos()


def test_stuck_path_matches_witness(monkeypatch, cold_memos):
    # without one table weight among the implied weights the closure stalls;
    # in the dual case the stuck node is the least missing weight by the
    # coordinates of the inner (direct) orientation, not of its own
    real = cycling.implied_coords
    dropped = weight(29, 36, 27, 16)
    # each orientation reads its own implied weights: drop the weight in both
    gone = {dropped.coords, dual(dropped).coords}

    def without_dropped(p, coords, j):
        return tuple(v for v in real(p, coords, j) if v not in gone)

    monkeypatch.setattr(cycling, "implied_coords", without_dropped)
    t, start, params = table_type(), weight(29, 15, 8, 0), (15, 8, 0)
    want = closure_bfs(t, start, params, implied=lambda w, j: implied_weights(w, j) - {dropped})
    td = dual_twist(t, 2)
    want_dual = dualized_closure(want, td, dual(start))
    for got, witness in ((cycle(t, start), want), (cycle(td, dual(start)), want_dual)):
        assert got.status == witness.status == STATUS_STUCK
        assert got.stuck_node == witness.stuck_node
        assert got.stuck_reason == witness.stuck_reason
        assert got.non_singletons == witness.non_singletons
        assert got == witness
    assert want.stuck_node == dropped
    assert len(want.nodes) == 6 and len(want.non_singletons) == 4
    missing = want_dual.predicted.weights - want_dual.nodes
    assert want_dual.stuck_node != min(missing, key=lambda v: v.coords)


def test_cross_check_runs_once_per_distinct_implied_weight(monkeypatch, cold_memos):
    # all nine starts of a type share one frame: each kernel decides each of
    # its 24 distinct implied weights once, in one call
    t = table_type()
    table = nine_weight_table(15, 8, 0, 29)
    implied = {v for w in table.weights for j in (1, 2) for v in implied_weights(w, j)}
    calls = record_batches(monkeypatch)
    for start in table.sorted_weights():
        assert cycle(t, start).status == STATUS_COMPLETE
    assert len(implied) == 24
    want = sorted(v.coords for v in implied)
    assert [(name, sorted(batch), rep) for name, batch, rep in calls] == [
        ("are_members", want, t.orbit_rep()), ("are_consistent", want, t.orbit_rep())]
    # the dual type checks its own decisions: the duals of the first 24
    td = dual_twist(t, 2)
    for start in table.sorted_weights():
        cycle(td, dual(start))
    assert len(calls) == 4
    want = sorted(dual(v).coords for v in implied)
    assert [(name, sorted(batch), rep) for name, batch, rep in calls[2:]] == [
        ("are_members", want, td.orbit_rep()), ("are_consistent", want, td.orbit_rep())]
    assert all(len(set(batch)) == len(batch) for _, batch, _ in calls)


def test_each_orientation_solves_its_own_frame_and_a_type_that_fits_neither_is_refused(
        monkeypatch, cold_memos):
    solved = []
    real = cycling.table_parameters

    def counting_solutions(u):
        solved.append(u)
        return real(u)

    monkeypatch.setattr(cycling, "table_parameters", counting_solutions)
    t = table_type()
    td = dual_twist(t, 2)
    # a cold dual frame: its own solve, then the flipped type's; it is the
    # only frame built
    assert cycling._frame(td).case == CASE_DUAL
    assert solved == [td, t]
    assert cycling._frame.cache_info().currsize == 1
    # the table type builds its own frame, with one solve
    solved.clear()
    assert cycling._frame(t).case == CASE_DIRECT
    assert solved == [t]
    # a type that fits neither table is refused after one solve per orientation
    solved.clear()
    neither = type_from_exponent(29, 1)
    with pytest.raises(ValueError) as err:
        cycling._frame(neither)
    assert type(err.value) is ValueError
    assert str(err.value) == "type does not fit any generic nine-weight table"
    assert solved == [neither, dual_twist(neither, 2)]


def test_forced_weight_outside_the_table_is_refused(monkeypatch, cold_memos):
    # a membership verdict for a weight the nine-weight table lacks means the
    # two encodings of the predicted set disagree; here both kernels say yes
    # everywhere, so they agree with each other
    for kernel in ("are_members", "are_consistent"):
        monkeypatch.setattr(cycling, kernel, lambda p, points, rep: [True] * len(points))
    with pytest.raises(ConsistencyError, match="missing from the nine-weight table"):
        cycle(table_type(), weight(29, 15, 8, 0))


def test_every_table_weight_is_decided_by_its_frame(cold_memos):
    # cycle reads the start's membership from the frame: every table weight
    # of every p=29 table type, in both forms, is one of the frame's decided
    # weights, decided as is_predicted decides it
    for a, b, c in _table_triples(29):
        t = table_type(29, (a, b, c))
        for u in (t, dual_twist(t, 2)):
            frame = cycling._frame(u)
            for w in frame.order:
                want = is_predicted(w, u)
                assert want and frame.decided[w.coords] == want, (a, b, c, w)
            assert set(frame.decided) == frame_points(frame, 29)
        clear_cycling_memos()


def test_one_batch_per_kernel_and_a_warm_start_evaluates_nothing(monkeypatch, cold_memos):
    # a cold frame makes exactly one call to each batched kernel; a warm
    # closure from any table weight evaluates no membership or lift row
    t = table_type()
    starts = nine_weight_table(15, 8, 0, 29).sorted_weights()
    calls = record_batches(monkeypatch)
    for u, ss in ((t, starts), (dual_twist(t, 2), tuple(map(dual, starts)))):
        calls.clear()
        cycle(u, ss[0])
        assert [name for name, _, _ in calls] == ["are_members", "are_consistent"]
        with monkeypatch.context() as m:

            def evaluated(*args):
                raise AssertionError("a warm start evaluated a row")

            for module, name in ((cycling, "are_members"), (cycling, "are_consistent"),
                                 (cycling, "is_predicted"), (predicted, "are_members"),
                                 (predicted, "row_reps"), (elimination, "are_members"),
                                 (elimination, "row_masks"), (elimination, "row_reps")):
                m.setattr(module, name, evaluated)
            for start in ss:
                assert cycle(u, weight(29, *start.coords)).status == STATUS_COMPLETE


def test_direct_form_matches_witness():
    # every p=29 triple against a plain BFS that filters through is_predicted;
    # the start rotates through the nine table weights
    for k, (a, b, c) in enumerate(_table_triples(29)):
        t = table_type(29, (a, b, c))
        start = nine_weight_table(a, b, c, 29).sorted_weights()[k % 9]
        got = cycle(t, start)
        assert got == closure_bfs(t, start, table_parameter_scan(t)[0]), (a, b, c)


def _seeded_table_triples(p, count):
    """count seeded (a, b, c) with a-b > 5, b-c > 4, a-c < p-7, c in [0, p-2]."""
    rng = random.Random(f"table triples {p}")
    for _ in range(count):
        g1 = rng.randint(6, p - 13)
        g2 = rng.randint(5, p - 8 - g1)
        c = rng.randint(0, p - 2)
        yield (c + g1 + g2, c + g2, c)


@pytest.mark.parametrize("p", [101, 1009, 65521])
def test_warm_closures_match_witness(p, cold_memos):
    # every start of seeded table types, in both forms, once the frame is
    # built: the warm index walk against a plain BFS and its dualization
    for a, b, c in _seeded_table_triples(p, 10):
        t = table_type(p, (a, b, c))
        params = cycling.table_parameters(t)
        assert (a, b, c) in params  # table_parameters is held to the scan at p = 29, 31
        starts = nine_weight_table(a, b, c, p).sorted_weights()
        td = dual_twist(t, 2)
        cycle(t, starts[0])
        cycle(td, dual(starts[0]))
        for start in starts:
            want = closure_bfs(t, start, params[0])
            assert want.status == STATUS_COMPLETE, (a, b, c, start)
            assert cycle(t, start) == want, (a, b, c, start)
            got = cycle(td, dual(start))
            assert got == dualized_closure(want, td, dual(start)), (a, b, c, start)


@pytest.mark.parametrize("p, abc", [(29, (15, 8, 0)), (31, (20, 9, 3))])
def test_forced_weights_are_the_tables_objects(p, abc, cold_memos):
    t = table_type(p, abc)
    for u in (t, dual_twist(t, 2)):
        frame = cycling._frame(u)
        order = frame.order
        table = {id(w) for w in order}
        assert len(table) == 9 and frame.table == {w.coords: i for i, w in enumerate(order)}
        assert len(frame.steps) == 9
        forced = []
        for i, (out, targets, stuck) in enumerate(frame.steps):
            # each edge's target index names the edge's target object
            assert [order[k] for k in targets] == [v for _, v, _ in out]
            assert all(w is order[i] for w, _, _ in out + stuck)
            forced += [v for _, v, _ in out] + [v for _, _, vs in stuck for v in vs]
        assert len(forced) == 30
        assert all(id(v) in table for v in forced)


@pytest.mark.parametrize("coords, entry", [
    ((30, 2, 0), is_predicted),   # a difference above p-3
    ((27, 13, 0), eliminate),     # in the strip, in neither elimination regime
])
def test_kernel_errors_match_the_record_entries(monkeypatch, cold_memos, coords, entry):
    t, start = table_type(), weight(29, 15, 8, 0)
    w = weight(29, *coords)
    with pytest.raises(ValueError) as want:
        entry(w, t)
    assert str(w) in str(want.value)
    monkeypatch.setattr(cycling, "implied_coords", lambda p, c, j: (coords,))
    for u, s in ((t, start), (dual_twist(t, 2), dual(start))):
        clear_cycling_memos()
        with pytest.raises(ValueError) as got:
            cycle(u, s)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("first, entry, second", [
    ((27, 13, 0), eliminate, (30, 2, 0)),     # in the strip, in neither regime
    ((30, 2, 0), is_predicted, (27, 13, 0)),  # off the strip
])
def test_the_first_refused_point_names_the_error(monkeypatch, cold_memos, first, entry, second):
    # a batch holding two malformed points raises the error of the first in
    # check order, as checking the points one by one does
    t = table_type()
    with pytest.raises(ValueError) as want:
        entry(weight(29, *first), t)
    monkeypatch.setattr(cycling, "implied_coords", lambda p, c, j: (first, second))
    for u, s in ((t, weight(29, 15, 8, 0)), (dual_twist(t, 2), dual(weight(29, 15, 8, 0)))):
        clear_cycling_memos()
        with pytest.raises(ValueError) as got:
            cycle(u, s)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_graph_bytes_are_frozen():
    # every 4th acceptance-3 triple (index k within each p) at p = 29 and 31,
    # from the start sorted_weights()[k % 9], in direct and dual form; only
    # output bytes are hashed, not reprs
    digest, count = hashlib.sha256(), 0
    for p in (29, 31):
        for k, (a, b, c) in enumerate(_table_triples(p)):
            if k % 4:
                continue
            t = table_type(p, (a, b, c))
            start = nine_weight_table(a, b, c, p).sorted_weights()[k % 9]
            for g in (cycle(t, start), cycle(dual_twist(t, 2), dual(start))):
                digest.update(emit_dot(g).encode())
                digest.update(cli._dump(cli._graph_doc(g)).encode())
                count += 1
    assert count == 2290
    assert digest.hexdigest() == FROZEN_GRAPH_DIGEST


def test_warm_closure_matches_weights_by_identity(monkeypatch):
    # cycle maps the caller's start to its table index and walks indices, so
    # a warm closure from a fresh start object compares and hashes no weight
    # record, and a complete closure's nodes are its frame's predicted set
    hashed = []
    real_hash = WeightClass.__hash__

    def counting_hash(self):
        hashed.append(self)
        return real_hash(self)

    t = table_type()
    for u, s in ((t, weight(29, 15, 8, 0)), (dual_twist(t, 2), dual(weight(29, 15, 8, 0)))):
        cycle(u, s)
        calls = []
        real = Record.__eq__

        def counting_eq(self, other):
            calls.append(self)
            return real(self, other)

        monkeypatch.setattr(Record, "__eq__", counting_eq)
        monkeypatch.setattr(WeightClass, "__hash__", counting_hash)
        fresh = weight(29, *s.coords)
        hashed.clear()
        g = cycle(u, fresh)
        monkeypatch.undo()
        assert calls == [] and hashed == []
        frame = cycling._frame(u)
        order = frame.order
        assert g.start is order[frame.table[fresh.coords]] and g.start is not fresh
        assert g.status == STATUS_COMPLETE and g.nodes is g.predicted.weights
        assert g.predicted is frame.predicted
        assert all(v is order[frame.table[v.coords]] for v in g.nodes)
