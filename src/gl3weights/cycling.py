"""Weight cycling: propagating modularity through the predicted set.

Starting from one modular, strongly generic weight, alternating the
two normalised Hecke operators forces further predicted weights to be
modular: whenever the implied-weight set of a known weight meets the
predicted set in exactly one class, that class is deduced and explored
in turn.  For generic parameters this closure reaches all nine
predicted weights.  The engine re-checks every membership decision
against the elimination branch and refuses to continue on any
disagreement.  Only at large-span weights are these two independent
computations (membership rows against the intersection of the three
lifts' reduction candidates), so only there does a completed graph
certify both; at small-span weights, 15 of the 24 checks of each frame
at p=29 and p=31, both read `predicted.membership_reps`.

Everything that depends only on the type is computed once per type and
kept in one bounded memo: a frame holding the table parameters, the
nine-weight table and all 18 forced steps, in the orientation of the
caller's type.  So each membership decision is cross-checked once per
(type, weight), and the closure from each start is one BFS over the
frame.  A type in dual form reads the direct frame of its cyclotomic
double-twisted dual, flipped once: duality swaps T1 and T2.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .arith import Record
from .elimination import CONSISTENT, eliminate
from .induction import implied_weights
from .predicted import (
    PredictedSet,
    in_table_range,
    is_predicted,
    membership_solution,
    nine_weight_families,
)
from .tame_types import XI_123, TameType, dual_twist
from .weights import WeightClass, dual, is_generic

CASE_DIRECT = "direct"
CASE_DUAL = "dual"

STATUS_COMPLETE = "complete"
STATUS_STUCK = "stuck"


class ConsistencyError(RuntimeError):
    """Internal cross-check failure: membership and elimination disagree."""


class CyclingGraph(Record):
    """A closure: edges are (from, to, operator level), non_singletons are
    (at, level, forced weights) where more than one is forced; stuck_node
    is the first unreached table weight of a stuck closure, else None."""

    __slots__ = ()
    _fields = ("p", "case", "params", "source", "start", "nodes", "edges",
               "non_singletons", "families", "predicted", "status", "stuck_node",
               "stuck_reason")


# Memo bounds: callers that reuse a type run its starts close together,
# so a few hundred types keep all the reuse.
_TYPE_MEMO = 512


def _table_parameter_solutions(t: TameType) -> tuple[tuple[int, int, int], ...]:
    """All (a, b, c) in the table range, last coordinate in [0, p-2],
    whose attached type tau((1 2 3), (a+2, b+1, c)) is t."""
    found = {membership_solution(t.p, n, XI_123, False) for n in t.chars[0].elements()}
    return tuple(sorted(abc for abc in found if in_table_range(*abc, t.p)))


def normalize_parameters(
    t: TameType, start: WeightClass
) -> tuple[str, tuple[int, int, int]]:
    """Locate the type inside a nine-weight table, directly or dually.

    Returns ("direct", (a, b, c)) when t is tau((1 2 3), (a+2, b+1, c))
    for table parameters, and ("dual", (a, b, c)) when the cyclotomic
    double twist of the dual of t is.  Several parameter triples can
    match (they yield the same nine classes); the least is returned.

    The start weight must be 4-generic: that covers all nine table
    weights (some of which just miss 6-genericity), and the solver
    verifies the table-range bounds on (a, b, c) directly rather than
    inferring them from a stronger genericity of the start.
    """
    if not t.is_irreducible():
        raise ValueError("cycling requires an irreducible niveau-3 type")
    if not is_generic(start):
        raise ValueError(f"start weight {start} is not 4-generic")
    if not is_predicted(start, t):
        raise ValueError(f"start weight {start} is not predicted for the type")
    frame = _frame(t)
    return frame.case, frame.params


def _checked_membership(v: WeightClass, t: TameType) -> bool:
    """Membership with the elimination branch as a mandatory cross-check."""
    member = is_predicted(v, t)
    report = eliminate(v, t)
    if (report.verdict == CONSISTENT) != member:
        raise ConsistencyError(
            f"membership and elimination disagree at {v} for type {t}"
        )
    return member


class _Frame(Record):
    """Everything a closure reads, in the orientation of the caller's type.

    case and params: as `normalize_parameters` returns them; table: the
    nine weights; order: the table by the coordinates of the direct
    orientation, which decides the reported stuck node; steps: each table
    weight's (operator, forced weights) pairs in visiting order.
    """

    __slots__ = ()
    _fields = ("case", "params", "table", "order", "predicted", "families", "steps")


def _by_coords(ws) -> tuple[WeightClass, ...]:
    return tuple(sorted(ws, key=lambda v: v.coords))


@lru_cache(maxsize=_TYPE_MEMO)
def _frame(t: TameType) -> _Frame:
    direct = _table_parameter_solutions(t)
    if not direct:
        flipped = dual_twist(t, 2)
        if not _table_parameter_solutions(flipped):
            raise ValueError("type does not fit any generic nine-weight table")
        return _dual_frame(_frame(flipped), t)
    params = direct[0]
    fams = nine_weight_families(*params, t.p)
    table = frozenset(w for fam in fams.values() for w in fam)
    families = tuple(sorted(((w, name) for name, fam in fams.items() for w in fam),
                            key=lambda pair: pair[0].coords))
    order = _by_coords(table)
    member: dict[WeightClass, bool] = {}
    steps = {}
    for w in order:
        pairs = []
        for j in (1, 2):
            implied = _by_coords(implied_weights(w, j))
            for v in implied:
                if v not in member:
                    member[v] = _checked_membership(v, t)
            pairs.append((j, tuple(v for v in implied if member[v])))
        steps[w] = tuple(pairs)
    stray = [v for v, m in member.items() if m and v not in table]
    if stray:
        raise ConsistencyError(
            f"predicted weight {stray[0]} missing from the nine-weight table {params}"
        )
    return _Frame(CASE_DIRECT, params, table, order, PredictedSet(t.p, table, t), families,
                  steps)


def _dual_frame(inner: _Frame, t: TameType) -> _Frame:
    """The frame of the type t whose dual case reads the direct frame inner.

    Duality swaps the operators: the step (w, j) becomes (dual w, 3 - j),
    and each node visits its operators in the order (2, 1), so one BFS
    gives the dualized graph of the inner closure, edge for edge.
    """
    flip = {w: dual(w) for w in inner.table}
    table = frozenset(flip.values())
    return _Frame(
        CASE_DUAL,
        inner.params,
        table,
        tuple(flip[w] for w in inner.order),
        PredictedSet(t.p, table, t),
        tuple(sorted(((flip[w], name) for w, name in inner.families),
                     key=lambda pair: pair[0].coords)),
        {
            flip[w]: tuple((3 - j, _by_coords(flip[v] for v in vs))
                           for j, vs in pairs)
            for w, pairs in inner.steps.items()
        },
    )


def cycle(t: TameType, start: WeightClass) -> CyclingGraph:
    """Run the cycling closure from a strongly generic predicted weight."""
    normalize_parameters(t, start)
    frame = _frame(t)
    table = frame.table
    if start not in table:
        raise ConsistencyError(
            f"predicted start {start} missing from the nine-weight table {frame.params}"
        )
    steps = frame.steps
    nodes = {start}
    edges: list[tuple[WeightClass, WeightClass, int]] = []
    stalls: list[tuple[WeightClass, int, tuple[WeightClass, ...]]] = []
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for j, forced in steps[w]:
            if len(forced) == 1:
                v = forced[0]
                edges.append((w, v, j))
                if v not in nodes:
                    nodes.add(v)
                    queue.append(v)
            elif forced:
                stalls.append((w, j, forced))
    if nodes == table:
        status, stuck_node, reason = STATUS_COMPLETE, None, None
    else:
        status = STATUS_STUCK
        stuck_node = next(v for v in frame.order if v not in nodes)
        reason = f"closure reached {len(nodes)} of {len(table)} predicted weights"
    return CyclingGraph(t.p, frame.case, frame.params, t, start, frozenset(nodes),
                        tuple(edges), tuple(stalls), frame.families, frame.predicted, status,
                        stuck_node, reason)


def emit_dot(g: CyclingGraph) -> str:
    """Deterministic DOT rendering of a cycling graph."""
    fam = dict(g.families)
    lines = ["digraph weight_cycling {"]
    label = f"start {g.start}; status {g.status}"
    if g.status == STATUS_STUCK:
        label += f" ({g.stuck_reason})"
    lines.append(f'  label="{label}";')
    for w in sorted(g.nodes, key=lambda v: v.coords):
        attrs = [f'family="{fam.get(w, "?")}"']
        if w == g.start:
            attrs.append("peripheries=2")
        lines.append(f'  "{w}" [{", ".join(attrs)}];')
    for u, v, j in sorted(g.edges, key=lambda e: (e[0].coords, e[1].coords, e[2])):
        lines.append(f'  "{u}" -> "{v}" [label="T{j}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
