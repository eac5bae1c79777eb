"""Weight cycling: propagating modularity through the predicted set.

Starting from one modular, strongly generic weight, alternating the
two normalised Hecke operators forces further predicted weights to be
modular: whenever the implied-weight set of a known weight meets the
predicted set in exactly one class, that class is deduced and explored
in turn.  For generic parameters this closure reaches all nine
predicted weights.  The engine re-checks every membership decision
against the elimination branch and refuses to continue on any
disagreement.  Only at large-span weights are these two independent
computations (the membership orbit set against a hit test of the type's
orbit on each of the three lifts' candidate rows), so only there does a
completed graph certify both; at small-span weights, 15 of the 24 checks
of each frame at p=29 and p=31, both read `predicted.membership_reps`.

Everything that depends only on the type is computed once per type and
kept in one bounded memo: a frame holding the table parameters, the
nine-weight table and all 18 forced steps, in the orientation of the
caller's type.  So each type cross-checks its own membership decisions,
once per (type, weight), and the closure from each start is one BFS over
the frame.  A frame reads coordinate triples through three kernels
(`induction.implied_coords`, `predicted.is_member`,
`elimination.is_consistent`) and builds records only for the table, so
every forced weight is a table weight's own object.  A type in dual
form takes the table of its cyclotomic double-twisted dual, each weight
dualized, and visits the operators as (2, 1): duality swaps T1 and T2.
`cycle` maps the start to its table object, so the closure matches
weights by identity.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .arith import Record
from .elimination import is_consistent
from .induction import implied_coords
from .predicted import (PredictedSet, is_member, is_predicted, nine_weight_families,
                        table_parameters)
from .tame_types import TameType, dual_twist
from .weights import WeightClass, canonical, dual, is_generic

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


def _checked_membership(t: TameType, rep: int, coords: tuple[int, int, int]) -> bool:
    """Membership of F(coords) for t, of orbit representative rep, with the
    elimination branch as a mandatory cross-check."""
    member = is_member(t.p, coords, rep)
    if is_consistent(t.p, coords, rep) != member:
        raise ConsistencyError("membership and elimination disagree at"
                               f" {canonical(coords, t.p)} for type {t}")
    return member


class _Frame(Record):
    """Everything a closure reads, in the orientation of the caller's type.

    case and params: direct and the least table parameters (a, b, c) with
    t = tau((1 2 3), (a+2, b+1, c)), or dual and those of its cyclotomic
    double-twisted dual; table: the nine weights by their coordinates,
    dualized in the dual case; order: the table by the coordinates of the
    direct orientation, which decides the reported stuck node; steps: each
    table weight's (operator, forced weights) pairs in visiting order, from
    membership decisions cross-checked for t itself.
    """

    __slots__ = ()
    _fields = ("case", "params", "table", "order", "predicted", "families", "steps")


@lru_cache(maxsize=_TYPE_MEMO)
def _frame(t: TameType) -> _Frame:
    p, rep = t.p, t.orbit_rep()
    case, levels, params = CASE_DIRECT, (1, 2), table_parameters(t)
    if not params:
        # duality swaps T1 and T2: visiting them as (2, 1) makes the closure
        # the dual, edge for edge, of its twisted dual's
        case, levels, params = CASE_DUAL, (2, 1), table_parameters(dual_twist(t, 2))
        if not params:
            raise ValueError("type does not fit any generic nine-weight table")
    params = params[0]
    fams = nine_weight_families(*params, p)
    named = sorted(((w, name) for name, fam in fams.items() for w in fam),
                   key=lambda pair: pair[0].coords)
    if case == CASE_DUAL:
        named = [(dual(w), name) for w, name in named]
    order = tuple(w for w, _ in named)
    by_coords = {w.coords: w for w in order}
    # by coordinates: a forced weight is a table object (None if stray, refused below)
    member: dict[tuple[int, int, int], bool] = {}
    steps = {}
    for w in order:
        pairs = []
        for j in levels:
            implied = implied_coords(p, w.coords, j)
            for v in implied:
                if v not in member:
                    member[v] = _checked_membership(t, rep, v)
            pairs.append((j, tuple(by_coords.get(v) for v in implied if member[v])))
        steps[w] = tuple(pairs)
    stray = [v for v, m in member.items() if m and v not in by_coords]
    if stray:
        raise ConsistencyError(f"predicted weight {canonical(stray[0], p)} missing from the"
                               f" nine-weight table {params}")
    return _Frame(case, params, by_coords, order,
                  PredictedSet(p, frozenset(by_coords.values()), t),
                  tuple(sorted(named, key=lambda pair: pair[0].coords)), steps)


def cycle(t: TameType, start: WeightClass) -> CyclingGraph:
    """Run the cycling closure from a strongly generic predicted weight.

    The type is located in a nine-weight table, directly or in dual form
    (the graph's case and params).  The start must be 4-generic, which
    covers all nine table weights (some just miss 6-genericity); a
    reducible type is refused by the membership check of the start.
    """
    if not is_generic(start):
        raise ValueError(f"start weight {start} is not 4-generic")
    if not is_predicted(start, t):
        raise ValueError(f"start weight {start} is not predicted for the type")
    frame = _frame(t)
    table = frame.table
    if start.coords not in table:
        raise ConsistencyError(
            f"predicted start {start} missing from the nine-weight table {frame.params}"
        )
    start = table[start.coords]  # the table's object: the closure matches by identity
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
    if len(nodes) == len(table):
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
