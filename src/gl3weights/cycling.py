"""Weight cycling: propagating modularity through the predicted set.

Starting from one modular, strongly generic weight, alternating the
two normalised Hecke operators forces further predicted weights to be
modular: whenever the implied-weight set of a known weight meets the
predicted set in exactly one class, that class is deduced and explored
in turn.  For generic parameters this closure reaches all nine
predicted weights.  The engine re-checks every membership decision
against the elimination branch and refuses to continue on any
disagreement.  Only at large-span weights are these two independent
computations (a hit test of the type's orbit on the membership rows
against a probe of the three lifts' candidate rows for it), so only there
does a completed graph certify both; at small-span weights, 15 of the 24
checks of each frame at p=29 and p=31, elimination answers with the
membership kernel itself.

Everything that depends only on the type is computed once per type and
kept in one bounded memo: a frame holding the table parameters, the
nine-weight table, all 18 forced steps and the membership decisions, in
the orientation of the caller's type.  So each type cross-checks its own
membership decisions, once per (type, weight), and the closure from each
start is one BFS over the frame.  A frame reads coordinate triples
through three kernels: `induction.implied_coords` per table weight and
level, then, on the distinct implied weights in check order, one call of
the batched membership kernel `predicted.are_members` and one of the
batched elimination kernel `elimination.are_consistent`, compared point
by point.  It builds records only for the table, so every forced weight
is a table weight's own object, and `cycle` reads the start's membership
from the frame's decisions, which hold every table weight.  A type in dual
form takes the table of its cyclotomic double-twisted dual, each weight
dualized, and visits the operators as (2, 1): duality swaps T1 and T2.
The frame holds the closure graph by table index, so `cycle` looks up the
start's index once and walks integers: a warm closure hashes no weight
record.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .arith import Record
from .elimination import are_consistent
from .induction import implied_coords
from .predicted import (PredictedSet, are_members, is_predicted, nine_weight_families,
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


class _Frame(Record):
    """Everything a closure reads, in the orientation of the caller's type.

    case and params: direct and the least table parameters (a, b, c) with
    t = tau((1 2 3), (a+2, b+1, c)), or dual and those of its cyclotomic
    double-twisted dual; order: the nine table weights, dualized in the
    dual case, by the coordinates of the direct orientation, which decides
    the reported stuck node; table: each weight's index in order, by its
    coordinates; predicted: the set of order; steps: by index, the
    weight's singleton edges (w, v, operator), their targets' indices and
    its stalls (w, operator, forced weights), in visiting order, with table
    objects for weights; decided: the membership of each distinct implied
    weight for t itself, by coordinates, cross-checked against elimination.
    """

    __slots__ = ()
    _fields = ("case", "params", "table", "order", "predicted", "families", "steps",
               "decided")


def _decide(t: TameType, points: tuple[tuple[int, int, int], ...]) -> list[bool]:
    """Membership of each point for t, cross-checked against elimination by
    one call of each kernel; the first disagreement in points' order raises.
    A point that a kernel refuses raises the error of the first such point,
    the membership (strip) check's before elimination's."""
    p, rep = t.p, t.orbit_rep()
    try:
        member = are_members(p, points, rep)
        consistent = are_consistent(p, points, rep)
    except ValueError:
        for v in points:  # one by one, for the first point's error
            are_members(p, (v,), rep)
            are_consistent(p, (v,), rep)
        raise
    if member != consistent:
        v = next(v for v, m, c in zip(points, member, consistent) if m != c)
        raise ConsistencyError("membership and elimination disagree at"
                               f" {canonical(v, p)} for type {t}")
    return member


def _check_start(start: WeightClass, t: TameType, member: bool | None = None) -> None:
    """Refuse a start that is not predicted for t; member is its decision
    from the frame, else None, and is_predicted answers."""
    if not (is_predicted(start, t) if member is None else member):
        raise ValueError(f"start weight {start} is not predicted for the type")


@lru_cache(maxsize=_TYPE_MEMO)
def _frame(t: TameType) -> _Frame:
    p = t.p
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
    families = named  # by coordinates, which dualizing does not keep
    if case == CASE_DUAL:
        named = [(dual(w), name) for w, name in named]
        families = sorted(named, key=lambda pair: pair[0].coords)
    order = tuple(w for w, _ in named)
    table = {w.coords: i for i, w in enumerate(order)}
    # per table weight and level in visiting order, its implied weights;
    # points: the distinct ones in check order
    implied = [implied_coords(p, w.coords, j) for w in order for j in levels]
    points = tuple(dict.fromkeys(chain.from_iterable(implied)))
    decided = dict(zip(points, _decide(t, points)))
    stray = [v for v in points if decided[v] and v not in table]
    if stray:
        raise ConsistencyError(f"predicted weight {canonical(stray[0], p)} missing from the"
                               f" nine-weight table {params}")
    steps = []
    for i, w in enumerate(order):
        out, targets, stuck = [], [], []
        for j, vs in zip(levels, implied[2 * i:2 * i + 2]):
            forced = [table[v] for v in vs if decided[v]]
            if len(forced) == 1:
                out.append((w, order[forced[0]], j))
                targets += forced
            elif forced:
                stuck.append((w, j, tuple([order[k] for k in forced])))
        steps.append((tuple(out), tuple(targets), tuple(stuck)))
    return _Frame(case, params, table, order, PredictedSet(p, frozenset(order), t),
                  tuple(families), tuple(steps), decided)


def cycle(t: TameType, start: WeightClass) -> CyclingGraph:
    """Run the cycling closure from a strongly generic predicted weight.

    The type is located in a nine-weight table, directly or in dual form
    (the graph's case and params).  The start must be 4-generic, which
    covers all nine table weights (some just miss 6-genericity), and
    predicted for the type: its membership is read from the frame's
    cross-checked decisions, which hold every table weight, and asked of
    `is_predicted` only for a start the frame did not decide or a type the
    frame refuses, so a reducible type gets the refusal of its orbit
    representative after the genericity check.  The closure is a BFS over
    table indices from the start's, joining each reached index's
    precomputed edges and stalls, so it hashes no weight record.
    """
    if not is_generic(start):
        raise ValueError(f"start weight {start} is not 4-generic")
    try:
        frame = _frame(t)
    except Exception:
        _check_start(start, t)  # the start's refusal comes before the type's
        raise
    _check_start(start, t, frame.decided.get(start.coords) if start.p == t.p else None)
    i = frame.table.get(start.coords)
    if i is None:
        raise ConsistencyError(
            f"predicted start {start} missing from the nine-weight table {frame.params}"
        )
    order, steps = frame.order, frame.steps
    start = order[i]  # the table's object
    reached = [False] * len(order)
    reached[i] = True
    queue = [i]  # iterated while it grows: a FIFO queue
    edges: list[tuple[WeightClass, WeightClass, int]] = []
    stalls: list[tuple[WeightClass, int, tuple[WeightClass, ...]]] = []
    for i in queue:
        out, targets, stuck = steps[i]
        edges += out
        stalls += stuck
        for k in targets:
            if not reached[k]:
                reached[k] = True
                queue.append(k)
    if len(queue) == len(order):
        status, nodes, stuck_node, reason = STATUS_COMPLETE, frame.predicted.weights, None, None
    else:
        status, nodes = STATUS_STUCK, frozenset([order[k] for k in queue])
        stuck_node = order[reached.index(False)]
        reason = f"closure reached {len(queue)} of {len(order)} predicted weights"
    return CyclingGraph(t.p, frame.case, frame.params, t, start, nodes,
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
