"""Bruhat order, Bruhat graphs, and the interval statistics built on them.

The Bruhat graph has an edge u -> w whenever w = ut for a reflection t and
l(u) < l(w); Bruhat order is the reachability order of this graph.  The
order has one representation: per-element bitmasks of lower cones, built
on demand with the lifting property along one descent chain, so a single
comparison builds at most l(w) + 1 masks and every comparison is one bit
test.  The Bruhat graph is built per element the same way: the first read
of either row of x (its out- or in-neighbors) builds both.  Whole-group
scans complete the masks and the rows in one pass over the group.

Interval statistics:

* ``absolute_length(u, w)`` -- fewest Bruhat-graph edges on a directed path
  from u to w (every such path automatically stays inside [u, w]);
* ``neighborhood(u, w)``    -- all v with u -> v and v <= w;
* ``defect(u, w)``          -- |neighborhood| - (l(w) - l(u)), the count of
  outgoing bottom edges beyond the interval length (nonnegative by
  Deodhar's inequality, which the check suite asserts rather than assumes).
"""

from __future__ import annotations

from dataclasses import dataclass

from bruhatkl.coxeter import (
    GroupContext,
    GroupElement,
    _check_same_context,
    _mul,
    word_of,
)

__all__ = [
    "IntervalData",
    "bruhat_le",
    "interval",
    "bruhat_edges",
    "absolute_length",
    "neighborhood",
    "defect",
    "le_masks",
    "up_adjacency",
    "down_adjacency",
    "abs_len_table",
    "comparable_pairs",
    "iter_bits",
    "interval_to_dot",
    "interval_to_json",
]


@dataclass
class IntervalData:
    """A Bruhat interval [u, w] with its graph and bottom-vertex statistics."""

    bottom: GroupElement
    top: GroupElement
    members: list[GroupElement]
    edges: list[tuple[GroupElement, GroupElement]]
    abs_len: int
    nbhd: list[GroupElement]
    defect: int


def bruhat_le(u: GroupElement, w: GroupElement) -> bool:
    """Whether u <= w in Bruhat order."""
    _check_same_context(u, w)
    return _le(u.ctx, u.index, w.index)


def _require_le(u: GroupElement, w: GroupElement) -> None:
    """Raise ValueError unless u <= w."""
    if not bruhat_le(u, w):
        raise ValueError(
            f"elements {word_of(u)!r} and {word_of(w)!r} are incomparable"
        )


def _le(ctx: GroupContext, ui: int, wi: int) -> bool:
    """bruhat_le on ids."""
    return bool(_lower(ctx, wi) >> ui & 1)


def _lower(ctx: GroupContext, wi: int) -> int:
    """Bitmask of the lower cone of w: bit u set iff u <= w.

    Built on first use by the lifting property: for the smallest right
    descent s of w, lower(w) = lower(ws) | lower(ws)*s (Bjorner and Brenti,
    Combinatorics of Coxeter Groups, section 2.2), building lower(ws) the
    same way if it is missing.
    """
    masks = ctx.tables.le
    if masks is None:
        masks = ctx.tables.le = [1] + [0] * (ctx.order - 1)
    m = masks[wi]
    if not m:
        rmult = ctx.rmult
        s = ctx.srd[wi]
        m = below = _lower(ctx, rmult[wi][s])
        for xi in iter_bits(below):
            m |= 1 << rmult[xi][s]
        masks[wi] = m
    return m


def le_masks(ctx: GroupContext) -> list[int]:
    """Bitmask per element id: bit u of le_masks[w] set iff u <= w.

    Builds the masks not built yet by increasing id (hence length), so
    each one needs only masks already built, and returns the stored list.
    """
    if ctx.tables.le is None or 0 in ctx.tables.le:
        for wi in range(ctx.order):
            _lower(ctx, wi)
    return ctx.tables.le


def iter_bits(mask: int):
    """Yield set-bit indices of a mask in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def comparable_pairs(ctx: GroupContext) -> list[tuple[int, int]]:
    """All id pairs (u, w) with u <= w, ordered by w id then u id.

    A new list per call, read off ``le_masks``; nothing is stored, since a
    whole-group list is large (396,809 pairs on F4) and the library's own
    sweeps walk the masks top by top instead.
    """
    lower = le_masks(ctx)
    return [(ui, wi) for wi in range(ctx.order) for ui in iter_bits(lower[wi])]


def _row(ctx: GroupContext, xi: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bruhat-graph out- and in-neighbors of x as sorted ids, both built on
    first use: v = xt for a reflection t is an out-neighbor iff l(v) > l(x)."""
    t = ctx.tables
    if t.up is None:
        t.up, t.down = [None] * ctx.order, [None] * ctx.order
    if t.up[xi] is None:
        lengths = ctx.lengths
        rows = [], []  # out, in
        for ti in ctx.reflection_ids:
            vi = _mul(ctx, xi, ti)
            rows[lengths[vi] < lengths[xi]].append(vi)
        t.up[xi], t.down[xi] = tuple(sorted(rows[0])), tuple(sorted(rows[1]))
    return t.up[xi], t.down[xi]


def _out_below(ctx: GroupContext, xi: int, lower: int) -> list[int]:
    """Out-neighbors of x whose bit is set in lower (the lower cone of some
    w), sorted by id, hence by length."""
    return [vi for vi in _row(ctx, xi)[0] if lower >> vi & 1]


def up_adjacency(ctx: GroupContext) -> list[tuple[int, ...]]:
    """Bruhat-graph out-neighbors (as ids) of every element: the stored
    rows, any not built yet built first by increasing id."""
    if ctx.tables.up is None or None in ctx.tables.up:
        for xi in range(ctx.order):
            _row(ctx, xi)
    return ctx.tables.up


def down_adjacency(ctx: GroupContext) -> list[tuple[int, ...]]:
    """Bruhat-graph in-neighbors (as ids) of every element."""
    up_adjacency(ctx)  # builds both rows of every element
    return ctx.tables.down


def abs_len_table(w: GroupElement) -> dict[int, int]:
    """Absolute length a(v, w) for every v <= w, by one reverse BFS from w.

    Directed paths ending at w never leave [e, w], so no order filtering is
    needed; reachability doubles as an independent comparability witness.
    Nothing is stored: each call runs its own BFS.
    """
    ctx = w.ctx
    table = {w.index: 0}
    frontier = [w.index]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for xi in frontier:
            for vi in _row(ctx, xi)[1]:
                if vi not in table:
                    table[vi] = d
                    nxt.append(vi)
        frontier = nxt
    return table


def absolute_length(u: GroupElement, w: GroupElement) -> int:
    """Fewest edges on a directed Bruhat path from u to w."""
    _check_same_context(u, w)
    a = abs_len_table(w).get(u.index)
    if a is None:
        raise ValueError(
            f"elements {word_of(u)!r} and {word_of(w)!r} are incomparable"
        )
    return a


def neighborhood(u: GroupElement, w: GroupElement) -> list[GroupElement]:
    """All v with u -> v and v <= w, sorted by (length, id): Bruhat-graph
    rows are sorted by id, and ids grow with length."""
    _check_same_context(u, w)
    ctx = u.ctx
    elements = ctx.elements
    return [elements[vi] for vi in _out_below(ctx, u.index, _lower(ctx, w.index))]


def defect(u: GroupElement, w: GroupElement) -> int:
    """Outgoing bottom edges inside [u, w] minus the interval length."""
    _require_le(u, w)
    return len(neighborhood(u, w)) - (w.length - u.length)


def bruhat_edges(
    members: list[GroupElement],
) -> list[tuple[GroupElement, GroupElement]]:
    """All directed Bruhat-graph edges between the given elements."""
    if not members:
        return []
    ctx = members[0].ctx
    by_id = {g.index: g for g in members}
    edges = []
    for x in sorted(members, key=lambda g: (g.length, g.index)):
        for vi in _row(ctx, x.index)[0]:
            if vi in by_id:
                edges.append((x, by_id[vi]))
    return edges


def interval(u: GroupElement, w: GroupElement) -> IntervalData:
    """The full interval [u, w] with graph, absolute length, and defect.

    Members, in id order, are found by a breadth-first walk from u over
    Bruhat-graph edges that stays inside the lower cone of w: v >= u means
    a directed path from u to v exists, and when v <= w every vertex on it
    lies in [u, w], so the walk reaches exactly the interval.
    """
    if not bruhat_le(u, w):
        raise ValueError(
            f"empty interval: {word_of(u)!r} and {word_of(w)!r} are incomparable"
        )
    ctx = u.ctx
    lower = _lower(ctx, w.index)
    seen = {u.index}
    queue = [u.index]
    for xi in queue:  # grows while iterated: a breadth-first walk
        for vi in _out_below(ctx, xi, lower):
            if vi not in seen:
                seen.add(vi)
                queue.append(vi)
    elements = ctx.elements
    members = [elements[vi] for vi in sorted(seen)]
    nbhd = neighborhood(u, w)
    return IntervalData(
        bottom=u,
        top=w,
        members=members,
        edges=bruhat_edges(members),
        abs_len=absolute_length(u, w),
        nbhd=nbhd,
        defect=len(nbhd) - (w.length - u.length),
    )


# -- export -------------------------------------------------------------


def interval_to_dot(data: IntervalData) -> str:
    """Graphviz rendering: word-labeled vertices, one rank row per length."""
    ctx = data.bottom.ctx
    lines = [
        f"// interval [{word_of(data.bottom)}, {word_of(data.top)}] in {ctx.name}: "
        f"{len(data.members)} vertices, {len(data.edges)} edges",
        "digraph interval {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    by_length: dict[int, list[GroupElement]] = {}
    for g in data.members:
        by_length.setdefault(g.length, []).append(g)
    for ell in sorted(by_length):
        row = "; ".join(f'"{word_of(g)}"' for g in by_length[ell])
        lines.append(f"  {{ rank=same; {row}; }}")
    for x, y in data.edges:
        lines.append(
            f'  "{word_of(x)}" -> "{word_of(y)}" [len={y.length - x.length}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def interval_to_json(data: IntervalData) -> dict:
    """JSON-ready dict mirroring the IntervalData fields."""
    return {
        "group": data.bottom.ctx.name,
        "bottom": word_of(data.bottom),
        "top": word_of(data.top),
        "members": [word_of(g) for g in data.members],
        "edges": [[word_of(x), word_of(y)] for x, y in data.edges],
        "abs_len": data.abs_len,
        "nbhd": [word_of(g) for g in data.nbhd],
        "defect": data.defect,
    }
