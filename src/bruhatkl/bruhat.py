"""Bruhat order, Bruhat graphs, and the interval statistics built on them.

The Bruhat graph has an edge u -> w whenever w = ut for a reflection t and
l(u) < l(w); Bruhat order is the reachability order of this graph.  The
order has one representation: per-element bitmasks of lower cones, built
on demand with the lifting property along one descent chain, so a single
comparison builds at most l(w) + 1 masks and every comparison is one bit
test.  The Bruhat graph is built per element the same way, one row per
element: the row of x holds all its neighbors xt, out-neighbors above
x and in-neighbors below it, and is the row of xs moved by s, so one
row builds at most the l(x) + 1 rows of its descent chain.  Whole-group
scans complete the masks and the rows in one pass over the group, and
read each out-row as one mask too (``_up_masks``), so that the
out-neighbors of x below w are the mask up(x) & lower(w) and a count of
them is a popcount.  One-shot queries read the id rows only: a mask row
is as wide as the group's order.

Interval statistics:

* ``absolute_length(u, w)`` -- fewest Bruhat-graph edges on a directed path
  from u to w (every such path automatically stays inside [u, w]);
* ``neighborhood(u, w)``    -- all v with u -> v and v <= w;
* ``defect(u, w)``          -- |neighborhood| - (l(w) - l(u)), the count of
  outgoing bottom edges beyond the interval length (nonnegative by
  Deodhar's inequality, which the check suite asserts rather than assumes).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Iterator

from bruhatkl.coxeter import (
    GroupContext,
    GroupElement,
    _check_same_context,
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


# bin(mask) digits as bytes 0 and 1, the selectors of ``compress``
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: int) -> Iterator[int]:
    """The set-bit indices of a mask, in increasing order.

    A dense mask is read from its binary digits, reversed, as the
    selectors of ``compress``: C-level work linear in the width n, done
    once, after a fixed cost of about three steps of the other way.  A
    sparse one is walked by its lowest set bit, one Python step per set
    bit, each step also linear in n (it clears a bit of an n-bit int).
    So the walk wins below a density that falls as n grows, and below
    about 6 set bits at any n: the digits win from 7 set bits at n = 8 or
    16, 17 at 128, about one set bit in 8 to 13 from 192 to 2,500, one in
    40 at 10,000 and one in 115 at 51,840 (random masks, CPython 3.11 on
    a shared 2-vCPU VM).  The rule below, at least (n + 64) / (10 + n/512)
    set bits, follows those crossovers; mask 0 is walked.
    """
    n = mask.bit_length()
    if mask.bit_count() * (10 + (n >> 9)) >= n + 64:
        return compress(range(n), bin(mask)[:1:-1].encode().translate(_DIGITS))
    return _lowest_bits(mask)


def _lowest_bits(mask: int) -> Iterator[int]:
    """``iter_bits`` by the lowest set bit, one step per set bit."""
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


def _row(ctx: GroupContext, xi: int) -> tuple[int, ...]:
    """All |T| Bruhat-graph neighbors xt of x, t a reflection, as sorted
    ids.  Since ids grow with length and l(xt) != l(x), the ids above x
    are its out-neighbors and the ids below x its in-neighbors.

    Built on first use like ``_lower``: the row of e is the reflections,
    and for s = srd(x) the row of x is that of xs moved by s, since
    xt = (xs)(sts)s and sts runs over the reflections as t does (Bjorner
    and Brenti, Combinatorics of Coxeter Groups, chapter 1), building the
    row of xs the same way if it is missing.
    """
    rows = ctx.tables.rows
    if rows is None:
        rows = ctx.tables.rows = [None] * ctx.order
        rows[0] = tuple(sorted(ctx.reflection_ids))
    row = rows[xi]
    if row is None:
        rmult = ctx.rmult
        s = ctx.srd[xi]
        row = rows[xi] = tuple(sorted([rmult[yi][s] for yi in _row(ctx, rmult[xi][s])]))
    return row


def _up_masks(ctx: GroupContext) -> list[int]:
    """The out-neighbors of every element as one bitmask each, bit v of
    the mask of x set iff x -> v: built on first use in one pass over the
    out-rows of ``up_adjacency``, and then kept."""
    t = ctx.tables
    if t.up_mask is None:
        t.up_mask = [sum(map((1).__lshift__, row)) for row in up_adjacency(ctx)]
    return t.up_mask


def _out_below(ctx: GroupContext, xi: int, lower: int) -> list[int]:
    """Out-neighbors of x whose bit is set in lower (the lower cone of some
    w), sorted by id, hence by length."""
    return [vi for vi in _row(ctx, xi) if vi > xi and lower >> vi & 1]


def up_adjacency(ctx: GroupContext) -> list[tuple[int, ...]]:
    """Bruhat-graph out-neighbors (as ids) of every element: the ids above
    x in its row, rows not built yet built first by increasing id."""
    if ctx.tables.rows is None or None in ctx.tables.rows:
        for xi in range(ctx.order):
            _row(ctx, xi)
    return [row[bisect_right(row, xi):] for xi, row in enumerate(ctx.tables.rows)]


def abs_len_table(w: GroupElement) -> dict[int, int]:
    """Absolute length a(v, w) for every v <= w, by one reverse BFS from w.

    Directed paths ending at w never leave [e, w], so no order filtering is
    needed; reachability doubles as an independent comparability witness.
    Nothing is stored: each call runs its own BFS.  For the whole column
    a(., w); one pair's a(u, w) is ``absolute_length``, which walks [u, w]
    only.
    """
    ctx = w.ctx
    table = {w.index: 0}
    frontier = [w.index]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for xi in frontier:
            for vi in _row(ctx, xi):
                if vi > xi:  # the in-neighbors, the ids below x, are read
                    break
                if vi not in table:
                    table[vi] = d
                    nxt.append(vi)
        frontier = nxt
    return table


def _depths(ctx: GroupContext, ui: int, wi: int) -> dict[int, int]:
    """{v: fewest Bruhat-graph edges from u to v} for every v in [u, w],
    in the order reached by a breadth-first walk from u that stays inside
    lower(w): v >= u means a directed path from u to v exists, and when
    v <= w every vertex on it lies in [u, w].  So the walk reaches w
    exactly when u <= w, and builds the Bruhat-graph rows of the interval's
    members and of their descent chains only, all below w; {} unless
    u <= w."""
    lower = _lower(ctx, wi)
    if not lower >> ui & 1:
        return {}
    dist = {ui: 0}
    queue = [ui]
    for xi in queue:  # grows while iterated: a breadth-first walk
        for vi in _out_below(ctx, xi, lower):
            if vi not in dist:
                dist[vi] = dist[xi] + 1
                queue.append(vi)
    return dist


def absolute_length(u: GroupElement, w: GroupElement) -> int:
    """Fewest edges on a directed Bruhat path from u to w: the depth of w
    in the walk of ``_depths``, which reaching w also shows comparable."""
    _check_same_context(u, w)
    a = _depths(u.ctx, u.index, w.index).get(w.index)
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
        for vi in _row(ctx, x.index):
            if vi > x.index and vi in by_id:
                edges.append((x, by_id[vi]))
    return edges


def interval(u: GroupElement, w: GroupElement) -> IntervalData:
    """The full interval [u, w] with graph, absolute length, and defect.

    Members, in id order, and a(u, w) come from the breadth-first walk of
    ``_depths``, which builds the Bruhat-graph rows of the members and of
    their descent chains only.
    """
    if not bruhat_le(u, w):
        raise ValueError(
            f"empty interval: {word_of(u)!r} and {word_of(w)!r} are incomparable"
        )
    ctx = u.ctx
    dist = _depths(ctx, u.index, w.index)
    elements = ctx.elements
    members = [elements[vi] for vi in sorted(dist)]
    nbhd = neighborhood(u, w)
    return IntervalData(
        bottom=u,
        top=w,
        members=members,
        edges=bruhat_edges(members),
        abs_len=dist[w.index],
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
