"""Bruhat order, Bruhat graphs, and the interval statistics built on them.

The Bruhat graph has an edge u -> w whenever w = ut for a reflection t and
l(u) < l(w); Bruhat order is the reachability order of this graph.  The
order has one representation: per-element bitmasks of lower cones, built
on demand with the lifting property along one descent chain, so a single
comparison builds at most l(w) + 1 masks and every comparison is one bit
test.  Whole-group scans complete the masks in one pass over the group.

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
    "ge_masks",
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
    each one needs only masks already built; later calls return at once.
    """
    t = ctx.tables
    if not t.le_complete:
        for wi in range(ctx.order):
            _lower(ctx, wi)
        t.le_complete = True
    return t.le


def ge_masks(ctx: GroupContext) -> list[int]:
    """Bitmask per element id: bit w of ge_masks[u] set iff u <= w."""
    t = ctx.tables
    if t.ge is None:
        lower = le_masks(ctx)
        up = [0] * ctx.order
        for wi in range(ctx.order):
            m = lower[wi]
            while m:
                lsb = m & -m
                up[lsb.bit_length() - 1] |= 1 << wi
                m ^= lsb
        t.ge = up
    return t.ge


def iter_bits(mask: int):
    """Yield set-bit indices of a mask in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def comparable_pairs(ctx: GroupContext) -> list[tuple[int, int]]:
    """All id pairs (u, w) with u <= w, ordered by w id then u id.

    One list per context, built on first use: the checks sweep it about
    twenty times per run, and a list is read faster than masks are walked.
    """
    t = ctx.tables
    if t.pairs is None:
        lower = le_masks(ctx)
        t.pairs = [(ui, wi) for wi in range(ctx.order) for ui in iter_bits(lower[wi])]
    return t.pairs


def _adjacency(ctx: GroupContext) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    tables = ctx.tables
    if tables.adjacency is None:
        lengths = ctx.lengths
        up: list[list[int]] = [[] for _ in range(ctx.order)]
        down: list[list[int]] = [[] for _ in range(ctx.order)]
        for ui in range(ctx.order):
            for t in ctx.reflections:
                vi = _mul(ctx, ui, t.index)
                if lengths[vi] > lengths[ui]:
                    up[ui].append(vi)
                    down[vi].append(ui)
        tables.adjacency = (
            [tuple(sorted(xs)) for xs in up],
            [tuple(sorted(xs)) for xs in down],
        )
    return tables.adjacency


def up_adjacency(ctx: GroupContext) -> list[tuple[int, ...]]:
    """Bruhat-graph out-neighbors (as ids) of every element."""
    return _adjacency(ctx)[0]


def down_adjacency(ctx: GroupContext) -> list[tuple[int, ...]]:
    """Bruhat-graph in-neighbors (as ids) of every element."""
    return _adjacency(ctx)[1]


def abs_len_table(w: GroupElement) -> dict[int, int]:
    """Absolute length a(v, w) for every v <= w, by one reverse BFS from w.

    Directed paths ending at w never leave [e, w], so no order filtering is
    needed; reachability doubles as an independent comparability witness.
    """
    ctx = w.ctx
    table = ctx.tables.abs_len.get(w.index)
    if table is None:
        down = down_adjacency(ctx)
        table = {w.index: 0}
        frontier = [w.index]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for xi in frontier:
                for vi in down[xi]:
                    if vi not in table:
                        table[vi] = d
                        nxt.append(vi)
            frontier = nxt
        ctx.tables.abs_len[w.index] = table
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
    """All v with u -> v and v <= w, sorted by (length, id): adjacency
    rows are sorted by id, and ids grow with length."""
    _check_same_context(u, w)
    ctx = u.ctx
    lower = _lower(ctx, w.index)
    return [ctx.elements[vi] for vi in up_adjacency(ctx)[u.index] if lower >> vi & 1]


def defect(u: GroupElement, w: GroupElement) -> int:
    """Outgoing bottom edges inside [u, w] minus the interval length."""
    _require_le(u, w)
    return len(neighborhood(u, w)) - (w.length - u.length)


def _defects(ctx: GroupContext, wi: int) -> dict[int, int]:
    """Defect of every x <= w under w, one adjacency sweep per top element."""
    table = ctx.tables.defects.get(wi)
    if table is None:
        up = up_adjacency(ctx)
        lengths = ctx.lengths
        wm = _lower(ctx, wi)
        table = {}
        for xi in iter_bits(wm):
            nb = sum(1 for vi in up[xi] if wm >> vi & 1)
            table[xi] = nb - (lengths[wi] - lengths[xi])
        ctx.tables.defects[wi] = table
    return table


def bruhat_edges(
    members: list[GroupElement],
) -> list[tuple[GroupElement, GroupElement]]:
    """All directed Bruhat-graph edges between the given elements."""
    if not members:
        return []
    ctx = members[0].ctx
    up = up_adjacency(ctx)
    member_ids = {g.index for g in members}
    edges = []
    for x in sorted(members, key=lambda g: (g.length, g.index)):
        for vi in up[x.index]:
            if vi in member_ids:
                edges.append((x, ctx.elements[vi]))
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
    up = up_adjacency(ctx)
    lower = _lower(ctx, w.index)
    seen = {u.index}
    queue = [u.index]
    for xi in queue:  # grows while iterated: a breadth-first walk
        for vi in up[xi]:
            if vi not in seen and lower >> vi & 1:
                seen.add(vi)
                queue.append(vi)
    members = [ctx.elements[vi] for vi in sorted(seen)]
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
