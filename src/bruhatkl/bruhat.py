"""Bruhat order, Bruhat graphs, and the interval statistics built on them.

The Bruhat graph has an edge u -> w whenever w = ut for a reflection t and
l(u) < l(w); Bruhat order is the reachability order of this graph.  Single
comparisons use the classical lifting recursion (strip the smallest right
descent of the top element), memoized on element-id pairs, until the
per-element bitmasks of lower cones are built; whole-group scans build
those masks in one pass over the group, and every later comparison is one
bit test.

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
    _mat_mul,
    right_descents,
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
    "m_count",
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


def _smallest_right_descent(ctx: GroupContext) -> list[int]:
    """Smallest-index right descent per element (-1 for the identity)."""
    t = ctx.tables
    if t.srd is None:
        t.srd = [ds[0] if (ds := right_descents(w)) else -1 for w in ctx.elements]
    return t.srd


def _lengths(ctx: GroupContext) -> list[int]:
    t = ctx.tables
    if t.lengths is None:
        t.lengths = [g.length for g in ctx.elements]
    return t.lengths


def bruhat_le(u: GroupElement, w: GroupElement) -> bool:
    """Whether u <= w in Bruhat order (lifting-property recursion, memoized)."""
    if u.ctx is not w.ctx:
        raise ValueError("context mismatch: elements from different groups")
    return _le(u.ctx, u.index, w.index)


def _le(ctx: GroupContext, ui: int, wi: int) -> bool:
    """bruhat_le on ids: one mask test once le_masks is built, else the
    memoized recursion, which one-shot queries on large groups need since
    building the masks costs far more than a few comparisons."""
    masks = ctx.tables.le
    if masks is not None:
        return bool(masks[wi] >> ui & 1)
    memo = ctx.tables.le_memo
    srd = _smallest_right_descent(ctx)
    rmult = ctx.rmult
    lengths = _lengths(ctx)

    def rec(ui: int, wi: int) -> bool:
        if ui == 0 or ui == wi:
            return True
        if lengths[ui] >= lengths[wi]:
            return False
        key = (ui, wi)
        res = memo.get(key)
        if res is None:
            s = srd[wi]
            us = rmult[ui][s]
            res = rec(us if lengths[us] < lengths[ui] else ui, rmult[wi][s])
            memo[key] = res
        return res

    return rec(ui, wi)


def le_masks(ctx: GroupContext) -> list[int]:
    """Bitmask per element id: bit u of le_masks[w] set iff u <= w.

    Filled by increasing id (hence length) with the lifting property: for
    a right descent s of w, lower(w) = lower(ws) | lower(ws)*s (Bjorner and
    Brenti, Combinatorics of Coxeter Groups, section 2.2).
    """
    t = ctx.tables
    if t.le is None:
        srd = _smallest_right_descent(ctx)
        rmult = ctx.rmult
        masks = [0] * ctx.order
        masks[0] = 1
        for wi in range(1, ctx.order):
            s = srd[wi]
            below = masks[rmult[wi][s]]
            m = below
            for xi in iter_bits(below):
                m |= 1 << rmult[xi][s]
            masks[wi] = m
        t.le = masks
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


def comparable_pairs(ctx: GroupContext):
    """Yield all id pairs (u, w) with u <= w, ordered by w id then u id."""
    lower = le_masks(ctx)
    for wi in range(ctx.order):
        for ui in iter_bits(lower[wi]):
            yield ui, wi


def _adjacency(ctx: GroupContext) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    tables = ctx.tables
    if tables.adjacency is None:
        up: list[list[int]] = [[] for _ in range(ctx.order)]
        down: list[list[int]] = [[] for _ in range(ctx.order)]
        for u in ctx.elements:
            for t in ctx.reflections:
                v = ctx.element_by_matrix(_mat_mul(u.matrix, t.matrix))
                if v.length > u.length:
                    up[u.index].append(v.index)
                    down[v.index].append(u.index)
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
    if u.ctx is not w.ctx:
        raise ValueError("context mismatch: elements from different groups")
    a = abs_len_table(w).get(u.index)
    if a is None:
        raise ValueError(
            f"elements {word_of(u)!r} and {word_of(w)!r} are incomparable"
        )
    return a


def neighborhood(u: GroupElement, w: GroupElement) -> list[GroupElement]:
    """All v with u -> v and v <= w, sorted by (length, id)."""
    ctx = u.ctx
    up = up_adjacency(ctx)
    out = [
        ctx.elements[vi] for vi in up[u.index] if bruhat_le(ctx.elements[vi], w)
    ]
    out.sort(key=lambda g: (g.length, g.index))
    return out


def defect(u: GroupElement, w: GroupElement) -> int:
    """Outgoing bottom edges inside [u, w] minus the interval length."""
    if not bruhat_le(u, w):
        raise ValueError(
            f"elements {word_of(u)!r} and {word_of(w)!r} are incomparable"
        )
    return len(neighborhood(u, w)) - (w.length - u.length)


def m_count(u: GroupElement, w: GroupElement) -> int:
    """Number of length-2 directed paths u -> v -> w (requires a(u, w) = 2)."""
    if absolute_length(u, w) != 2:
        raise ValueError("m_count requires a pair at absolute length 2")
    ctx = u.ctx
    down_set = set(down_adjacency(ctx)[w.index])
    return sum(1 for vi in up_adjacency(ctx)[u.index] if vi in down_set)


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

    Membership is computed by filtering the enumerated group with a length
    window and two memoized order comparisons per candidate.
    """
    if u.ctx is not w.ctx:
        raise ValueError("context mismatch: elements from different groups")
    if not bruhat_le(u, w):
        raise ValueError(
            f"empty interval: {word_of(u)!r} and {word_of(w)!r} are incomparable"
        )
    ctx = u.ctx
    members = [
        v
        for v in ctx.elements
        if u.length <= v.length <= w.length
        and bruhat_le(u, v)
        and bruhat_le(v, w)
    ]
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
