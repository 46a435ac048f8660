"""Tests for Bruhat order, interval graphs, absolute length, and defect."""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from reference_matrices import mat_mul, matrix_of  # noqa: E402

from bruhatkl import cli  # noqa: E402
from bruhatkl.bruhat import (  # noqa: E402
    _up_masks,
    abs_len_table,
    absolute_length,
    bruhat_edges,
    bruhat_le,
    comparable_pairs,
    defect,
    interval,
    interval_to_dot,
    interval_to_json,
    iter_bits,
    le_masks,
    neighborhood,
    up_adjacency,
)
from bruhatkl.coxeter import (  # noqa: E402
    _mul,
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)

_CACHE = {}


def ctx_for(spec):
    if spec not in _CACHE:
        _CACHE[spec] = build_group(parse_group_spec(spec))
    return _CACHE[spec]


def elements(ctx, *words):
    return [parse_element(ctx, w) for w in words]


def test_bruhat_le_basics():
    ctx = ctx_for("A2")
    s1, s2, s2s1 = elements(ctx, "1", "2", "2 1")
    for w in ctx.elements:
        assert bruhat_le(ctx.identity, w)
        assert bruhat_le(w, w)
    assert not bruhat_le(s1, s2)
    assert not bruhat_le(s2, s1)
    assert bruhat_le(s1, s2s1)
    assert not bruhat_le(s2s1, s1)


def subword_oracle(ctx, w):
    """Ids u with u <= w, independently of the masks: u <= w iff some
    subword of a fixed reduced word for w multiplies to u."""
    from itertools import combinations

    letters = [] if w.length == 0 else word_of(w).split()
    return {
        parse_element(ctx, " ".join(letters[p] for p in positions)).index
        for r in range(len(letters) + 1)
        for positions in combinations(range(len(letters)), r)
    }


def test_bruhat_le_matches_subword_oracle():
    ctx = ctx_for("A3")
    for w in ctx.elements:
        reachable = subword_oracle(ctx, w)
        for u in ctx.elements:
            assert bruhat_le(u, w) == (u.index in reachable)


def test_le_masks_agree_with_recursion():
    # one-shot comparisons on a fresh context build masks on demand, top
    # elements first; the completed table must agree with them and with
    # the subword oracle
    for spec in ("A3", "B3", "G2"):
        ctx = build_group(parse_group_spec(spec))  # fresh: no masks
        oracle = {w.index: subword_oracle(ctx, w) for w in ctx.elements}
        for w in reversed(ctx.elements):
            for u in ctx.elements:
                assert bruhat_le(u, w) == (u.index in oracle[w.index])
        assert 0 not in ctx.tables.le  # every mask built on demand
        masks = le_masks(ctx)
        assert masks is le_masks(ctx)
        for wi, below in oracle.items():
            assert masks[wi] == sum(1 << ui for ui in below)


def test_one_shot_queries_build_one_descent_chain():
    for query in (bruhat_le, interval):
        ctx = build_group(parse_group_spec("A5"))  # fresh: no masks
        u, w = parse_element(ctx, "2 3"), ctx.elements[-1]
        query(u, w)
        built = sum(1 for m in ctx.tables.le if m)
        assert 1 < built <= w.length + 1
        assert all(le_masks(ctx))


def _command(name):
    """The CLI command ``name`` on the pair (u, w), as a one-shot query."""

    def query(u, w):
        argv = [name, "--group", u.ctx.name, "--u", word_of(u), "--w", word_of(w)]
        assert cli.main(argv) == 0

    query.__name__ = name  # the test id
    return query


def _members(ctx, u, w):
    """The ids of the members of [u, w]."""
    masks = le_masks(ctx)
    return {vi for vi in iter_bits(masks[w.index]) if masks[vi] >> u.index & 1}


def _with_chains(ctx, ids):
    """The given ids and every element on the descent chain x, xs, ... (s
    the smallest right descent each time) of each x among them: the rows
    that building the rows of the ids builds."""
    out = {0}
    for xi in ids:
        while xi not in out:
            out.add(xi)
            xi = ctx.rmult[xi][ctx.srd[xi]]
    return out


def _rows_built(ctx):
    return {xi for xi, row in enumerate(ctx.tables.rows) if row is not None}


@pytest.mark.parametrize(
    "query",
    [absolute_length, defect, interval, _command("table"), _command("graph")],
)
def test_one_shot_queries_build_rows_below_w_only(query, monkeypatch):
    # the rows of the members of [u, w] and of the descent chains below
    # them, and no mask rows, which are as wide as the group's order
    ctx = build_group(parse_group_spec("A4"))  # fresh: no Bruhat-graph rows
    monkeypatch.setattr(cli, "_load_group", lambda args: ctx)
    u, w = elements(ctx, "2", "2 1 3 2 4 3")
    query(u, w)
    built = _rows_built(ctx)
    assert built and None in ctx.tables.rows
    # defect reads the row of u alone; the others walk [u, w]
    read = {u.index} if query is defect else _members(ctx, u, w)
    assert built == _with_chains(ctx, read)
    assert all(bruhat_le(ctx.elements[xi], w) for xi in built)
    assert ctx.tables.up_mask is None


def test_interval_builds_rows_of_members_and_their_chains_only():
    ctx = build_group(parse_group_spec("A5"))  # fresh: no Bruhat-graph rows
    u, w = elements(ctx, "2", "2 1 3 2 4 3 5 4")
    data = interval(u, w)
    built = _rows_built(ctx)
    assert built == _with_chains(ctx, [g.index for g in data.members])
    assert all(bruhat_le(ctx.elements[xi], w) for xi in built)
    assert data.abs_len == absolute_length(u, w)
    assert ctx.tables.up_mask is None


def test_absolute_length_builds_rows_of_members_and_their_chains_only():
    # a forward walk from u inside lower(w) visits [u, w] alone: 14 members
    # here, plus their descent chains, 42 rows in all, where a walk back
    # from w visits all 146 elements below w
    ctx = build_group(parse_group_spec("A5"))  # fresh: no Bruhat-graph rows
    u, w = elements(ctx, "2 1 3 2", "2 1 3 2 4 3 5 4")
    assert absolute_length(u, w) == 2
    built = _rows_built(ctx)
    members = _members(ctx, u, w)
    assert len(members) == 14 and len(built) == 42
    assert built == _with_chains(ctx, members)
    assert all(bruhat_le(ctx.elements[xi], w) for xi in built)
    assert ctx.tables.up_mask is None
    assert len(abs_len_table(w)) == 146


def test_interval_members_match_masks():
    for spec in ("A3", "B3"):
        ctx = ctx_for(spec)
        masks = le_masks(ctx)
        for ui, wi in comparable_pairs(ctx):
            data = interval(ctx.elements[ui], ctx.elements[wi])
            between = [vi for vi in range(ctx.order) if masks[vi] >> ui & 1]
            assert [g.index for g in data.members] == [
                vi for vi in between if masks[wi] >> vi & 1
            ]


def test_inverse_symmetry():
    ctx = ctx_for("B2")
    inverse = [ctx.elements[i] for i in ctx.inv]
    for u in ctx.elements:
        for w in ctx.elements:
            assert bruhat_le(u, w) == bruhat_le(inverse[u.index], inverse[w.index])


def test_interval_counts_a2():
    ctx = ctx_for("A2")
    w0 = ctx.elements[-1]
    data = interval(ctx.identity, w0)
    assert len(data.members) == 6
    assert len(data.edges) == 9
    assert data.abs_len == 1
    assert data.defect == 0
    assert [g.length for g in data.members] == [0, 1, 1, 2, 2, 3]
    # every edge jumps by an odd length
    assert all((y.length - x.length) % 2 == 1 for x, y in data.edges)


def test_interval_singleton_and_boolean():
    ctx = ctx_for("A2")
    w, s1s2 = elements(ctx, "1", "1 2")
    data = interval(w, w)
    assert len(data.members) == 1 and data.edges == [] and data.abs_len == 0
    data = interval(ctx.identity, s1s2)
    assert len(data.members) == 4
    assert len(data.edges) == 4
    assert data.abs_len == 2


def test_boolean_rank3_interval_in_a3():
    ctx = ctx_for("A3")
    found = None
    for w in ctx.elements:
        if w.length == 3 and len(interval(ctx.identity, w).members) == 8:
            found = interval(ctx.identity, w)
            break
    assert found is not None
    assert len(found.edges) == 12
    assert found.abs_len == 3


def test_interval_incomparable_raises():
    ctx = ctx_for("A2")
    s1, s2 = elements(ctx, "1", "2")
    with pytest.raises(ValueError):
        interval(s1, s2)


def test_absolute_length():
    ctx = ctx_for("A2")
    w0 = ctx.elements[-1]
    assert absolute_length(ctx.identity, w0) == 1
    assert absolute_length(w0, w0) == 0
    s1, s2, s1s2 = elements(ctx, "1", "2", "1 2")
    assert absolute_length(ctx.identity, s1s2) == 2
    with pytest.raises(ValueError):
        absolute_length(s1, s2)


def test_absolute_length_parity_and_bound():
    for spec in ("A3", "B2"):
        ctx = ctx_for(spec)
        for ui, wi in comparable_pairs(ctx):
            u, w = ctx.elements[ui], ctx.elements[wi]
            a = absolute_length(u, w)
            ell = w.length - u.length
            assert a <= ell
            assert (a - ell) % 2 == 0


def test_reachability_matches_order():
    ctx = ctx_for("A3")
    masks = le_masks(ctx)
    for w in ctx.elements:
        reach = set(abs_len_table(w))
        order = {ui for ui in range(ctx.order) if masks[w.index] >> ui & 1}
        assert reach == order


def test_neighborhood_and_defect_a2():
    ctx = ctx_for("A2")
    w0 = ctx.elements[-1]
    nb = neighborhood(ctx.identity, w0)
    assert [g.length for g in nb] == [1, 1, 3]
    assert defect(ctx.identity, w0) == 0
    s1 = parse_element(ctx, "1")
    assert [g.length for g in neighborhood(s1, w0)] == [2, 2]
    assert defect(s1, w0) == 0
    # atom interval
    assert neighborhood(ctx.identity, s1) == [s1]
    assert defect(ctx.identity, s1) == 0


def test_defect_a3_singular_pair():
    ctx = ctx_for("A3")
    w = parse_element(ctx, "2 1 3 2")
    assert w.length == 4
    assert len(neighborhood(ctx.identity, w)) == 5
    assert defect(ctx.identity, w) == 1


def test_deodhar_nonnegative_small():
    for spec in ("A3", "B2", "G2"):
        ctx = ctx_for(spec)
        for ui, wi in comparable_pairs(ctx):
            assert defect(ctx.elements[ui], ctx.elements[wi]) >= 0


def test_m_count():
    # m(u, w), the number of directed paths u -> v -> w, as le1_le2_le3
    # reads it off the adjacency: 2 on every pair at absolute length 2
    ctx = ctx_for("A2")
    up_adjacency(ctx)
    rows = ctx.tables.rows

    def m(u, w):
        ins = {vi for vi in rows[w.index] if vi < w.index}
        return sum(1 for vi in rows[u.index] if vi > u.index and vi in ins)

    e, s1, s1s2, s2s1, w0 = elements(ctx, "e", "1", "1 2", "2 1", "1 2 1")
    for u, w in ((e, s1s2), (e, s2s1), (s1, w0)):
        assert absolute_length(u, w) == 2 and m(u, w) == 2
    assert absolute_length(e, w0) == 1 and m(e, w0) == 0  # no path of length 2


def test_up_adjacency_edge_lengths_odd():
    ctx = ctx_for("B2")
    up = up_adjacency(ctx)
    for u in ctx.elements:
        for vi in up[u.index]:
            assert (ctx.elements[vi].length - u.length) % 2 == 1
    # edges out of e are exactly the reflections
    assert sorted(up[0]) == sorted(t.index for t in ctx.reflections)


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "G2"])
def test_adjacency_matches_matrix_products(spec):
    # reference: the row of u is every ut, t a reflection, with ut found by
    # multiplying the geometric-representation matrices; its ids below u
    # are the in-neighbors, shorter than u, and those above the
    # out-neighbors, longer; checked on a context with no rows and on one
    # whose rows a query partly built
    ctx = ctx_for(spec)
    partial = build_group(parse_group_spec(spec))
    interval(partial.identity, partial.elements[partial.order // 2])
    assert None in partial.tables.rows
    by_matrix = {matrix_of(g): g for g in ctx.elements}
    rows = [
        sorted(by_matrix[mat_mul(matrix_of(u), matrix_of(t))].index for t in ctx.reflections)
        for u in ctx.elements
    ]
    for c in (ctx, partial):
        up = up_adjacency(c)
        assert [list(row) for row in c.tables.rows] == rows
        for u, row, out in zip(c.elements, rows, up):
            assert list(out) == [vi for vi in row if vi > u.index]
            assert all(c.lengths[vi] > u.length for vi in out)
            assert all(c.lengths[vi] < u.length for vi in row if vi < u.index)


def test_rows_match_products_along_deep_chains_on_e6():
    # an interval query on E6 builds rows along descent chains of length
    # up to 16, each the row below it moved by one generator; each must be
    # the products xt over the 36 reflections
    ctx = build_group(parse_group_spec("E6"), 51840)
    u, w = elements(ctx, "1", "1 2 3 1 4 2 3 1 4 3 5 4 2 3 1 4")
    interval(u, w)
    built = _rows_built(ctx)
    assert len(ctx.reflection_ids) == 36
    assert max(ctx.lengths[xi] for xi in built) == 16
    for xi in built:
        assert list(ctx.tables.rows[xi]) == sorted(
            _mul(ctx, xi, ti) for ti in ctx.reflection_ids
        )


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "G2"])
def test_mask_rows_match_id_rows(spec):
    # bit v of the mask row of x is set exactly when v is in the id row of
    # x; the masks are built whole, once, and then kept
    ctx = build_group(parse_group_spec(spec))
    masks = _up_masks(ctx)
    assert masks is _up_masks(ctx) is ctx.tables.up_mask
    up = up_adjacency(ctx)
    assert len(masks) == len(up) == ctx.order
    for mask, row in zip(masks, up):
        assert list(iter_bits(mask)) == list(row)
        assert mask == sum(1 << v for v in row)


def test_dot_export():
    ctx = ctx_for("A2")
    data = interval(ctx.identity, ctx.elements[-1])
    dot = interval_to_dot(data)
    assert dot.startswith("// interval [e, 1 2 1] in A2: 6 vertices, 9 edges")
    assert dot.count("->") == 9
    assert '"e" -> "1 2 1" [len=3];' in dot
    assert "rank=same" in dot


def test_json_export():
    ctx = ctx_for("A2")
    data = interval(ctx.identity, ctx.elements[-1])
    obj = json.loads(json.dumps(interval_to_json(data)))
    assert obj["group"] == "A2"
    assert obj["members"][0] == "e" and obj["top"] == "1 2 1"
    assert len(obj["edges"]) == 9
    assert obj["defect"] == 0 and obj["abs_len"] == 1


def _lowest_set_bits(mask):
    """The set-bit indices by clearing the lowest set bit: the reference."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_iter_bits_matches_the_lowest_bit_loop():
    # edge masks, and random masks on both sides of the dense/sparse
    # crossover ((width + 64) / (10 + width/512) set bits) at each width
    masks = [0, 1, 1 << 51839, (1 << 720) - 1]
    rng = random.Random(24)
    for width in (30, 384, 720, 51840):
        for every in (2, 5, 9, 14, 40, 200, 1000):
            k = max(1, width // every)
            masks.append(sum(1 << b for b in rng.sample(range(width), k)))
    kinds = set()
    for mask in masks:
        it = iter_bits(mask)
        kinds.add(type(it).__name__)
        assert list(it) == _lowest_set_bits(mask)
    assert kinds == {"compress", "generator"}
