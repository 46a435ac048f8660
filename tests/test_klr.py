"""Tests for R/Rtilde/KL tables, f/h-vectors, smoothness, strict edges."""

import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from kl_oracle import oracle_kl_table  # noqa: E402
from reference_checks import (  # noqa: E402
    add,
    delete,
    entries,
    f_one,
    interval_r_sums,
    mul,
    plant,
    sum_r_over,
)

from bruhatkl.bruhat import (  # noqa: E402
    absolute_length,
    comparable_pairs,
    defect,
    interval,
    le_masks,
)
from bruhatkl.coxeter import (  # noqa: E402
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
from bruhatkl.klr import (  # noqa: E402
    _coset_tops,
    _digits,
    _right_descents,
    _stage,
    _sums_at_q,
)
from bruhatkl.klr import (  # noqa: E402
    check_r_rtilde_link,
    fh_vectors,
    fill_tables,
    kl_at_one,
    kl_poly,
    r_poly,
    rtilde_poly,
    strict_edges,
    strict_path_to_smooth,
)
from bruhatkl.polynomial import IntPoly, _to_shifted  # noqa: E402
from bruhatkl.theorems import run_check  # noqa: E402

_CACHE = {}


def ctx_for(spec):
    if spec not in _CACHE:
        _CACHE[spec] = build_group(parse_group_spec(spec))
    return _CACHE[spec]


def elements(ctx, *words):
    return [parse_element(ctx, w) for w in words]


def test_r_poly_examples():
    ctx = ctx_for("A2")
    e, w0 = ctx.identity, ctx.elements[-1]
    for w in ctx.elements:
        assert r_poly(w, w) == IntPoly([1])
    assert r_poly(e, w0) == IntPoly([-1, 2, -2, 1])
    # boolean pairs: R = (q-1)^l
    s1, s2, s1s2 = elements(ctx, "1", "2", "1 2")
    assert r_poly(e, s1s2) == IntPoly([1, -2, 1])
    assert r_poly(s1, w0) == IntPoly([1, -2, 1])
    # incomparable pairs give 0
    assert r_poly(s1, s2).coeffs == ()


def test_r_poly_monic_degree_and_value_at_one():
    for spec in ("A3", "B2", "G2"):
        ctx = ctx_for(spec)
        for ui, wi in comparable_pairs(ctx):
            u, w = ctx.elements[ui], ctx.elements[wi]
            p = r_poly(u, w)
            assert len(p.coeffs) - 1 == w.length - u.length
            assert p.coeffs[-1] == 1
            if u != w:
                assert sum(p.coeffs) == 0  # q-1 divides R
            inv = [ctx.elements[ctx.inv[x.index]] for x in (u, w)]
            assert r_poly(*inv) == p


def test_rtilde_examples():
    ctx = ctx_for("A2")
    e, w0 = ctx.identity, ctx.elements[-1]
    assert rtilde_poly(w0, w0) == IntPoly([1])
    assert rtilde_poly(e, w0) == IntPoly([0, 1, 0, 1])  # q^3 + q
    assert rtilde_poly(e, parse_element(ctx, "1")) == IntPoly([0, 1])
    for ui, wi in comparable_pairs(ctx):
        rt = rtilde_poly(ctx.elements[ui], ctx.elements[wi])
        assert all(c >= 0 for c in rt.coeffs)


def test_r_rtilde_link():
    ctx = ctx_for("A2")
    e, w0 = ctx.identity, ctx.elements[-1]
    assert check_r_rtilde_link(e, w0)
    assert check_r_rtilde_link(e, parse_element(ctx, "1"))
    ctx3 = ctx_for("A3")
    for ui, wi in comparable_pairs(ctx3):
        if ui != wi:
            assert check_r_rtilde_link(ctx3.elements[ui], ctx3.elements[wi])
    with pytest.raises(ValueError):
        check_r_rtilde_link(e, e)


def test_r_rtilde_link_short_rt_entry_raises_positivity_error():
    # Rt entry shorter than l(u,w) + 1: the missing top coefficient reads
    # as 0, which breaks the positive support of the closed form
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx, ("R", "Rt"))
    w = ctx.elements[9]
    plant(ctx.tables.Rt, 0, 9, (0, 1))
    with pytest.raises(RuntimeError, match="should be positive"):
        check_r_rtilde_link(ctx.identity, w)


def test_kl_examples():
    ctx = ctx_for("A2")
    for ui, wi in comparable_pairs(ctx):
        assert kl_poly(ctx.elements[ui], ctx.elements[wi]) == IntPoly([1])
    ctx3 = ctx_for("A3")
    w = parse_element(ctx3, "2 1 3 2")
    assert kl_poly(ctx3.identity, w) == IntPoly([1, 1])
    assert kl_at_one(ctx3.identity, w) == 2
    s1, s2 = elements(ctx3, "1", "2")
    assert kl_poly(s2, w) == IntPoly([1, 1])
    assert kl_poly(s1, s2).coeffs == ()


def test_kl_degree_bound_and_constant_term():
    for spec in ("A3", "B2"):
        ctx = ctx_for(spec)
        for ui, wi in comparable_pairs(ctx):
            u, w = ctx.elements[ui], ctx.elements[wi]
            p = kl_poly(u, w)
            assert p.coeffs[0] == 1
            if u != w:
                assert len(p.coeffs) - 1 <= (w.length - u.length - 1) // 2


def test_kl_matches_oracle_a3_b2():
    # whole-group fill on a fresh context, and after one-shot queries have
    # certified some columns (the fill must keep what is in KL)
    for spec in ("A3", "B2"):
        for warm in (False, True):
            ctx = build_group(parse_group_spec(spec))
            if warm:
                for wi in range(0, ctx.order, 3):
                    kl_poly(ctx.identity, ctx.elements[wi])
                assert ctx.tables.KL and ctx.tables.staged
            fill_tables(ctx, ("KL",))
            assert entries(ctx.tables.KL) == oracle_kl_table(ctx)
            assert not ctx.tables.staged


def test_fh_vectors():
    ctx = ctx_for("A2")
    e, w0 = ctx.identity, ctx.elements[-1]
    fh = fh_vectors(e, w0)
    assert (fh.a, fh.d, fh.f, fh.h) == (1, 2, (1, 1, 1), (1, -1, 1))
    s1, s1s2 = elements(ctx, "1", "1 2")
    fh = fh_vectors(e, s1s2)
    assert (fh.a, fh.d, fh.f, fh.h) == (2, 0, (1,), (1,))
    fh = fh_vectors(e, s1)
    assert (fh.a, fh.d, fh.f, fh.h) == (1, 0, (1,), (1,))
    with pytest.raises(ValueError):
        fh_vectors(w0, w0)


def test_fh_structure_exhaustive_a3():
    ctx = ctx_for("A3")
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        u, w = ctx.elements[ui], ctx.elements[wi]
        fh = fh_vectors(u, w)
        assert fh.a == absolute_length(u, w)
        assert fh.f[0] == 1 and fh.h[0] == 1
        assert all(x > 0 for x in fh.f)
        assert fh.h == tuple(reversed(fh.h))


def test_sum_r_over():
    # the reference the interval R-sums of the checks are tested against
    ctx = ctx_for("A2")
    e, w0 = ctx.identity, ctx.elements[-1]
    assert sum_r_over(e, w0) == (0, 0, 0, 1)  # q^3
    assert sum_r_over(w0, w0) == (1,)
    ctx3 = ctx_for("A3")
    w = parse_element(ctx3, "2 1 3 2")
    excess = add(sum_r_over(ctx3.identity, w), (0, 0, 0, 0, -1))  # minus q^4
    assert excess
    assert all(c >= 0 for c in _to_shifted(excess))


def test_sums_at_q_with_f_one_matches_sum_r_over():
    # with F = 1 each interval R-sum is read back from one value at q = 2^B,
    # over the whole group and over one interval [u, w] at a time; the
    # whole-group sweep sums over coset tops and shifts their sums down
    for spec in ("A3", "B3", "G2", "D4"):
        sums = interval_r_sums(build_group(parse_group_spec(spec)))
        one = build_group(parse_group_spec(spec))
        pairs = comparable_pairs(one)
        assert sorted(sums) == sorted(pairs)
        for xi, wi in pairs:
            assert sums[xi, wi] == sum_r_over(one.elements[xi], one.elements[wi])
    ctx = ctx_for("A3")
    for ui, wi in comparable_pairs(ctx):
        bits, tops = _sums_at_q(ctx, f_one, ui, wi)
        ((top, acc),) = tops
        members = interval(ctx.elements[ui], ctx.elements[wi]).members
        assert top == wi and list(acc) == sorted(x.index for x in members)
        for xi, val in acc.items():
            assert _digits(val, bits) == sum_r_over(ctx.elements[xi], ctx.elements[wi])


@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "D4"])
def test_coset_tops_are_the_longest_coset_elements(spec):
    # for every right descent set d that occurs, x* is the longest element
    # of {x u : u in W_d}, grown from x by rmult with d, and k = l(x*) - l(x)
    ctx = ctx_for(spec)
    lengths, rmult = ctx.lengths, ctx.rmult
    desc = [
        sum(1 << s for s in range(ctx.rank) if lengths[rmult[x][s]] < lengths[x])
        for x in range(ctx.order)
    ]
    assert _right_descents(ctx) == desc
    for d in sorted(set(desc)):
        gens = [s for s in range(ctx.rank) if d >> s & 1]
        tops = _coset_tops(ctx, d)
        for x in range(ctx.order):
            coset, todo = {x}, [x]
            while todo:
                y = todo.pop()
                for s in gens:
                    if rmult[y][s] not in coset:
                        coset.add(rmult[y][s])
                        todo.append(rmult[y][s])
            top = max(coset, key=lengths.__getitem__)
            assert [y for y in coset if lengths[y] == lengths[top]] == [top]
            assert tops[x] == (top, lengths[top] - lengths[x])


def test_interval_r_sums_count_members_with_every_r_one():
    # with every R entry 1 both norms are 1, so only the member count n in
    # M = n * max ||R|| * max ||F|| makes B wide enough for sums up to n
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx, ("R",))
    for xi, wi in entries(ctx.tables.R):
        plant(ctx.tables.R, xi, wi, (1,))
    counts = {
        (xi, wi): (len(interval(ctx.elements[xi], ctx.elements[wi]).members),)
        for xi, wi in comparable_pairs(ctx)
    }
    assert interval_r_sums(ctx) == counts


def test_is_rationally_smooth():
    # [u, w] is rationally smooth when every x in [u, w) has defect 0 under
    # w, which on A2 and A3 is exactly when P_uw = 1
    def smooth(u, w):
        return all(defect(x, w) == 0 for x in interval(u, w).members if x != w)

    for spec in ("A2", "A3"):
        ctx = ctx_for(spec)
        for ui, wi in comparable_pairs(ctx):
            u, w = ctx.elements[ui], ctx.elements[wi]
            assert smooth(u, w) == (kl_poly(u, w) == IntPoly([1]))
    ctx3 = ctx_for("A3")
    assert not smooth(ctx3.identity, parse_element(ctx3, "2 1 3 2"))


def test_strict_edges():
    ctx = ctx_for("A2")
    assert strict_edges(ctx.identity, ctx.elements[-1]) == []
    ctx3 = ctx_for("A3")
    w = parse_element(ctx3, "2 1 3 2")
    edges = strict_edges(ctx3.identity, w)
    assert len(edges) >= 2  # defect + 1
    assert word_of(edges[0]) == "1"
    # the equal-value neighbor s2 is not strict
    assert all(word_of(v) != "2" for v in edges)
    u, v = parse_element(ctx3, "1"), parse_element(ctx3, "2 3")
    with pytest.raises(ValueError, match="elements '1' and '2 3' are incomparable"):
        strict_edges(u, v)


def test_strict_path_to_smooth():
    ctx3 = ctx_for("A3")
    w = parse_element(ctx3, "2 1 3 2")
    path = strict_path_to_smooth(ctx3.identity, w)
    assert len(path) >= 2
    assert path[0] == ctx3.identity
    assert kl_at_one(path[-1], w) == 1
    vals = [kl_at_one(v, w) for v in path]
    assert vals == sorted(vals, reverse=True) and len(set(vals)) == len(vals)
    with pytest.raises(ValueError):
        strict_path_to_smooth(w, w)
    u, v = parse_element(ctx3, "1"), parse_element(ctx3, "2 3")
    with pytest.raises(ValueError, match="elements '1' and '2 3' are incomparable"):
        strict_path_to_smooth(u, v)


def test_one_shot_kl_poly_builds_masks_below_w_only():
    # A4, not A5: a whole-group KL fill of A5 takes about 3 s; on A3 every
    # pair u < w, so that intervals [u, w] with u != e are certified
    a4 = build_group(parse_group_spec("A4"))
    words = (("1", "1 2 1"), ("e", "2 1 3 2"), ("2", "2 1 3 2 4 3"))
    a3 = build_group(parse_group_spec("A3"))
    for filled, pairs in (
        (a4, [tuple(parse_element(a4, x).index for x in uw) for uw in words]),
        (a3, [(ui, wi) for ui, wi in comparable_pairs(a3) if ui != wi]),
    ):
        fill_tables(filled, ("KL",))
        for ui, wi in pairs:
            ctx = build_group(parse_group_spec(filled.name))  # fresh: no masks
            p = kl_poly(ctx.elements[ui], ctx.elements[wi])
            assert (0 in ctx.tables.le) == (wi != ctx.order - 1)
            built = [vi for vi, m in enumerate(ctx.tables.le) if m]
            assert all(ctx.tables.le[wi] >> vi & 1 for vi in built)
            assert p.coeffs == entries(filled.tables.KL)[ui, wi]


def test_corrupt_staged_entry_fails_certificate():
    # through a one-shot query and through the whole-group fill
    for certify in (kl_poly, lambda e, w: fill_tables(e.ctx, ("KL",))):
        ctx = build_group(parse_group_spec("A3"))
        e, w = ctx.identity, parse_element(ctx, "2 1 3 2")
        _stage(ctx, w.index)
        key = (e.index, w.index)
        assert entries(ctx.tables.staged)[key] == (1, 1)
        # P(0) = 1 and within the degree bound, so only the equation sees it
        plant(ctx.tables.staged, *key, (1, 2))
        with pytest.raises(RuntimeError, match=r"\('e', '2 1 3 2'\) in A3"):
            certify(e, w)
        assert key not in entries(ctx.tables.KL)
        # [2, w] does not contain e: served, and checked, as before
        assert kl_poly(parse_element(ctx, "2"), w) == IntPoly([1, 1])


def test_empty_kl_entry_planted_after_its_column_fails_certificate():
    # the column of v = ws is certified, then P_ev is planted as (); staging
    # the column of w reads P_ev from KL, as the certificate does, so the
    # bad column fails the equation instead of a lookup into staged
    for certify in (
        lambda ctx, w: kl_poly(ctx.identity, w),
        lambda ctx, w: run_check("kl_basics", ctx),
    ):
        ctx = build_group(parse_group_spec("A3"))
        w = parse_element(ctx, "2 1 3 2")
        v = ctx.rmult[w.index][ctx.srd[w.index]]
        kl_poly(ctx.identity, ctx.elements[v])
        plant(ctx.tables.KL, ctx.identity.index, v, ())
        with pytest.raises(
            RuntimeError,
            match=r"^KL functional equation failed for \('e', '2 1 3 2'\) in A3$",
        ):
            certify(ctx, w)


def test_b2_c2_identical_tables_by_word():
    b2, c2 = ctx_for("B2"), ctx_for("C2")
    for ui, wi in comparable_pairs(b2):
        ub, wb = b2.elements[ui], b2.elements[wi]
        uc = parse_element(c2, word_of(ub))
        wc = parse_element(c2, word_of(wb))
        assert r_poly(ub, wb).coeffs == r_poly(uc, wc).coeffs
        assert kl_poly(ub, wb).coeffs == kl_poly(uc, wc).coeffs


def test_poly_table_invariants():
    ctx = build_group(parse_group_spec("B2"))
    s1, s2 = elements(ctx, "1", "2")
    assert not r_poly(s1, s2) and not rtilde_poly(s1, s2)
    assert not kl_poly(s1, s2)  # incomparable probes leave no entry
    fill_tables(ctx)
    assert not ctx.tables.staged  # every staged entry was certified and moved
    pairs = set(comparable_pairs(ctx))
    for table in (ctx.tables.R, ctx.tables.Rt, ctx.tables.KL):
        assert set(entries(table)) == pairs
        assert all(entries(table).values())
    for ui, wi in pairs:
        p = r_poly(ctx.elements[ui], ctx.elements[wi])
        assert p.coeffs == entries(ctx.tables.R)[ui, wi]
        if ui == wi:
            assert p == IntPoly([1])
        else:
            assert len(p.coeffs) == ctx.lengths[wi] - ctx.lengths[ui] + 1



def _one_object_per_value(table):
    values = entries(table).values()
    return len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("spec", ["B3", "D4"])
def test_fill_holds_one_object_per_distinct_value(spec):
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    for table in (ctx.tables.R, ctx.tables.Rt, ctx.tables.KL):
        assert len(set(entries(table).values())) < len(entries(table))
        assert _one_object_per_value(table)


def test_one_shot_queries_hold_one_object_per_distinct_value():
    ctx = build_group(parse_group_spec("A4"))
    for u, w in (("e", "1 2 1 3 2 1 4 3 2 1"), ("2", "2 1 3 2 4 3"), ("1", "1 2 1")):
        u, w = elements(ctx, u, w)
        r_poly(u, w), rtilde_poly(u, w), kl_poly(u, w)
    for table in (ctx.tables.R, ctx.tables.Rt, ctx.tables.KL):
        assert len(set(entries(table).values())) < len(entries(table))
        assert _one_object_per_value(table)


@pytest.mark.parametrize("spec", ["B3", "A4", "D4"])
def test_r_fill_allocates_under_64_bytes_per_entry(spec):
    # one dict slot per entry in its column's dict: no (x, w) key tuple
    ctx = build_group(parse_group_spec(spec))
    le_masks(ctx)  # the masks are not the table
    tracemalloc.start()
    try:
        fill_tables(ctx, ("R",))
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = len(entries(ctx.tables.R))
    assert n == len(comparable_pairs(ctx))
    assert allocated < 64 * n


def test_r_step_is_keyed_by_value():
    # R_{e,w} = q R_{s,ws} + (q-1) R_{e,ws} for the smallest right descent
    # s of w = 1 2 1: plant both terms, then a different first term
    results = []
    for a in ((3, 5), (3, 6)):
        ctx = build_group(parse_group_spec("A3"))
        e, s, ws, w = elements(ctx, "e", "1", "1 2", "1 2 1")
        assert ctx.rmult[w.index][ctx.srd[w.index]] == ws.index
        b = (7, 11, 13)
        plant(ctx.tables.R, s.index, ws.index, a)
        plant(ctx.tables.R, e.index, ws.index, b)
        step = add(mul((0, 1), a), mul((-1, 1), b))
        assert r_poly(e, w).coeffs == step
        results.append(step)
        # the same context, a third value: the memo is not keyed by pair
        delete(ctx.tables.R, e.index, w.index)
        plant(ctx.tables.R, s.index, ws.index, (1,))
        assert r_poly(e, w).coeffs == add((0, 1), mul((-1, 1), b))
    assert results[0] != results[1]
