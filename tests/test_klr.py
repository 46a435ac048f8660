"""Tests for R/Rtilde/KL tables, f/h-vectors, smoothness, strict edges."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from kl_oracle import oracle_kl_table  # noqa: E402
from reference_checks import add, sum_r_over  # noqa: E402

from bruhatkl.bruhat import (  # noqa: E402
    absolute_length,
    comparable_pairs,
    defect,
    interval,
)
from bruhatkl.coxeter import (  # noqa: E402
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
from bruhatkl.klr import _interval_r_sums, _stage  # noqa: E402
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
    ctx.tables.Rt[0, 9] = (0, 1)
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
    for spec in ("A3", "B2"):
        ctx = build_group(parse_group_spec(spec))  # fresh context
        fill_tables(ctx, ("KL",))
        assert ctx.tables.KL == oracle_kl_table(ctx)


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
    # with F = 1 each interval R-sum is read back from one value at q = 2^B
    for spec in ("A3", "B3", "G2"):
        sums = _interval_r_sums(build_group(parse_group_spec(spec)))
        one = build_group(parse_group_spec(spec))
        pairs = comparable_pairs(one)
        assert sorted(sums) == sorted(pairs)
        for xi, wi in pairs:
            assert sums[xi, wi] == sum_r_over(one.elements[xi], one.elements[wi])


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
    # A4, not A5: a whole-group KL fill of A5 takes about 3 s
    filled = build_group(parse_group_spec("A4"))
    fill_tables(filled, ("KL",))
    for uw in (("1", "1 2 1"), ("e", "2 1 3 2"), ("2", "2 1 3 2 4 3")):
        ctx = build_group(parse_group_spec("A4"))  # fresh: no masks
        u, w = (parse_element(ctx, x) for x in uw)
        p = kl_poly(u, w)
        assert not ctx.tables.le_complete
        built = [vi for vi, m in enumerate(ctx.tables.le) if m]
        assert all(ctx.tables.le[w.index] >> vi & 1 for vi in built)
        assert p.coeffs == filled.tables.KL[u.index, w.index]


def test_corrupt_staged_entry_fails_certificate():
    ctx = build_group(parse_group_spec("A3"))
    e, w = ctx.identity, parse_element(ctx, "2 1 3 2")
    _stage(ctx, w.index)
    key = (e.index, w.index)
    assert ctx.tables.staged[key] == (1, 1)
    # P(0) = 1 and within the degree bound, so only the equation sees it
    ctx.tables.staged[key] = (1, 2)
    with pytest.raises(RuntimeError, match=r"\('e', '2 1 3 2'\) in A3"):
        kl_poly(e, w)
    assert key not in ctx.tables.KL
    # [2, w] does not contain e: served, and checked, as before
    assert kl_poly(parse_element(ctx, "2"), w) == IntPoly([1, 1])


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
        assert set(table) == pairs
        assert all(table.values())
    for ui, wi in pairs:
        p = r_poly(ctx.elements[ui], ctx.elements[wi])
        assert p.coeffs == ctx.tables.R[ui, wi]
        if ui == wi:
            assert p == IntPoly([1])
        else:
            assert len(p.coeffs) == ctx.lengths[wi] - ctx.lengths[ui] + 1

