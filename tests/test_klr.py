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

from bruhatkl import klr  # noqa: E402
from bruhatkl.bruhat import (  # noqa: E402
    absolute_length,
    comparable_pairs,
    defect,
    interval,
    iter_bits,
    le_masks,
)
from bruhatkl.coxeter import (  # noqa: E402
    _diagram_automorphisms,
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
from bruhatkl.klr import (  # noqa: E402
    _coset_tops,
    _digits,
    _fill_columns,
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
                assert ctx.tables.KL and ctx.tables.pending
            fill_tables(ctx, ("KL",))
            assert entries(ctx.tables.KL) == oracle_kl_table(ctx)
            assert not ctx.tables.pending


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
        assert entries(ctx.tables.KL)[key] == (1, 1)
        # P(0) = 1 and within the degree bound, so only the equation sees it
        plant(ctx.tables.KL, *key, (1, 2))
        with pytest.raises(RuntimeError, match=r"\('e', '2 1 3 2'\) in A3"):
            certify(e, w)
        assert ctx.tables.pending[w.index] >> e.index & 1
        # [2, w] does not contain e: served, and checked, as before
        assert kl_poly(parse_element(ctx, "2"), w) == IntPoly([1, 1])


def test_stage_keeps_entries_already_in_kl():
    # one entry below w, one for a pair not below w: both kept, neither
    # pending; a column staged whole shares its lower-cone mask
    ctx = build_group(parse_group_spec("A3"))
    e, w = ctx.identity, parse_element(ctx, "2 1 3 2")
    w0 = ctx.order - 1
    plant(ctx.tables.KL, e.index, w.index, (1, 2))
    plant(ctx.tables.KL, w0, w.index, (1,))
    _stage(ctx, w.index)
    t = ctx.tables
    assert t.KL[w.index][e.index] == (1, 2) and t.KL[w.index][w0] == (1,)
    assert t.pending[w.index] == t.le[w.index] & ~(1 << e.index)
    v = ctx.rmult[w.index][ctx.srd[w.index]]
    assert t.pending[v] is t.le[v]
    assert set(t.KL[v]) == set(iter_bits(t.le[v]))


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
    assert not ctx.tables.pending  # every staged entry was certified
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


def _r_fill(spec):
    """A context of the group with its R table filled, the bytes the fill
    allocated (tracemalloc), and the number of entries."""
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
    return ctx, allocated, n


@pytest.mark.parametrize("spec", ["B3", "A4", "D4"])
def test_r_fill_allocates_under_64_bytes_per_entry(spec):
    # one dict slot per entry in its column's dict: no (x, w) key tuple
    _, allocated, n = _r_fill(spec)
    assert allocated < 64 * n


def test_r_fill_keys_are_the_shared_id_objects():
    # on A5, 463 of the 720 ids are above 256, outside Python's small-int
    # cache; keyed by the context's one int object per id, no entry
    # allocates an int of its own (48 bytes per entry when each had one)
    ctx, allocated, n = _r_fill("A5")
    assert allocated < 44 * n
    ids = ctx.ids
    for w, col in ctx.tables.R.items():
        assert w is ids[w] and all(x is ids[x] for x in col)


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


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2"])
def test_column_pass_stores_what_the_pair_recursion_gives(spec):
    # on a fresh context the pass fills exactly the comparable pairs, each
    # with the value the pair recursion gives it, and finds nothing present
    # to fail
    ref = build_group(parse_group_spec(spec))
    for kind in ("R", "Rt"):
        want = {(x, w): klr._r(ref, x, w, kind) for x, w in comparable_pairs(ref)}
        ctx = build_group(parse_group_spec(spec))
        assert _fill_columns(ctx, kind)
        assert entries(getattr(ctx.tables, kind)) == want


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_column_pass_reads_planted_entries_as_the_pair_recursion_does(spec):
    # a diagonal entry that is not 1, a () entry and a wrong entry are kept
    # and read as they are; every missing entry, the diagonal entries above
    # the planted one included, gets what ``_r`` gives it, and the pass
    # reports the planted entries
    tables = []
    for fill in ("pass", "pairs"):
        ctx = build_group(parse_group_spec(spec))
        n = ctx.order
        plant(ctx.tables.R, 1, 1, (2,))
        plant(ctx.tables.R, 0, n // 2, ())
        plant(ctx.tables.R, 2, n // 3, (5, 1))
        assert le_masks(ctx)[n // 3] >> 2 & 1
        if fill == "pass":
            assert not _fill_columns(ctx, "R")
        else:
            for x, w in comparable_pairs(ctx):
                klr._r(ctx, x, w)
        tables.append(entries(ctx.tables.R))
    assert tables[0] == tables[1]
    assert {tables[0][v, v] for v in range(2, n)} == {(1,)}


def _r_closure(ctx, pairs):
    """The comparable pairs the recursion of ``klr._r`` reaches from pairs,
    those included: (x, v) reads (xs, vs), and (x, vs) too when xs > x,
    with s = srd(v)."""
    lower, lengths, rmult, srd = le_masks(ctx), ctx.lengths, ctx.rmult, ctx.srd
    out, todo = set(), list(pairs)
    while todo:
        x, v = todo.pop()
        if (x, v) in out or not lower[v] >> x & 1:
            continue
        out.add((x, v))
        if x != v:
            xs, vs = rmult[x][srd[v]], rmult[v][srd[v]]
            todo.append((xs, vs))
            if lengths[xs] > lengths[x]:
                todo.append((x, vs))
    return out


def _coset_top_rows(ctx, u, w):
    """The pairs (x*, v) of [u, w] with D_R(w) in D_R(x*): the rows the
    interval certificate of [u, w] reads R on, when its premises hold."""
    lower, lengths, rmult = le_masks(ctx), ctx.lengths, ctx.rmult
    members = [v for v in iter_bits(lower[w]) if lower[v] >> u & 1]

    def descents(x):
        return {s for s in range(ctx.rank) if lengths[rmult[x][s]] < lengths[x]}

    tops = [x for x in members if descents(w) <= descents(x)]
    return [(x, v) for v in members for x in tops if lower[v] >> x & 1]


@pytest.mark.parametrize(
    "fill, whole",
    [
        (lambda ctx: fill_tables(ctx, ("R", "Rt")), True),
        (lambda ctx: fill_tables(ctx, ("KL",)), True),
        (lambda ctx: kl_poly(ctx.identity, ctx.elements[ctx.order - 1]), False),
    ],
    ids=["R,Rt", "KL", "kl_poly(e, w0)"],
)
def test_whole_group_and_e_w_fills_make_no_pair_recursion(fill, whole, monkeypatch):
    # the column pass fills R for the group, and the pair recursion is
    # never entered; kl_poly(e, w0) reads R through the pair recursion on
    # the coset-top rows of [e, w0] alone, w0 itself, so R then holds the
    # recursion closure of those rows and nothing else, and the orbit data
    # of the whole-group sweeps is never made
    calls = []
    r = klr._r
    monkeypatch.setattr(klr, "_r", lambda *a: calls.append(a) or r(*a))
    ctx = build_group(parse_group_spec("A4"))
    fill(ctx)
    if whole:
        assert calls == []
        assert len(entries(ctx.tables.R)) == len(comparable_pairs(ctx))
    else:
        w0 = ctx.order - 1
        rows = _coset_top_rows(ctx, 0, w0)
        assert rows == [(w0, w0)] and calls
        assert set(entries(ctx.tables.R)) == _r_closure(ctx, rows)
        assert ctx.tables.symmetries is None


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_interval_certificate_reads_r_on_the_coset_top_rows_alone(spec):
    # on a fresh context, kl_poly(u, w) leaves in R the recursion closure
    # of the coset-top rows of [u, w] and nothing else, makes no orbit
    # data, and serves the P of the whole-group fill
    ref = build_group(parse_group_spec(spec))
    fill_tables(ref, ("KL",))
    pairs = [(u, w) for u, w in comparable_pairs(ref) if u != w]
    for u, w in pairs[:: 1 if spec == "A3" else 7]:
        ctx = build_group(parse_group_spec(spec))
        p = kl_poly(ctx.elements[u], ctx.elements[w])
        assert p.coeffs == entries(ref.tables.KL)[u, w]
        assert set(entries(ctx.tables.R)) == _r_closure(ctx, _coset_top_rows(ctx, u, w))
        assert ctx.tables.symmetries is None


@pytest.mark.parametrize(
    "spec, count",
    [("D4", 6), ("A3", 2), ("A5", 2), ("B2", 2), ("D5", 2), ("F4", 2),
     ("G2", 2), ("B3", 1), ("B4", 1)],
)
def test_diagram_automorphisms(spec, count):
    # every sigma preserving the Coxeter matrix, the identity first; each
    # phi is a length-preserving bijection with phi(xs) = phi(x) sigma(s)
    ctx = build_group(parse_group_spec(spec))
    autos = _diagram_automorphisms(ctx)
    assert len(autos) == count
    assert autos[0][0] == tuple(range(ctx.rank))
    assert autos[0][1] == list(range(ctx.order))
    rmult, lengths = ctx.rmult, ctx.lengths
    for sigma, phi in autos:
        assert sorted(phi) == list(range(ctx.order))
        assert [lengths[y] for y in phi] == lengths
        for x in range(ctx.order):
            for s in range(ctx.rank):
                assert phi[rmult[x][s]] == rmult[phi[x]][sigma[s]]


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "G2", "F4"])
def test_orbits_under_inversion_and_the_diagram_automorphisms(spec):
    # maps[0] is inversion, then one phi per involution sigma != 1; rep[w]
    # is the least id of the orbit of w, which its word takes w to
    ctx = build_group(parse_group_spec(spec))
    sym = klr._symmetries(ctx)
    assert sym is ctx.tables.symmetries is klr._symmetries(ctx)
    assert sym.maps[0] is ctx.inv
    assert len(sym.maps) == {"A3": 2, "B3": 1, "D4": 4, "G2": 2, "F4": 2}[spec]
    for w in range(ctx.order):
        orbit, todo = {w}, [w]
        while todo:
            y = todo.pop()
            for g in sym.maps:
                if g[y] not in orbit:
                    orbit.add(g[y])
                    todo.append(g[y])
        assert sym.rep[w] == min(orbit)
        assert list(sym.image(sym.word[w], [w])) == [sym.rep[w]]
        assert len(sym.word[w]) <= 3


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "G2"])
def test_fresh_fill_is_invariant_under_the_symmetries(spec):
    # R, Rt and P take the same value on (x, w) and (g x, g w) for each
    # generator g of H
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    for g in klr._symmetries(ctx).maps:
        for table in (ctx.tables.R, ctx.tables.Rt, ctx.tables.KL):
            moved = {(g[x], g[w]): v for (x, w), v in entries(table).items()}
            assert moved == entries(table)


@pytest.mark.parametrize("spec", ["A3", "A4", "B3", "D4", "G2"])
def test_map_staged_kl_equals_recursion_staged_kl(spec, monkeypatch):
    # a whole-group certificate on an empty table stages each top that is
    # not the least of its orbit from its representative's column; what
    # it stages, read as the sweep starts, is what the recursion stages
    staged = {}
    real = klr._kl_faults

    def snapshot(ctx, *args):
        t = ctx.tables
        staged.update(KL=entries(t.KL), mu=dict(t.mu), pending=dict(t.pending))
        return real(ctx, *args)

    images = []
    image = klr._stage_image
    monkeypatch.setattr(klr, "_kl_faults", snapshot)
    monkeypatch.setattr(
        klr, "_stage_image", lambda c, w, s: images.append(w) or image(c, w, s)
    )
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx, ("KL",))
    sym = ctx.tables.symmetries
    assert images == [w for w in range(ctx.order) if sym.rep[w] != w]
    assert images
    fresh = build_group(parse_group_spec(spec))
    for w in range(fresh.order):
        _stage(fresh, w)
    t = fresh.tables
    assert staged["KL"] == entries(t.KL)
    assert staged["mu"] == t.mu
    assert staged["pending"] == t.pending
