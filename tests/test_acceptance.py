"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here is exact integer arithmetic; the only
tolerances are the stated wall-clock budgets.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from kl_oracle import oracle_kl_table  # noqa: E402

from bruhatkl.bruhat import comparable_pairs, defect, interval  # noqa: E402
from bruhatkl.coxeter import (  # noqa: E402
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
from bruhatkl.klr import (  # noqa: E402
    fill_tables,
    is_rationally_smooth,
    kl_at_one,
    kl_poly,
    r_poly,
    strict_edges,
    strict_path_to_smooth,
    sum_r_over,
)
from bruhatkl.polynomial import (  # noqa: E402
    IntPoly,
    derivative_at_one,
    eval_int,
    from_shifted,
    to_shifted,
)
from bruhatkl.theorems import run_suite  # noqa: E402

SUITE_GROUPS = ("A2", "A3", "B2", "G2", "A4", "B3", "D4")

_CTX = {}


def ctx_for(spec):
    if spec not in _CTX:
        _CTX[spec] = build_group(parse_group_spec(spec))
    return _CTX[spec]


def _ok(n, msg):
    print(f"criterion {n}: PASS - {msg}")


def test_criterion_1_a2_ground_truth():
    t0 = time.monotonic()
    ctx = build_group(parse_group_spec("A2"))
    w0 = parse_element(ctx, "1 2 1")
    r = r_poly(ctx.identity, w0)
    elapsed = time.monotonic() - t0
    assert r == IntPoly([-1, 2, -2, 1])  # q^3 - 2q^2 + 2q - 1
    assert to_shifted(r).coeffs == (0, 1, 1, 1)
    assert elapsed < 1.0
    _ok(1, f"R(e, w0) in A2 exact, shifted (0,1,1,1), {elapsed:.3f}s")


def test_criterion_2_figure_reproduction():
    ctx = ctx_for("A2")
    full = interval(ctx.identity, ctx.longest_element())
    assert len(full.members) == 6 and len(full.edges) == 9
    ctx3 = ctx_for("A3")
    boolean = None
    for w in ctx3.elements:
        if w.length == 3 and len(interval(ctx3.identity, w).members) == 8:
            boolean = interval(ctx3.identity, w)
            break
    assert boolean is not None
    assert len(boolean.members) == 8 and len(boolean.edges) == 12
    _ok(
        2,
        f"A2 full interval 6/9, boolean [e, {word_of(boolean.top)}] in A3 8/12",
    )


def test_criterion_3_a2_smoothness():
    ctx = ctx_for("A2")
    w0 = ctx.longest_element()
    assert sum_r_over(ctx.identity, w0) == IntPoly.q_power(3)
    for ui, wi in comparable_pairs(ctx):
        u, w = ctx.elements[ui], ctx.elements[wi]
        by_sum = all(
            sum_r_over(x, w) == IntPoly.q_power(w.length - x.length)
            for x in interval(u, w).members
            if x != w
        )
        by_defect = is_rationally_smooth(u, w)
        by_kl = kl_poly(u, w) == IntPoly([1])
        assert by_sum and by_defect and by_kl
    _ok(3, "sum R over [e, w0] = q^3 and all A2 intervals smooth 3 ways")


def test_criterion_4_a3_singularity_detection():
    t0 = time.monotonic()
    ctx = build_group(parse_group_spec("A3"))
    w = parse_element(ctx, "2 1 3 2")
    e = ctx.identity
    assert kl_poly(e, w) == IntPoly([1, 1])
    assert defect(e, w) == 1
    edges = strict_edges(e, w)
    assert len(edges) >= defect(e, w) + 1 >= 2
    path = strict_path_to_smooth(e, w)
    assert len(path) >= 2
    assert kl_at_one(path[-1], w) == 1
    assert kl_poly(path[-1], w) == IntPoly([1])
    # the full table agrees with the independent linear-system oracle
    fill_tables(ctx, ("KL",))
    assert ctx.tables.KL == oracle_kl_table(ctx)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _ok(4, f"A3: P(e, 2 1 3 2) = 1+q, df 1, strict edges >= 2, {elapsed:.2f}s")


def test_criterion_5_exhaustive_suite():
    fast, slow = ("A2", "A3", "B2", "G2"), ("A4", "B3", "D4")
    times = {}
    for spec in SUITE_GROUPS:
        ctx = ctx_for(spec)
        t0 = time.monotonic()
        reports = run_suite(ctx)
        times[spec] = time.monotonic() - t0
        assert len(reports) == 23
        for r in reports:
            assert r.passed and r.witnesses == [], (spec, r.check_name, r.witnesses)
    for spec in fast:
        assert times[spec] < 10.0, (spec, times[spec])
    for spec in slow:
        assert times[spec] < 300.0, (spec, times[spec])
    timing = ", ".join(f"{s} {times[s]:.2f}s" for s in SUITE_GROUPS)
    _ok(5, f"23 checks x 7 groups, zero witnesses ({timing})")


def test_criterion_6_strict_edge_bound_a4_b3():
    singular = 0
    for spec in ("A4", "B3"):
        ctx = ctx_for(spec)
        for ui, wi in comparable_pairs(ctx):
            u, w = ctx.elements[ui], ctx.elements[wi]
            if kl_at_one(u, w) > 1:
                singular += 1
                assert len(strict_edges(u, w)) >= defect(u, w) + 1
    assert singular > 0
    _ok(6, f"strict edges >= defect+1 on all {singular} singular pairs")


def test_criterion_7_brenti_scan_no_excess():
    for spec in SUITE_GROUPS:
        reports = run_suite(ctx_for(spec), ["brenti_scan"])
        (report,) = reports
        assert report.passed  # report-only by design
        assert report.stats["max_excess"] <= 0
        assert report.stats["excess_pairs"] == 0
    _ok(7, "no q-coefficient of R exceeds its binomial bound on any group")


def test_criterion_8_oracle_equivalence_a3_b2():
    for spec in ("A3", "B2"):
        ctx = build_group(parse_group_spec(spec))
        fill_tables(ctx, ("KL",))
        assert ctx.tables.KL == oracle_kl_table(ctx)
    _ok(8, "read-off KL tables match the linear-solve oracle on A3 and B2")


def test_criterion_9_polynomial_property_sweep():
    rng = random.Random(47013)

    def rand_poly():
        deg = rng.randrange(13)
        coeffs = [rng.randint(-40, 40) for _ in range(deg + 1)]
        if rng.random() < 0.1:
            coeffs[rng.randrange(len(coeffs))] = rng.randint(-(10**18), 10**18)
        return IntPoly(coeffs)

    checks = 0
    for _ in range(2500):
        p, r = rand_poly(), rand_poly()
        sp, sr = to_shifted(p), to_shifted(r)
        assert from_shifted(sp) == p
        checks += 1
        assert to_shifted(p * r) == sp * sr
        checks += 1
        k = rng.randrange(6)
        d = p
        for _ in range(k):
            d = d.formal_derivative()
        assert derivative_at_one(p, k) == eval_int(d, 1)
        checks += 1
        assert eval_int(p, 1) == sp.coeff(0)
        checks += 1
    assert checks == 10000
    _ok(9, f"{checks} randomized round-trip/homomorphism checks")
