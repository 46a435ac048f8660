"""Tests for the named check suite: reports, determinism, sabotage controls."""

import json
import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from reference_checks import REFERENCE  # noqa: E402

from bruhatkl.bruhat import comparable_pairs  # noqa: E402
from bruhatkl.coxeter import build_group, parse_group_spec  # noqa: E402
from bruhatkl.klr import fill_tables  # noqa: E402
from bruhatkl.theorems import (  # noqa: E402
    CHECK_NAMES,
    report_to_json,
    run_check,
    run_suite,
    summary_table,
)

_CACHE = {}


def ctx_for(spec):
    if spec not in _CACHE:
        _CACHE[spec] = build_group(parse_group_spec(spec))
    return _CACHE[spec]


def test_registry_has_23_checks():
    assert len(CHECK_NAMES) == 23
    assert CHECK_NAMES[0] == "r_basics"
    assert CHECK_NAMES[-1] == "smoothness_equivalence"


def test_run_suite_all_a2():
    reports = run_suite(ctx_for("A2"))
    assert len(reports) == 23
    assert all(r.passed for r in reports)
    assert all(r.witnesses == [] for r in reports)
    assert [r.check_name for r in reports] == list(CHECK_NAMES)
    # every check sweeps a nonempty domain on a nonempty group
    assert all(r.pairs_tested > 0 for r in reports)


def test_run_suite_selection_and_errors():
    ctx = ctx_for("A2")
    reports = run_suite(ctx, ["deodhar", "r_basics"])
    assert [r.check_name for r in reports] == ["r_basics", "deodhar"]  # registry order
    # a string is one check name, not a sequence of one-letter names
    assert [r.check_name for r in run_suite(ctx, "deodhar")] == ["deodhar"]
    with pytest.raises(ValueError, match="'bogus'"):
        run_suite(ctx, "bogus")
    with pytest.raises(ValueError):
        run_suite(ctx, ["bogus"])
    with pytest.raises(ValueError, match="no checks selected"):
        run_suite(ctx, [])
    with pytest.raises(ValueError):
        run_check("bogus", ctx)


def test_deodhar_stats_a3():
    report = run_check("deodhar", ctx_for("A3"))
    assert report.passed
    assert report.pairs_tested == 213
    assert report.stats["max_defect"] == 1


def test_boolean_criterion_a2():
    report = run_check("boolean_criterion", ctx_for("A2"))
    assert report.passed
    assert report.stats["a_lt_ell"] == 1  # only the full interval


def test_kl_monotone_trivial_a2():
    report = run_check("kl_monotone", ctx_for("A2"))
    assert report.passed and report.pairs_tested > 0


def test_brenti_scan_reports_no_excess():
    for spec in ("A1", "A2", "A3", "B2"):
        report = run_check("brenti_scan", ctx_for(spec))
        assert report.passed  # report-only: never fails
        assert report.stats["max_excess"] <= 0
        assert report.stats["excess_pairs"] == 0
    assert run_check("brenti_scan", ctx_for("A1")).stats["max_excess"] == 0


def test_dvc_and_nth2_singular_counts():
    ctx = ctx_for("A3")
    for report in run_suite(ctx, ["dvc_linear", "nth2_quadratic"]):
        assert report.passed
        assert report.stats["singular_intervals"] == 6


def test_nth3_bound_and_paths_a3():
    ctx = ctx_for("A3")
    r = run_check("nth3_strict_edges", ctx)
    assert r.passed and r.pairs_tested == 213
    assert r.stats["singular_pairs"] == 6
    r = run_check("strict_path", ctx)
    assert r.passed and r.stats["singular_pairs"] == 6


def test_smoothness_equivalence_counts():
    r = run_check("smoothness_equivalence", ctx_for("A3"))
    assert r.passed
    assert r.stats["smooth_intervals"] == 213 - 6


def test_reports_deterministic():
    a = [report_to_json(r) for r in run_suite(ctx_for("G2"))]
    b = [report_to_json(r) for r in run_suite(ctx_for("G2"))]
    assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)


def test_report_json_shape():
    obj = report_to_json(run_check("deodhar", ctx_for("A2")))
    assert set(obj) == {"check", "group", "pairs", "passed", "witnesses", "stats"}
    assert obj["check"] == "deodhar" and obj["group"] == "A2"
    assert all(isinstance(v, int) for v in obj["stats"].values())


def test_summary_table_format():
    text = summary_table(run_suite(ctx_for("A2"), ["deodhar"]))
    assert "deodhar" in text and "PASS" in text


def test_kl_table_filled_only_for_checks_that_read_it():
    ctx = build_group(parse_group_spec("A3"))
    run_suite(ctx, ["brenti_scan"])
    run_check("binomial_bounds", ctx)
    assert ctx.tables.KL == {}
    run_suite(ctx, ["brenti_scan", "kl_basics"])
    assert sorted(ctx.tables.KL) == sorted(comparable_pairs(ctx))
    assert ctx.tables.staged == {}


SUM_CHECKS = ("dvc_linear", "nth2_quadratic", "smoothness_equivalence")


def test_interval_r_sums_follow_r_between_runs():
    # the interval R-sums are taken from R as it is at each run, so a run
    # after R(e, w0) changes reports what a context that never ran the
    # three checks before the change reports
    reports = []
    for ran_before in (True, False):
        ctx = build_group(parse_group_spec("A3"))
        run_check("kl_basics", ctx)
        if ran_before:
            run_suite(ctx, SUM_CHECKS)
        ell = ctx.lengths[ctx.order - 1]
        ctx.tables.R[0, ctx.order - 1] = tuple(
            (-1) ** (ell - k) * comb(ell, k) for k in range(ell + 1)
        )
        reports.append([report_to_json(r) for r in run_suite(ctx, SUM_CHECKS)])
    assert reports[0] == reports[1]
    verdicts = {
        r["check"]: (r["passed"], r["stats"]["violations_total"]) for r in reports[0]
    }
    assert verdicts["nth2_quadratic"] == (False, 1)
    assert verdicts["smoothness_equivalence"] == (False, 1)


@pytest.mark.parametrize("entry", [(), (1,), (0, 0, 1)])
def test_binomial_bounds_reports_short_r_entry(entry):
    # R(e, w) of length 3 read as 0 at (q-1)^3, below its lower bound 1
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx)
    assert ctx.lengths[9] - ctx.lengths[0] == 3
    ctx.tables.R[0, 9] = entry
    report = run_check("binomial_bounds", ctx)
    assert report.stats["violations_total"] == 1
    assert report.witnesses[0].endswith(": shifted coeff 3 is 0, bounds [1, 1]")


def test_sabotaged_kl_entry_fails_kl_basics():
    ctx = build_group(parse_group_spec("A3"))  # fresh, private to this test
    assert run_check("kl_basics", ctx).passed
    key = next(k for k, v in ctx.tables.KL.items() if v == (1, 1))
    ctx.tables.KL[key] = (1, 2)
    report = run_check("kl_basics", ctx)
    assert not report.passed
    assert report.witnesses and report.stats["violations_total"] >= 1


def test_sabotaged_r_entries_fail_with_witness_cap():
    ctx = build_group(parse_group_spec("A3"))
    assert run_check("r_basics", ctx).passed
    poisoned = 0
    for (ui, wi), v in sorted(ctx.tables.R.items()):
        if ui != wi and len(v) >= 2:
            ctx.tables.R[ui, wi] = v[:-1] + (2,)  # no longer monic
            poisoned += 1
            if poisoned == 25:
                break
    report = run_check("r_basics", ctx)
    assert not report.passed
    assert len(report.witnesses) == 20  # capped
    assert report.stats["violations_total"] == 25


def test_full_suite_b2_g2():
    for spec in ("B2", "G2"):
        reports = run_suite(ctx_for(spec))
        assert all(r.passed for r in reports), [
            (r.check_name, r.witnesses) for r in reports if not r.passed
        ]


def test_kl_basics_reports_out_of_bound_entry_inside_interval():
    # P_vw out of its degree bound for some v > u used to index past the
    # accumulator of every pair (u, w) below it
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx)
    ctx.tables.KL[2, 2] = (1, 1)
    report = run_check("kl_basics", ctx)
    assert not report.passed
    assert report.witnesses == [
        "u='e' w='2': functional equation fails",
        "u='2' w='2': diagonal KL entry not 1",
    ]


@pytest.mark.parametrize(
    "entry, second", [((-1, 1), 0), ((-1, 2, -2, 1, 1), 14)]
)
def test_le1_le2_le3_reports_wrong_length_r_entry(entry, second):
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx)
    assert ctx.lengths[9] - ctx.lengths[0] == 3
    assert ctx.tables.R[0, 9] == (-1, 2, -2, 1)  # an edge pair
    ctx.tables.R[0, 9] = entry
    ctx.tables.Rt[0, 9] = (0, 2)  # the Rt check still runs on this pair
    report = run_check("le1_le2_le3", ctx)
    assert not report.passed
    assert report.stats["violations_total"] == 3
    assert [w.split(": ", 1)[1] for w in report.witnesses] == [
        f"R entry {entry} has {len(entry)} coefficients, not l(u,w) + 1 = 4",
        "linear Rt coeff != 1",
        f"R''(1) = {second} != 2",
    ]


R_LEVEL = (
    "r_basics",
    "shifted_nonneg",
    "divisibility_order",
    "fh_structure",
    "boolean_criterion",
    "binomial_bounds",
)


def _corrupt(ctx, kind):
    """Alter filled tables in place: several R entries +1 in one
    coefficient, one R coefficient times 10^6 (which raises B), several
    KL entries, in and out of their degree bound, or several Rt entries;
    or run the R-level checks and then set R(e, w0) to (q-1)^l(w0), so a
    check that kept what it read in the first run reports the old entry."""
    t = ctx.tables
    if kind == "r_plus_one":
        keys = sorted(k for k in t.R if k[0] != k[1])
        for k in keys[:: max(1, len(keys) // 6)]:
            v = t.R[k]
            t.R[k] = (v[0] + 1,) + v[1:]
    elif kind == "r_times_1e6":
        k = (0, ctx.order - 1)
        v = list(t.R[k])
        j = max(range(len(v)), key=lambda i: abs(v[i]))
        v[j] *= 10**6
        t.R[k] = tuple(v)
    elif kind == "kl":
        keys = sorted(k for k in t.KL if k[0] != k[1])
        for i, k in enumerate(keys[:: max(1, len(keys) // 6)]):
            p = t.KL[k]
            t.KL[k] = (p[0] + 1,) + p[1:] if i % 2 else p + (1,)
        w = keys[len(keys) // 2][1]
        t.KL[w, w] = (1, 1)
        # larger at 1 than every P_vw = 1 above it, not larger coefficientwise
        t.KL[0, ctx.order - 1] = (0, 2)
    elif kind == "rt":
        # entries with a < l: the lowest support coefficient q^a is not the top
        keys = sorted(k for k, v in t.Rt.items() if sum(map(bool, v)) > 1)
        for i, k in enumerate(keys[:: max(1, len(keys) // 8)]):
            v = list(t.Rt[k])
            a = next(j for j, c in enumerate(v) if c)
            if i % 4 == 0:  # R rebuilt from Rt differs
                v[a] += 2
            elif i % 4 == 1:  # a support coefficient 0
                v[a] = 0
            elif i % 4 == 2:  # off the support: a parity violation
                v[0] += 1
            else:  # a negative coefficient
                v[0] -= 1
            t.Rt[k] = tuple(v)
    elif kind == "r_after_run":
        for name in R_LEVEL:
            run_check(name, ctx)
        ell = ctx.lengths[ctx.order - 1]
        t.R[0, ctx.order - 1] = tuple(
            (-1) ** (ell - k) * comb(ell, k) for k in range(ell + 1)
        )


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
@pytest.mark.parametrize(
    "kind", ["clean", "r_plus_one", "r_times_1e6", "kl", "rt", "r_after_run"]
)
def test_evaluated_checks_match_coefficient_reference(spec, kind):
    reports = {}
    for path in ("library", "reference"):
        ctx = build_group(parse_group_spec(spec))
        fill_tables(ctx)
        _corrupt(ctx, kind)
        if path == "library":
            reports[path] = [report_to_json(run_check(n, ctx)) for n in REFERENCE]
        else:
            reports[path] = [report_to_json(fn(ctx)) for fn in REFERENCE.values()]
    assert reports["library"] == reports["reference"]
    if kind != "clean":
        assert not all(r["passed"] for r in reports["library"])
