"""Tests for the named check suite: reports, determinism, sabotage controls."""

import json

import pytest

from bruhatkl.coxeter import build_group, parse_group_spec
from bruhatkl.theorems import (
    CHECK_NAMES,
    check_dvc,
    check_nth2,
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
    for report in (check_dvc(ctx), check_nth2(ctx)):
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
