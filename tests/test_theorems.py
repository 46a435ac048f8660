"""Tests for the named check suite: reports, determinism, sabotage controls."""

import json
import sys
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from reference_checks import (  # noqa: E402
    REFERENCE,
    entries,
    f_one,
    interval_r_sums,
    plant,
)

from bruhatkl import klr, theorems  # noqa: E402
from bruhatkl.bruhat import (  # noqa: E402
    comparable_pairs,
    iter_bits,
    le_masks,
    neighborhood,
)
from bruhatkl.coxeter import (  # noqa: E402
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
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
    assert sorted(entries(ctx.tables.KL)) == sorted(comparable_pairs(ctx))
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
        plant(ctx.tables.R, 0, ctx.order - 1, tuple(
            (-1) ** (ell - k) * comb(ell, k) for k in range(ell + 1)
        ))
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
    plant(ctx.tables.R, 0, 9, entry)
    report = run_check("binomial_bounds", ctx)
    assert report.stats["violations_total"] == 1
    assert report.witnesses[0].endswith(": shifted coeff 3 is 0, bounds [1, 1]")


@pytest.mark.parametrize("w, entry", [("1 2 1", (1, -1)), ("1 2", (1,))])
def test_r_functional_equation_reports_short_r_entry(w, entry):
    # q^l R(1/q) = (-1)^l R(q) with l = l(e, w): a short entry reads as 0
    # up to q^l, so (1, -1) at l = 3 gives -q^2 + q^3, not -R = -1 + q
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx, ("R",))
    wi = parse_element(ctx, w).index
    assert len(entries(ctx.tables.R)[0, wi]) == ctx.lengths[wi] + 1 > len(entry)
    plant(ctx.tables.R, 0, wi, entry)
    report = run_check("r_functional_equation", ctx)
    assert report.stats["violations_total"] == 1
    assert report.witnesses == [
        f"u='e' w='{w}': reversal/sign mismatch {entry}"
    ]


@pytest.mark.parametrize("entry, violations", [((1, 0, -1), 1), ((-1, 1, 0), 0)])
def test_r_functional_equation_reads_long_r_entry_as_a_polynomial(entry, violations):
    # at l(e, s1) = 1, 1 - q^2 reverses to itself up to sign as a tuple,
    # but q R(1/q) = q - 1/q is no polynomial; q - 1 with a trailing zero
    # coefficient is R_{e,s1} itself
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx, ("R",))
    wi = parse_element(ctx, "1").index
    plant(ctx.tables.R, 0, wi, entry)
    report = run_check("r_functional_equation", ctx)
    assert report.stats["violations_total"] == violations
    assert report.witnesses == [
        f"u='e' w='1': reversal/sign mismatch {entry}"
    ][:violations]


def test_r_level_verdicts_are_keyed_by_a_and_l_not_by_r_alone():
    # R = q - 1 is right on the edge (e, s1) (a = l = 1) and wrong on
    # (e, s1 s2) (a = l = 2): a verdict keyed by R alone would report both
    # pairs or neither
    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx, ("R", "Rt"))
    right, wrong = parse_element(ctx, "1").index, parse_element(ctx, "1 2").index
    value = (-1, 1)
    plant(ctx.tables.R, 0, right, value)
    plant(ctx.tables.R, 0, wrong, value)
    expected = {
        "shifted_nonneg": "u='e' w='1 2': shifted (0, 1), a = 2",
        "divisibility_order": "u='e' w='1 2': multiplicity 1, a = 2",
        "boolean_criterion":
            "u='e' w='1 2': R == (q-1)^l is False but a == l is True",
        "fh_structure": "(q-1)-multiplicity 1 of R differs from absolute "
            "length for ('e', '1 2') in A3",
    }
    for name, witness in expected.items():
        report = run_check(name, ctx)
        assert (report.witnesses, report.stats["violations_total"]) == (
            [witness], 1
        ), name


def test_fresh_run_suite_makes_one_kl_sweep(monkeypatch):
    # kl_basics reports the faults of the sweep that certified the fill; a
    # table full before the call is swept again, so a later change shows
    sweeps = []
    real = klr._kl_faults

    def counted(*args):
        sweeps.append(args[2:])
        return real(*args)

    monkeypatch.setattr(klr, "_kl_faults", counted)
    ctx = build_group(parse_group_spec("A3"))
    assert all(r.passed for r in run_suite(ctx))
    assert len(sweeps) == 1
    assert run_check("kl_basics", ctx).passed
    assert len(sweeps) == 2


def test_sabotaged_kl_entry_fails_kl_basics():
    ctx = build_group(parse_group_spec("A3"))  # fresh, private to this test
    assert run_check("kl_basics", ctx).passed
    key = next(k for k, v in entries(ctx.tables.KL).items() if v == (1, 1))
    plant(ctx.tables.KL, *key, (1, 2))
    report = run_check("kl_basics", ctx)
    assert not report.passed
    assert report.witnesses and report.stats["violations_total"] >= 1


def test_sabotaged_r_entries_fail_with_witness_cap():
    ctx = build_group(parse_group_spec("A3"))
    assert run_check("r_basics", ctx).passed
    poisoned = 0
    for (ui, wi), v in sorted(entries(ctx.tables.R).items()):
        if ui != wi and len(v) >= 2:
            plant(ctx.tables.R, ui, wi, v[:-1] + (2,))  # no longer monic
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
    plant(ctx.tables.KL, 2, 2, (1, 1))
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
    assert entries(ctx.tables.R)[0, 9] == (-1, 2, -2, 1)  # an edge pair
    plant(ctx.tables.R, 0, 9, entry)
    plant(ctx.tables.Rt, 0, 9, (0, 2))  # the Rt check still runs on this pair
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
    "r_functional_equation",
    "r_derivative_edge",
    "shifted_nonneg",
    "divisibility_order",
    "fh_structure",
    "boolean_criterion",
    "binomial_bounds",
    "brenti_scan",
    "le1_le2_le3",
)


def _plant_kl_coset(ctx):
    """Give every x of one coset x W_d below a top w, d = D_R(w), the same
    wrong P_xw: P_{x*,w} + q, x* the coset's top, with l(x*, w) >= 3.  The
    constant term 1 and the degree bound still hold, and so does
    P_xw = P_{xs,w} for s in d, so the premises of the coset reduction of
    ``klr._sums_at_q`` hold and the reduced sweep reports the fault.  w is
    the first top by id with the most descents that has such a coset: two
    on A3 and B3; on rank 2 only w0 has two, and its one coset holds w0,
    so G2 gets one.  Returns (w, the coset's ids)."""
    lengths, rmult = ctx.lengths, ctx.rmult
    desc = klr._right_descents(ctx)
    lower = le_masks(ctx)
    for w in sorted(range(ctx.order), key=lambda w: (-bin(desc[w]).count("1"), w)):
        d = desc[w]
        for top in iter_bits(lower[w]):
            if desc[top] & d == d and lengths[w] - lengths[top] >= 3:
                coset, todo = {top}, [top]
                while todo:
                    x = todo.pop()
                    for s in iter_bits(d):
                        if rmult[x][s] not in coset:
                            coset.add(rmult[x][s])
                            todo.append(rmult[x][s])
                p = entries(ctx.tables.KL)[top, w]
                p += (0,) * (2 - len(p))
                wrong = (p[0], p[1] + 1) + p[2:]  # + q
                for x in coset:
                    plant(ctx.tables.KL, x, w, wrong)
                return w, sorted(coset)
    raise AssertionError(f"no coset to plant in {ctx.name}")


def _corrupt(ctx, kind):
    """Alter filled tables in place: several R entries +1 in one
    coefficient, one R coefficient times 10^6 (which raises B), several
    KL entries, in and out of their degree bound, or several Rt entries;
    or run the R-level checks and then set R(e, w0) to (q-1)^l(w0), so a
    check that kept what it read in the first run reports the old entry.
    Each of these that alters R or KL breaks a premise of the coset
    reduction of ``klr._sums_at_q``; kind kl_coset alters KL and keeps both
    (see ``_plant_kl_coset``)."""
    t = ctx.tables
    if kind == "r_plus_one":
        r = entries(t.R)
        keys = sorted(k for k in r if k[0] != k[1])
        for k in keys[:: max(1, len(keys) // 6)]:
            v = r[k]
            plant(t.R, *k, (v[0] + 1,) + v[1:])
    elif kind == "r_times_1e6":
        k = (0, ctx.order - 1)
        v = list(entries(t.R)[k])
        j = max(range(len(v)), key=lambda i: abs(v[i]))
        v[j] *= 10**6
        plant(t.R, *k, tuple(v))
    elif kind == "kl":
        kl = entries(t.KL)
        keys = sorted(k for k in kl if k[0] != k[1])
        for i, k in enumerate(keys[:: max(1, len(keys) // 6)]):
            p = kl[k]
            plant(t.KL, *k, (p[0] + 1,) + p[1:] if i % 2 else p + (1,))
        w = keys[len(keys) // 2][1]
        plant(t.KL, w, w, (1, 1))
        # larger at 1 than every P_vw = 1 above it, not larger coefficientwise
        plant(t.KL, 0, ctx.order - 1, (0, 2))
    elif kind == "rt":
        # entries with a < l: the lowest support coefficient q^a is not the top
        rt = entries(t.Rt)
        keys = sorted(k for k, v in rt.items() if sum(map(bool, v)) > 1)
        for i, k in enumerate(keys[:: max(1, len(keys) // 8)]):
            v = list(rt[k])
            a = next(j for j, c in enumerate(v) if c)
            if i % 4 == 0:  # R rebuilt from Rt differs
                v[a] += 2
            elif i % 4 == 1:  # a support coefficient 0
                v[a] = 0
            elif i % 4 == 2:  # off the support: a parity violation
                v[0] += 1
            else:  # a negative coefficient
                v[0] -= 1
            plant(t.Rt, *k, tuple(v))
    elif kind == "kl_coset":
        _plant_kl_coset(ctx)
    elif kind == "r_after_run":
        for name in R_LEVEL:
            run_check(name, ctx)
        ell = ctx.lengths[ctx.order - 1]
        plant(t.R, 0, ctx.order - 1, tuple(
            (-1) ** (ell - k) * comb(ell, k) for k in range(ell + 1)
        ))


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
@pytest.mark.parametrize(
    "kind",
    ["clean", "r_plus_one", "r_times_1e6", "kl", "rt", "r_after_run", "kl_coset"],
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


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
def test_kl_basics_names_every_pair_of_a_planted_coset(spec, monkeypatch):
    # the premises of the coset reduction hold, so the reduced sweep, which
    # sums over the coset tops alone, is the one that reports the coset
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    w, coset = _plant_kl_coset(ctx)
    reduced = []
    coset_tops = klr._coset_tops
    monkeypatch.setattr(
        klr, "_coset_tops", lambda c, d: reduced.append(d) or coset_tops(c, d)
    )
    report = run_check("kl_basics", ctx)
    assert klr._right_descents(ctx)[w] in reduced
    assert not report.passed
    for x in coset:
        pair = f"u='{word_of(ctx.elements[x])}' w='{word_of(ctx.elements[w])}':"
        assert any(wit.startswith(pair) for wit in report.witnesses)


def _plant_stuck_vertex(ctx, s, w):
    # classify's stuck-vertex case: every out-neighbor of the singular s
    # below w (P_sw = 1 + q) gets P(1) = 2 too, so s has no strict edge
    for v in neighborhood(s, w):
        plant(ctx.tables.KL, v.index, w.index, (1, 1))


def _plant_p1_at_most_1(ctx, s, w):
    # P_sw != 1 with P_sw(1) = 0: greedy paths from below end at s
    plant(ctx.tables.KL, s.index, w.index, (1, -1))


@pytest.mark.parametrize(
    "plant, witness",
    [
        (_plant_stuck_vertex, "has no strict edge"),
        (_plant_p1_at_most_1, "bad strict path"),
    ],
    ids=["stuck_vertex", "p1_at_most_1"],
)
def test_column_checks_match_reference_on_greedy_path_corruptions(plant, witness):
    names = (
        "dvc_linear",
        "nth2_quadratic",
        "lemma_lm",
        "nth3_strict_edges",
        "strict_path",
        "smoothness_equivalence",
    )
    reports = {}
    for path in ("library", "reference"):
        ctx = build_group(parse_group_spec("D4"))
        fill_tables(ctx)
        w = parse_element(ctx, "1 2 3 2 1 4 2 1 3")
        plant(ctx, parse_element(ctx, "1 2 4"), w)
        if path == "library":
            reports[path] = [report_to_json(run_check(n, ctx)) for n in names]
        else:
            reports[path] = [report_to_json(REFERENCE[n](ctx)) for n in names]
    assert reports["library"] == reports["reference"]
    by_name = dict(zip(names, reports["library"]))
    assert not by_name["lemma_lm"]["passed"]
    assert not by_name["nth3_strict_edges"]["passed"]
    assert any(witness in text for text in by_name["strict_path"]["witnesses"])


def _joint_and_single(spec, prepare, fill=True):
    """The reports of one run_suite over all checks, and of one run_check
    per check, each on a fresh context prepared the same way."""

    def fresh():
        ctx = build_group(parse_group_spec(spec))
        if fill:
            fill_tables(ctx)
        prepare(ctx)
        return ctx

    joint = [report_to_json(r) for r in run_suite(fresh())]
    single = [report_to_json(run_check(n, fresh())) for n in CHECK_NAMES]
    return joint, single


def _equivalence_sides(reports):
    """Per biconditional check, whether each witness is from the
    equivalence side (True) or the inequality side (False)."""
    return [
        ["strict excess is" in text for text in r["witnesses"]]
        for r in reports
        if r["check"] in ("dvc_linear", "nth2_quadratic")
    ]


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
@pytest.mark.parametrize(
    "kind", ["fresh", "clean", "r_plus_one", "r_times_1e6", "kl", "rt", "r_after_run"]
)
def test_joint_walk_matches_single_checks(spec, kind):
    # one run_suite shares the column walk and the certificate sweep
    # between its checks; each report, witness order and cap included,
    # must be what the check run alone reports
    if kind == "fresh":  # nothing filled: the certificate yields the R-sums
        joint, single = _joint_and_single(spec, lambda ctx: None, fill=False)
    else:
        joint, single = _joint_and_single(spec, lambda ctx: _corrupt(ctx, kind))
    assert joint == single
    for sides in _equivalence_sides(joint):
        assert sides == sorted(sides)  # inequality side first


def _plant_both_sides(ctx):
    """An inequality-side fault of nth2_quadratic at the last top, R(e, w0)
    set to (q-1)^l, and 25 equivalence-side faults at earlier tops, P = 1
    set to 1 + q on pairs of length at least 3."""
    fill_tables(ctx)
    top = ctx.order - 1
    ell = ctx.lengths[top]
    plant(ctx.tables.R, 0, top, tuple(
        (-1) ** (ell - k) * comb(ell, k) for k in range(ell + 1)
    ))
    kl = entries(ctx.tables.KL)
    smooth = [
        (u, w)
        for w in range(top)
        for u in range(w)
        if kl.get((u, w)) == (1,) and ctx.lengths[w] - ctx.lengths[u] >= 3
    ]
    for key in smooth[:25]:
        plant(ctx.tables.KL, *key, (1, 1))


def test_biconditional_lists_inequality_side_before_equivalence_side():
    # the fault at the last top is listed before the 25 at earlier tops,
    # and the cap then cuts the equivalence side, as in the reference
    reports = []
    for check in (run_check, lambda name, ctx: REFERENCE[name](ctx)):
        ctx = build_group(parse_group_spec("A3"))
        _plant_both_sides(ctx)
        reports.append(report_to_json(check("nth2_quadratic", ctx)))
    assert reports[0] == reports[1]
    witnesses = reports[0]["witnesses"]
    assert reports[0]["stats"]["violations_total"] == 26 and len(witnesses) == 20
    assert witnesses[0] == (
        "u='e' w='1 2 1 3 2 1': (q-1)^2 coefficient of the R-sum is 14 < 15"
    )
    assert all("strict excess is" in text for text in witnesses[1:])


@pytest.mark.parametrize(
    "plant", [_plant_stuck_vertex, _plant_p1_at_most_1],
    ids=["stuck_vertex", "p1_at_most_1"],
)
def test_joint_walk_matches_single_checks_on_greedy_path_corruptions(plant):
    def prepare(ctx):
        w = parse_element(ctx, "1 2 3 2 1 4 2 1 3")
        plant(ctx, parse_element(ctx, "1 2 4"), w)

    joint, single = _joint_and_single("D4", prepare)
    assert joint == single
    assert not all(r["passed"] for r in joint)


@pytest.mark.parametrize("spec, planted", [
    ("A3", False), ("B3", False), ("D4", False), ("A3", True),
])
def test_fresh_run_suite_shares_its_certificate_sweep_with_the_r_sums(
    monkeypatch, spec, planted
):
    # a fresh run_suite makes two sweeps, the certificate (F = P, which
    # also yields the interval R-sums, F = 1) and r_alternating_sum's
    # (F = +-R), and its R-sums equal those of a sweep of their own
    sweeps = []  # (the R-sums dict it fills or None, B)
    real = klr._sums_at_q

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        ones = args[4] if len(args) > 4 else kwargs.get("ones")
        sweeps.append((ones, res[0]))
        return res

    monkeypatch.setattr(klr, "_sums_at_q", counted)
    monkeypatch.setattr(theorems, "_sums_at_q", counted)
    ctx = build_group(parse_group_spec(spec))
    top = ctx.order - 1
    if planted:
        # P(e, w0) with a huge coefficient: its fault is reported, as the
        # entry is already in KL, and its norm raises the certificate's B
        plant(ctx.tables.KL, 0, top, (1, 10**6))
    reports = {r.check_name: r for r in run_suite(ctx)}
    assert len(sweeps) == 2
    ((shared, bits),) = [(ones, b) for ones, b in sweeps if ones is not None]
    monkeypatch.undo()
    assert entries(shared) == interval_r_sums(ctx)
    assert len(entries(shared)) == theorems._pair_count(ctx)
    if planted:
        own_bits = klr._sums_at_q(ctx, f_one)[0]
        assert bits > own_bits + 10  # B grows with ||P||_1 = 10^6 + 1
        assert reports["kl_basics"].witnesses == [
            f"u='e' w='{word_of(ctx.elements[top])}': functional equation fails"
        ]
    else:
        assert all(r.passed for r in reports.values())


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_run_suite_on_a_filled_table_makes_one_sweep(monkeypatch, spec):
    # on a table certified before the call, kl_basics and the three R-sum
    # checks still share one certificate sweep, and report what the same
    # call on a fresh context reports
    sweeps = []
    real = klr._sums_at_q

    def counted(*args, **kwargs):
        sweeps.append(args[1])
        return real(*args, **kwargs)

    names = ("kl_basics",) + SUM_CHECKS
    reports = {}
    for filled in (False, True):
        ctx = build_group(parse_group_spec(spec))
        if filled:
            fill_tables(ctx)
            monkeypatch.setattr(klr, "_sums_at_q", counted)
            monkeypatch.setattr(theorems, "_sums_at_q", counted)
        reports[filled] = [report_to_json(r) for r in run_suite(ctx, names)]
    assert len(sweeps) == 1
    assert reports[True] == reports[False]
    assert all(r["passed"] for r in reports[True])


def test_deodhar_alone_reads_no_kl():
    ctx = build_group(parse_group_spec("A3"))
    (report,) = run_suite(ctx, "deodhar")
    assert report.passed and report.pairs_tested == 213
    assert ctx.tables.KL == {} and ctx.tables.staged == {} and ctx.tables.mu == {}
