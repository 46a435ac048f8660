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
    _diagram_automorphisms,
    _mul,
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
    assert ctx.tables.pending == {}


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


def test_le1_le2_le3_verdict_is_keyed_by_path_count():
    # (e, 1 2 1 3) and (e, 2 3 2 3) both have a = 2 and l = 4, with 2 and
    # 4 length-2 paths; given the R and Rt of the first, the second has
    # R''(1) = 2 != 4: a verdict keyed without m would report both pairs
    # or neither
    ctx = build_group(parse_group_spec("B3"))
    fill_tables(ctx, ("R", "Rt"))
    right = parse_element(ctx, "1 2 1 3").index
    wrong = parse_element(ctx, "2 3 2 3").index
    keys = {w: key for u, w, key in theorems._keyed_pairs(ctx) if u == 0}
    assert keys[right][2:] == (2, 4, False, 2)
    assert keys[wrong][2:] == (2, 4, False, 4)
    plant(ctx.tables.R, 0, wrong, entries(ctx.tables.R)[0, right])
    plant(ctx.tables.Rt, 0, wrong, entries(ctx.tables.Rt)[0, right])
    report = run_check("le1_le2_le3", ctx)
    assert report.witnesses == ["u='e' w='2 3 2 3': R''(1) = 2, m = 4"]
    assert report.stats["violations_total"] == 1
    assert report_to_json(report) == report_to_json(REFERENCE["le1_le2_le3"](ctx))


def _counted_keyed_passes(monkeypatch):
    """A list that gets one entry per ``theorems._keyed_pairs`` pass
    started from now on."""
    passes = []
    real = theorems._keyed_pairs

    def counted(ctx):
        passes.append(ctx.name)
        return real(ctx)

    monkeypatch.setattr(theorems, "_keyed_pairs", counted)
    return passes


def test_one_keyed_pass_per_call_and_one_more_per_failing_check(monkeypatch):
    # the classes take one pass; only a failing class-decided check walks
    # the pairs again, once, to write its witnesses
    ctx = build_group(parse_group_spec("B3"))
    passes = _counted_keyed_passes(monkeypatch)
    assert all(r.passed for r in run_suite(ctx))
    assert len(passes) == 1
    key = (0, ctx.order - 1)
    r = entries(ctx.tables.R)[key]
    plant(ctx.tables.R, *key, r[:-1] + (2,))  # no longer monic
    passes.clear()
    reports = run_suite(ctx)
    failing = [r for r in reports if r.check_name in R_LEVEL and not r.passed]
    assert failing
    assert len(passes) == 1 + len(failing)


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


def _plant_kl_off_inverse(ctx):
    """Give the first pair (x, w) by w and then x with l(x, w) >= 3 and
    (x^-1, w^-1) != (x, w) the wrong P_xw + q, and leave its inverse pair
    as it is: P(0) = 1 and the degree bound still hold, and P is no
    longer invariant under inversion.  Returns the pair."""
    inv, lengths = ctx.inv, ctx.lengths
    kl = entries(ctx.tables.KL)
    for x, w in sorted(kl, key=lambda p: (p[1], p[0])):
        if lengths[w] - lengths[x] >= 3 and (inv[x], inv[w]) != (x, w):
            p = kl[x, w]
            p += (0,) * (2 - len(p))
            plant(ctx.tables.KL, x, w, (p[0], p[1] + 1) + p[2:])  # + q
            return x, w
    raise AssertionError(f"no pair off its inverse in {ctx.name}")


def _orbit(ctx, x, v):
    """The orbit of the pair (x, v) under (x, v) -> (x^-1, v^-1) and
    (x, v) -> (v w0, x w0), the symmetries of R that the orbit reduction
    of r_alternating_sum rests on: up to eight pairs."""
    inv, w0 = ctx.inv, ctx.order - 1
    maps = (
        lambda p: (inv[p[0]], inv[p[1]]),
        lambda p: (_mul(ctx, p[1], w0), _mul(ctx, p[0], w0)),
    )
    orbit, todo = {(x, v)}, [(x, v)]
    while todo:
        p = todo.pop()
        for m in maps:
            if m(p) not in orbit:
                orbit.add(m(p))
                todo.append(m(p))
    return orbit


def _plant_r_orbit(ctx, kind):
    """Plant one wrong R value, the first coefficient + 1, on part of an
    orbit (``_orbit``) of a pair x < v: the whole orbit (kind r_orbit),
    which keeps premises 1 and 2 of the orbit reduction, the largest orbit
    first; the whole orbit of a pair whose image under some diagram
    automorphism phi lies outside it (r_phi), which breaks premise 3
    alone; the pair and its image under (x, v) -> (v w0, x w0) only
    (r_inverse), which breaks premise 1 alone; or the pair and its
    inverse pair only (r_w0), which breaks premise 2 alone.  Returns the
    pairs planted."""
    inv, w0 = ctx.inv, ctx.order - 1
    phis = [phi for _, phi in _diagram_automorphisms(ctx)[1:]]
    r = entries(ctx.tables.R)
    pairs = sorted(((x, v) for x, v in r if x != v), key=lambda p: (p[1], p[0]))
    for x, v in sorted(pairs, key=lambda p: -len(_orbit(ctx, *p))):
        by_inverse = {(x, v), (inv[x], inv[v])}
        by_w0 = {(x, v), (_mul(ctx, v, w0), _mul(ctx, x, w0))}
        if kind == "r_orbit":
            planted = _orbit(ctx, x, v)
        elif kind == "r_phi" and any(
            (phi[x], phi[v]) not in _orbit(ctx, x, v) for phi in phis
        ):
            planted = _orbit(ctx, x, v)
        elif kind == "r_inverse" and not by_inverse <= by_w0:
            planted = by_w0
        elif kind == "r_w0" and not by_w0 <= by_inverse:
            planted = by_inverse
        else:
            continue
        value = r[x, v]
        for pair in planted:
            plant(ctx.tables.R, *pair, (value[0] + 1,) + value[1:])
        return planted
    raise AssertionError(f"no pair for {kind} in {ctx.name}")


def _corrupt(ctx, kind):
    """Alter filled tables in place: several R entries +1 in one
    coefficient, one R coefficient times 10^6 (which raises B), several
    KL entries, in and out of their degree bound, or several Rt entries;
    or run the R-level checks and then set R(e, w0) to (q-1)^l(w0), so a
    check that kept what it read in the first run reports the old entry.
    Each of these that alters R or KL breaks a premise of the coset
    reduction of ``klr._sums_at_q``; kinds kl_coset and kl_inverse alter
    KL and keep both (see ``_plant_kl_coset``), kl_inverse on pairs whose
    inverse pairs keep their P, so P is no longer invariant under
    inversion.  Kinds r_orbit, r_phi, r_inverse and r_w0 alter R on part
    of an orbit of the orbit reduction (``_plant_r_orbit``); r_phi needs
    a diagram automorphism that inversion and w0 do not give (D4, G2)."""
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
    elif kind == "kl_inverse":
        _plant_kl_off_inverse(ctx)
    elif kind in ("r_orbit", "r_phi", "r_inverse", "r_w0"):
        _plant_r_orbit(ctx, kind)
    elif kind == "r_after_run":
        for name in R_LEVEL:
            run_check(name, ctx)
        ell = ctx.lengths[ctx.order - 1]
        plant(t.R, 0, ctx.order - 1, tuple(
            (-1) ** (ell - k) * comb(ell, k) for k in range(ell + 1)
        ))


KINDS = (
    "clean",
    "r_plus_one",
    "r_times_1e6",
    "kl",
    "rt",
    "r_after_run",
    "kl_coset",
    "kl_inverse",
    "r_orbit",
    "r_phi",
    "r_inverse",
    "r_w0",
)


def _kinds_on(specs):
    """(kind, spec) for each ``_corrupt`` kind that applies to each group:
    r_phi only where a diagram automorphism is not given by inversion and
    w0 (D4, G2)."""
    return [
        (kind, spec)
        for spec in specs
        for kind in KINDS
        if kind != "r_phi" or spec in ("D4", "G2")
    ]


@pytest.mark.parametrize("kind, spec", _kinds_on(["A3", "B3", "G2", "D4"]))
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


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
@pytest.mark.parametrize(
    "kind",
    [
        "clean",
        "r_plus_one",
        "r_times_1e6",
        "r_after_run",
        "r_orbit",
        "r_inverse",
        "r_w0",
        "r_empty",
        "r_diagonal_e",
        "r_diagonal_top",
    ],
)
def test_coset_sweep_sums_every_pair_when_r_breaks_its_recursion(
    spec, kind, monkeypatch
):
    # premise (b) of the coset reduction comes from the column pass over
    # R: every altered R, a planted () and a diagonal entry that is not 1
    # make the certificate sum every pair, so no coset tops are asked for
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    top = ctx.order - 1
    if kind == "r_empty":
        plant(ctx.tables.R, 0, top, ())
    elif kind == "r_diagonal_e":
        plant(ctx.tables.R, 0, 0, (2,))
    elif kind == "r_diagonal_top":
        plant(ctx.tables.R, top, top, (2,))
    elif kind != "clean":
        _corrupt(ctx, kind)
    reduced = []
    coset_tops = klr._coset_tops
    monkeypatch.setattr(
        klr, "_coset_tops", lambda c, d: reduced.append(d) or coset_tops(c, d)
    )
    run_check("kl_basics", ctx)
    assert bool(reduced) == (kind == "clean")


def _orbit_tops(monkeypatch):
    """The tops w the orbit reduction is asked about from now on: none
    unless its premises held."""
    tops = []
    top = klr._Orbits.top
    monkeypatch.setattr(
        klr._Orbits, "top", lambda self, w, vs: tops.append(w) or top(self, w, vs)
    )
    return tops


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
@pytest.mark.parametrize(
    "kind, reduced",
    [("clean", True), ("r_orbit", True), ("r_inverse", False), ("r_w0", False)],
)
def test_r_alternating_sum_takes_the_orbit_sweep_when_its_premises_hold(
    spec, kind, reduced, monkeypatch
):
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    _corrupt(ctx, kind)
    tops = _orbit_tops(monkeypatch)
    report = run_check("r_alternating_sum", ctx)
    assert tops == (list(range(ctx.order)) if reduced else [])
    assert report.passed == (kind == "clean")


@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "D4"])
@pytest.mark.parametrize("kind", ["clean", "r_orbit"])
def test_orbit_sweep_matches_the_full_sweep(spec, kind, monkeypatch):
    # every pair's integer S_xw(Q), and B, as a sum over its own triples
    # gives them, also where a planted orbit breaks the identity; A3's w0
    # is not central, so conjugating by it moves the pairs too.  Premise 1,
    # R's inverse symmetry, is the caller's verdict, as in run_suite
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    if kind == "r_orbit":
        assert len(_plant_r_orbit(ctx, kind)) == (8 if spec == "A3" else 4)
    premise = not klr._inverse_faults(ctx)
    assert premise
    asked = _orbit_tops(monkeypatch)
    sweeps = []
    for reduction in (None, klr._Orbits):
        bits, tops = klr._sums_at_q(
            ctx, theorems._signed_r(ctx), reduction=reduction, premise=premise
        )
        sweeps.append((bits, [(w, list(acc.items())) for w, acc in tops]))
        assert asked == ([] if reduction is None else list(range(ctx.order)))
    assert sweeps[0] == sweeps[1]
    assert len([x for _, acc in sweeps[0][1] for x, _ in acc]) == len(
        comparable_pairs(ctx)
    )


def test_one_inverse_sweep_per_call(monkeypatch):
    # r_inverse_symmetry and the orbit reduction of r_alternating_sum read
    # the faults of one sweep of R's inverse symmetry per run_suite call
    calls = []
    real = klr._inverse_faults

    def counted(ctx):
        calls.append(ctx.name)
        return real(ctx)

    monkeypatch.setattr(klr, "_inverse_faults", counted)
    monkeypatch.setattr(theorems, "_inverse_faults", counted)
    ctx = build_group(parse_group_spec("D4"))
    tops = _orbit_tops(monkeypatch)
    reports = run_suite(ctx)
    assert calls == ["D4"]
    assert tops == list(range(ctx.order))  # the premise held: reduced
    assert all(r.passed for r in reports)


def test_orbit_reduction_serves_f_plus_minus_r_only(monkeypatch):
    # F = 1 has neither symmetry, so asked for with F = 1, or for the
    # R-sums S_1 beside F = +-R, the orbit reduction sums every pair
    ctx = build_group(parse_group_spec("B3"))
    fill_tables(ctx)
    asked = _orbit_tops(monkeypatch)
    for f, ones in ((f_one, None), (theorems._signed_r(ctx), {})):
        sweeps = []
        for reduction in (None, klr._Orbits):
            bits, tops = klr._sums_at_q(
                ctx, f, ones=ones, reduction=reduction, premise=True
            )
            sweeps.append((bits, [(w, list(acc.items())) for w, acc in tops]))
        assert sweeps[0] == sweeps[1]
    assert asked == []


def _orbit_generators(monkeypatch):
    """The number of generators of H the orbit reduction sums over, per
    top asked about from now on: 1 when H is inversion alone."""
    counts = []
    top = klr._Orbits.top
    monkeypatch.setattr(
        klr._Orbits,
        "top",
        lambda self, w, vs: counts.append(len(self.sym.maps)) or top(self, w, vs),
    )
    return counts


@pytest.mark.parametrize("spec, generators", [("D4", 4), ("G2", 2)])
@pytest.mark.parametrize("kind", ["clean", "r_orbit", "r_phi"])
def test_r_alternating_sum_drops_a_broken_diagram_symmetry(
    spec, generators, kind, monkeypatch
):
    # a value planted on an orbit of inversion and w0 but not on its image
    # under a diagram automorphism leaves premises 1 and 2: the sweep
    # sums the tops of today's orbits, under inversion alone, and fails
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    planted = set() if kind == "clean" else _plant_r_orbit(ctx, kind)
    phis = [phi for _, phi in _diagram_automorphisms(ctx)]
    closed = all((phi[x], phi[v]) in planted for phi in phis for x, v in planted)
    assert not closed or kind != "r_phi"
    counts = _orbit_generators(monkeypatch)
    report = run_check("r_alternating_sum", ctx)
    assert counts == [generators if closed else 1] * ctx.order
    assert report.passed == (kind == "clean")


def _summed_tops(monkeypatch):
    """The tops the whole-group sweeps of ``klr._sums_at_q`` sum from now
    on: every top, unless the orbits under H give some of them their
    representative's sums."""
    summed = []
    real = klr._sums_at_q

    def counted(*args, **kwargs):
        bits, tops = real(*args, **kwargs)
        return bits, ((w, acc) for w, acc in tops if acc is None or not summed.append(w))

    monkeypatch.setattr(klr, "_sums_at_q", counted)
    return summed


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "G2"])
@pytest.mark.parametrize("kind", ["clean", "kl_inverse"])
def test_certificate_sums_every_top_when_p_is_not_invariant(
    spec, kind, monkeypatch
):
    # on a sound table the certificate sums the least top of each orbit
    # under H; a P planted off its inverse pair makes it sum every top,
    # and kl_basics names the pair
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    pair = _plant_kl_off_inverse(ctx) if kind == "kl_inverse" else None
    summed = _summed_tops(monkeypatch)
    report = run_check("kl_basics", ctx)
    if pair is None:
        sym = ctx.tables.symmetries
        assert summed == [w for w in range(ctx.order) if sym.rep[w] == w]
        assert len(summed) < ctx.order
        assert report.passed
    else:
        assert summed == list(range(ctx.order))
        x, w = pair
        assert report.witnesses[0].startswith(
            f"u='{word_of(ctx.elements[x])}' w='{word_of(ctx.elements[w])}':"
        )


@pytest.mark.parametrize("kind, spec", _kinds_on(["A3", "B3", "D4", "G2"]))
def test_reduced_sweeps_match_the_full_sweeps(spec, kind):
    # the certificate's faults and R-sums, and r_alternating_sum's
    # integers, from the sweeps reduced over the orbits under H and the
    # cosets, equal those of the full sweeps, clean and corrupted
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    _corrupt(ctx, kind)
    recursive = klr._fill_columns(ctx, "R")
    certified = []
    for premise in (recursive, False):
        ones = {}
        faults = list(klr._kl_faults(ctx, klr._reader(ctx.tables), ones=ones,
                                     recursive=premise))
        certified.append((faults, entries(ones)))
    assert certified[0] == certified[1]
    premise = not klr._inverse_faults(ctx)
    sweeps = []
    for reduction in (klr._Orbits, None):
        bits, tops = klr._sums_at_q(
            ctx, theorems._signed_r(ctx), reduction=reduction, premise=premise
        )
        sweeps.append((bits, [(w, list(acc.items())) for w, acc in tops]))
    assert sweeps[0] == sweeps[1]


def _interval_plant(ctx, u, w, kind):
    """Plant, for the interval certificate of [u, w] on a filled context,
    the kind's wrong entry, and return a function that puts the old one
    back (None if the kind plants nothing on this interval):
    - kl_breaks_a: P_vw + q for the first member v, by id, whose vs is a
      member for some s in D_R(w), so premise (a) fails;
    - r_read: R_{x*,w} + 1 for the first coset top x* of [u, w], a row the
      reduced sweep reads, so premise (b) fails."""
    t, lower, rmult = ctx.tables, le_masks(ctx), ctx.rmult
    members = [v for v in iter_bits(lower[w]) if lower[v] >> u & 1]
    d = klr._right_descents(ctx, [w])[0]
    if kind == "kl_breaks_a":
        table, inside = t.KL, set(members)
        x = next(
            (v for v in members if any(rmult[v][s] in inside for s in iter_bits(d))),
            None,
        )
        if x is None:
            return None
        p = table[w][x]
        p += (0,) * (2 - len(p))
        wrong = (p[0], p[1] + 1) + p[2:]  # + q
    else:
        table = t.R
        x = next(x for x in members if klr._right_descents(ctx, [x])[0] & d == d)
        r = table[w][x]
        wrong = (r[0] + 1,) + r[1:]
    old = table[w][x]
    table[w][x] = wrong
    return lambda: table[w].__setitem__(x, old)


def _interval_outcome(ctx, u, w):
    """kl_poly(u, w) with every entry of the column of w pending again:
    the P served, or the error raised."""
    ctx.tables.pending[w] = le_masks(ctx)[w]
    try:
        return klr.kl_poly(ctx.elements[u], ctx.elements[w]).coeffs
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", ["clean", "kl_breaks_a", "kl_coset", "r_read"])
@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "D4", "A4"])
def test_interval_certificate_matches_the_full_sweep(spec, kind, monkeypatch):
    # on every interval [u, w], u < w (a sample on A4), the certificate
    # reduced to the coset tops of w serves the same P and raises the same
    # errors as the sweep over every x of [u, w]: on a sound table, under
    # a KL plant that breaks premise (a) or keeps it (the coset of
    # ``_plant_kl_coset``, whose faults the reduced sweep reports), and
    # under an R plant on a row it reads, which makes it fall back
    ctx = build_group(parse_group_spec(spec))
    fill_tables(ctx)
    if kind == "kl_coset":
        _plant_kl_coset(ctx)
    pairs = [(u, w) for u, w in comparable_pairs(ctx) if u != w]
    if spec == "A4":
        pairs = pairs[::11]
    held = []
    holds = klr._IntervalCosets.holds
    monkeypatch.setattr(
        klr._IntervalCosets, "holds", lambda self: held.append(holds(self)) or held[-1]
    )
    outcomes, planted = {}, []
    for reduced in (True, False):
        if not reduced:
            monkeypatch.setattr(klr._IntervalCosets, "holds", lambda self: False)
        outcomes[reduced] = out = []
        for u, w in pairs:
            undo = None
            if kind not in ("clean", "kl_coset"):
                undo = _interval_plant(ctx, u, w, kind)
            out.append(_interval_outcome(ctx, u, w))
            if reduced:
                planted.append(undo is not None)
            if undo is not None:
                undo()
    assert outcomes[True] == outcomes[False]
    if kind in ("clean", "kl_coset"):
        assert all(held)
    else:
        assert any(planted)
        assert held == [not p for p in planted]
    errors = [o for o in outcomes[True] if isinstance(o, str)]
    assert bool(errors) == (kind != "clean")


def test_interval_certificate_skips_an_r_plant_it_never_reads(monkeypatch):
    # the documented difference: on [e, w0] of A3 the reduced certificate
    # reads R on the row w0 alone, so a wrong R_{e,s1} is never read and
    # the P of the group's R is served; the full sweep reads it and fails
    outcomes = []
    for reduced in (True, False):
        if not reduced:
            monkeypatch.setattr(klr._IntervalCosets, "holds", lambda self: False)
        ctx = build_group(parse_group_spec("A3"))
        plant(ctx.tables.R, 0, parse_element(ctx, "1").index, (5, 1))
        outcomes.append(_interval_outcome(ctx, 0, ctx.order - 1))
    assert outcomes[0] == (1,)
    assert outcomes[1] == "KL functional equation failed for ('e', '1 2 1 3 2 1') in A3"


def _plant_stuck_vertex(ctx, s, w):
    # classify's stuck-vertex case: every out-neighbor of the singular s
    # below w (P_sw = 1 + q) gets P(1) = 2 too, so s has no strict edge
    for v in neighborhood(s, w):
        plant(ctx.tables.KL, v.index, w.index, (1, 1))


def _plant_p1_at_most_1(ctx, s, w):
    # P_sw != 1 with P_sw(1) = 0: greedy paths from below end at s
    plant(ctx.tables.KL, s.index, w.index, (1, -1))


def _plant_p1_nonpositive_neighbor(ctx, s, w):
    # an out-neighbor v < w of the singular s gets P_vw = 1 - q, so
    # P_vw(1) = 0: s has a neighbor in the mask of the x with P(1) < 1
    v = next(v for v in neighborhood(s, w) if v != w)
    plant(ctx.tables.KL, v.index, w.index, (1, -1))


@pytest.mark.parametrize(
    "plant, check, witness",
    [
        (_plant_stuck_vertex, "strict_path", "has no strict edge"),
        (_plant_p1_at_most_1, "strict_path", "bad strict path"),
        (
            _plant_p1_nonpositive_neighbor,
            "nth3_strict_edges",
            "P(1) <= 0 at a neighbor",
        ),
    ],
    ids=["stuck_vertex", "p1_at_most_1", "p1_nonpositive_neighbor"],
)
def test_column_checks_match_reference_on_greedy_path_corruptions(
    plant, check, witness
):
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
    assert any(witness in text for text in by_name[check]["witnesses"])


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
    "plant",
    [_plant_stuck_vertex, _plant_p1_at_most_1, _plant_p1_nonpositive_neighbor],
    ids=["stuck_vertex", "p1_at_most_1", "p1_nonpositive_neighbor"],
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


def _counted_passes(monkeypatch):
    """The kinds of the ``klr._fill_columns`` passes made from now on,
    called by either module's name for it, in call order."""
    kinds = []
    real = klr._fill_columns

    def counted(ctx, kind="R"):
        kinds.append(kind)
        return real(ctx, kind)

    monkeypatch.setattr(klr, "_fill_columns", counted)
    monkeypatch.setattr(theorems, "_fill_columns", counted)
    return kinds


@pytest.mark.parametrize(
    "filled, run, passes",
    [
        (False, run_suite, ["R", "Rt"]),
        (True, run_suite, ["R", "Rt"]),
        (False, lambda ctx: run_suite(ctx, "deodhar"), []),
        (False, lambda ctx: run_suite(ctx, "kl_nonneg"), ["R"]),
        (False, lambda ctx: run_suite(ctx, "r_basics"), ["R", "Rt"]),
        (False, lambda ctx: run_suite(ctx, "r_alternating_sum"), ["R"]),
        (False, fill_tables, ["R", "Rt"]),
        (False, lambda ctx: fill_tables(ctx, ("KL",)), ["R"]),
    ],
    ids=[
        "suite",
        "suite_after_fill",
        "deodhar",
        "kl_nonneg",
        "r_basics",
        "r_alternating_sum",
        "fill_tables",
        "fill_tables_kl",
    ],
)
def test_one_column_pass_per_kind_per_call(filled, run, passes, monkeypatch):
    # R is filled and checked once per call, by the certificate when KL is
    # read and by run_suite otherwise, and Rt once, with the classes; every
    # other sweep only reads the tables
    ctx = build_group(parse_group_spec("D4"))
    if filled:
        fill_tables(ctx)
    kinds = _counted_passes(monkeypatch)
    run(ctx)
    assert sorted(kinds) == passes


@pytest.mark.parametrize("spec", ["A3", "B3"])
@pytest.mark.parametrize(
    "kind", ["r_plus_one", "r_times_1e6", "r_after_run", "r_orbit", "r_inverse", "r_w0"]
)
def test_no_verdict_on_r_is_carried_between_calls(spec, kind):
    # each run_suite call makes its own pass over R, so a call after R
    # changes reports what a fresh context changed the same way reports
    reports = []
    for ran_before in (True, False):
        ctx = build_group(parse_group_spec(spec))
        if ran_before:
            assert all(r.passed for r in run_suite(ctx))
        else:
            fill_tables(ctx)
        _corrupt(ctx, kind)
        reports.append([report_to_json(r) for r in run_suite(ctx)])
    assert reports[0] == reports[1]
    assert not all(r["passed"] for r in reports[0])


def test_deodhar_alone_reads_no_kl():
    ctx = build_group(parse_group_spec("A3"))
    (report,) = run_suite(ctx, "deodhar")
    assert report.passed and report.pairs_tested == 213
    assert ctx.tables.KL == {} and ctx.tables.pending == {} and ctx.tables.mu == {}
