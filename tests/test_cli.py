"""CLI tests: output shapes, JSON round-trips, exit-status contract."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from reference_checks import plant  # noqa: E402

from bruhatkl.bruhat import comparable_pairs, defect, neighborhood  # noqa: E402
from bruhatkl.cli import main  # noqa: E402
from bruhatkl.coxeter import (  # noqa: E402
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
from bruhatkl.klr import (  # noqa: E402
    _singular_rows,
    fill_tables,
    kl_at_one,
    kl_poly,
    strict_edges,
    strict_path_to_smooth,
)
from bruhatkl.polynomial import IntPoly  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--group", "A2", "--u", "e", "--w", "1 2 1")
    assert code == 0
    assert "R  (q)   = q^3 - 2*q^2 + 2*q - 1" in out
    assert "R  (q-1) = (q-1)^3 + (q-1)^2 + (q-1)" in out
    assert "P        = 1" in out
    assert "a(u,w) = 1" in out and "df(u,w) = 0" in out


def test_table_trivial_pair(capsys):
    code, out, _ = run(capsys, "table", "--group", "A2", "--u", "1", "--w", "1")
    assert code == 0
    assert "l(u,w) = 0   a(u,w) = 0   df(u,w) = 0" in out
    assert out.count("= 1\n") >= 3  # R, Rt, P all trivial


def test_table_json_round_trips_polynomials(capsys):
    code, out, _ = run(
        capsys, "table", "--group", "A3", "--u", "e", "--w", "2 1 3 2",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["R"] == {"basis": "q", "coeffs": [1, -3, 4, -3, 1]}
    assert obj["R_shifted"] == {"basis": "q-1", "coeffs": [0, 0, 1, 1, 1]}
    assert IntPoly(obj["P"]["coeffs"]) == IntPoly([1, 1])
    assert obj["df"] == 1 and obj["a"] == 2 and obj["l"] == 4
    assert obj["f"] == [1, 1, 1] and obj["h"] == [1, -1, 1]


def test_table_kinds_filter(capsys):
    code, out, _ = run(
        capsys, "table", "--group", "A2", "--u", "e", "--w", "1 2 1",
        "--kinds", "kl",
    )
    assert code == 0
    assert "P        = 1" in out and "R  (q)" not in out


def test_table_incomparable_exits_2(capsys):
    code, _, err = run(capsys, "table", "--group", "A2", "--u", "1", "--w", "2")
    assert code == 2
    assert "incomparable" in err


def test_non_reduced_word_exits_2(capsys):
    code, _, err = run(capsys, "table", "--group", "A2", "--u", "1 1", "--w", "1 2")
    assert code == 2
    assert "not reduced" in err


def test_bad_group_and_bad_token_exit_2(capsys):
    code, _, err = run(capsys, "table", "--group", "H3", "--u", "e", "--w", "1")
    assert code == 2 and "H" in err
    code, _, err = run(capsys, "table", "--group", "A2", "--u", "e", "--w", "7")
    assert code == 2 and "'7'" in err
    # digits other than ASCII 0-9 are refused with the module's own message
    for group in ("A\u0663", "A\u00b2"):  # Arabic-Indic 3, superscript 2
        code, out, err = run(capsys, "table", "--group", group, "--w", "1")
        assert code == 2 and out == "" and "bad rank" in err
    for word in ("\u0661 2", "1 \u00b2"):  # Arabic-Indic 1, superscript 2
        code, out, err = run(capsys, "table", "--group", "A3", "--w", word)
        assert code == 2 and out == "" and "bad generator token" in err


def test_verify_all_a2(capsys):
    code, out, _ = run(capsys, "verify", "--group", "A2")
    assert code == 0
    assert out.count("PASS") == 23 and "FAIL" not in out


def test_verify_selection_and_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--group", "A3", "--checks", "deodhar",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["check"] == "deodhar"
    assert reports[0]["stats"]["max_defect"] == 1
    assert reports[0]["passed"] is True


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--group", "A2", "--checks", "nope")
    assert code == 2 and "unknown check" in err


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--group", "A2", "--u", "e", "--w", "1 2 1")
    assert code == 0
    assert out.startswith("// interval [e, 1 2 1] in A2: 6 vertices, 9 edges")
    assert out.count("->") == 9


def test_graph_json(capsys):
    code, out, _ = run(
        capsys, "graph", "--group", "A2", "--u", "e", "--w", "1 2",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["members"]) == 4 and len(obj["edges"]) == 4


def test_classify_a2_empty_a3_six(capsys):
    code, out, _ = run(capsys, "classify", "--group", "A2")
    assert code == 0 and "0 singular pairs" in out
    code, out, _ = run(capsys, "classify", "--group", "A3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["singular"]) == 6
    by_w = {(r["w"], r["u"]) for r in obj["singular"]}
    assert ("2 1 3 2", "e") in by_w and ("2 1 3 2", "2") in by_w
    assert all(r["P"] == {"basis": "q", "coeffs": [1, 1]} for r in obj["singular"])


def test_classify_a1_empty(capsys):
    code, out, _ = run(capsys, "classify", "--group", "A1")
    assert code == 0 and "0 singular pairs" in out


def test_classify_guard_refuses_f4(capsys):
    code, _, err = run(capsys, "classify", "--group", "F4")
    assert code == 2 and "--big" in err


def _classify_pair_by_pair(ctx):
    """The rows of ``classify``, rebuilt pair by pair from the public
    one-pair functions."""
    fill_tables(ctx, ("KL",))
    rows = []
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        u, w = ctx.elements[ui], ctx.elements[wi]
        p = kl_poly(u, w)
        if p == IntPoly([1]):
            continue
        path = strict_path_to_smooth(u, w)
        rows.append(
            {
                "w": word_of(w),
                "u": word_of(u),
                "P": p.to_json(),
                "P1": kl_at_one(u, w),
                "df": defect(u, w),
                "strict_edges": len(strict_edges(u, w)),
                "path_end": word_of(path[-1]),
            }
        )
    return rows


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2"])
def test_classify_rows_match_pair_by_pair(capsys, spec):
    # the column pass against the per-pair path it replaces
    ctx = build_group(parse_group_spec(spec))
    rows = _classify_pair_by_pair(ctx)
    code, out, err = run(capsys, "classify", "--group", spec, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"group": ctx.name, "singular": rows}
    lines = [f"group {ctx.name} (order {ctx.order}): {len(rows)} singular pairs"]
    for i, row in enumerate(rows):
        if i == 0 or row["w"] != rows[i - 1]["w"]:
            lines.append(f"w = {row['w']}")
        lines.append(
            f"  u = {row['u']}: P = {IntPoly(row['P']['coeffs'])}, "
            f"P(1) = {row['P1']}, df = {row['df']}, "
            f"strict_edges = {row['strict_edges']}, path_end = {row['path_end']}"
        )
    code, out, err = run(capsys, "classify", "--group", spec)
    assert code == 0 and err == ""
    assert out == "\n".join(lines) + "\n"


def _patch_classify_fill(monkeypatch, corrupt):
    """Make ``classify`` change KL entries, by corrupt(ctx), after its fill."""

    def fill_then_corrupt(ctx, kinds):
        fill_tables(ctx, kinds)
        corrupt(ctx)

    monkeypatch.setattr("bruhatkl.cli.fill_tables", fill_then_corrupt)


def _first_path_error(ctx, exc_type):
    """The first error of ``strict_path_to_smooth`` over the rows of
    ``classify``, in its order of w and then u, as (u, message)."""
    for ui, wi in comparable_pairs(ctx):
        u, w = ctx.elements[ui], ctx.elements[wi]
        if ui != wi and kl_poly(u, w) != IntPoly([1]):
            try:
                strict_path_to_smooth(u, w)
            except exc_type as exc:
                return word_of(u), str(exc)
    return None


def test_classify_stuck_singular_vertex_exits_1(monkeypatch, capsys):
    # the out-neighbors of the singular s = 1 2 4 under w (P_sw = 1 + q)
    # get P(1) = 2 too, so s has no strict edge; the greedy path from the
    # earlier row u = 1 4 reaches s before any row starts at s
    def corrupt(ctx):
        w = parse_element(ctx, "1 2 3 2 1 4 2 1 3")
        for v in neighborhood(parse_element(ctx, "1 2 4"), w):
            plant(ctx.tables.KL, v.index, w.index, (1, 1))

    ctx = build_group(parse_group_spec("D4"))
    fill_tables(ctx, ("KL",))
    corrupt(ctx)
    first = _first_path_error(ctx, RuntimeError)
    assert first == (
        "1 4",
        "singular vertex '1 2 4' under '1 2 3 2 1 4 2 1 3' in D4 has no strict edge",
    )
    wi = parse_element(ctx, "1 2 3 2 1 4 2 1 3").index
    with pytest.raises(RuntimeError) as exc:
        list(_singular_rows(ctx, wi))
    assert str(exc.value) == first[1]
    _patch_classify_fill(monkeypatch, corrupt)
    code, out, err = run(capsys, "classify", "--group", "D4")
    assert code == 1 and out == ""
    assert err == f"internal invariant error: {first[1]}\n"


def test_classify_row_with_p1_at_most_1_exits_2(monkeypatch, capsys):
    # P != 1 with P(1) = 0: no greedy path starts there
    def corrupt(ctx):
        e, w = ctx.identity, parse_element(ctx, "2 1 3 2")
        plant(ctx.tables.KL, e.index, w.index, (1, -1))

    ctx = build_group(parse_group_spec("A3"))
    fill_tables(ctx, ("KL",))
    corrupt(ctx)
    first = _first_path_error(ctx, ValueError)
    assert first == ("e", "strict_path_to_smooth requires a singular bottom vertex")
    _patch_classify_fill(monkeypatch, corrupt)
    code, out, err = run(capsys, "classify", "--group", "A3")
    assert code == 2 and out == ""
    assert err == f"error: {first[1]}\n"


def test_scan_brenti(capsys):
    code, out, _ = run(capsys, "scan-brenti", "--group", "A2")
    assert code == 0
    assert "max |[q^n] R| - binomial(l, n) = 0" in out
    code, out, _ = run(capsys, "scan-brenti", "--group", "A3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["check"] == "brenti_scan" and obj["stats"]["max_excess"] <= 0


def _poison(monkeypatch, kind, u, w, coeffs):
    """Make the CLI build groups whose ``kind`` table holds a wrong entry."""

    def poisoned_build_group(datum, max_order):
        ctx = build_group(datum, max_order)
        ui, wi = parse_element(ctx, u).index, parse_element(ctx, w).index
        plant(getattr(ctx.tables, kind), ui, wi, coeffs)
        return ctx

    monkeypatch.setattr("bruhatkl.cli.build_group", poisoned_build_group)


def test_poisoned_cache_fails_verification(monkeypatch, capsys):
    # a wrong KL entry planted before the fill, structurally valid or
    # empty: the checks catch it
    for coeffs, fault in ((1, 7), "functional equation"), ((), "malformed KL entry ()"):
        _poison(monkeypatch, "KL", "e", "1 2 1", coeffs)
        code, out, _ = run(capsys, "verify", "--group", "A2", "--checks", "kl_basics")
        assert code == 1
        assert "FAIL" in out and fault in out


def test_poisoned_r_cache_hits_internal_invariant(monkeypatch, capsys):
    # monic of the right degree; the KL computation's substitution check
    # then fails its postcondition
    _poison(monkeypatch, "R", "e", "1", (5, 1))
    code, _, err = run(capsys, "verify", "--group", "A2")
    assert code == 1 and "internal invariant error" in err


def test_empty_r_entry_fails_every_r_check_it_breaks(monkeypatch, capsys):
    # an invariant failure (exit 1) with all 23 reports, not a crash of
    # brenti_scan read as a usage error (exit 2)
    def poisoned_build_group(datum, max_order):
        ctx = build_group(datum, max_order)
        fill_tables(ctx)
        plant(ctx.tables.R, 0, 9, ())
        return ctx

    monkeypatch.setattr("bruhatkl.cli.build_group", poisoned_build_group)
    code, out, err = run(capsys, "verify", "--group", "A3")
    assert code == 1 and err == ""
    assert "FAILED r_basics: 1 violations" in out
    assert "R not monic of degree 3: ()" in out
    assert "FAILED binomial_bounds: 1 violations" in out
    assert "shifted coeff 3 is 0, bounds [1, 1]" in out
    rows = [line.split() for line in out.splitlines()]
    assert ["brenti_scan", "A3", "189", "PASS", "0"] in rows


@pytest.mark.parametrize(
    "argv",
    [("table", "--group", "A2", "--u", "e", "--w", "1 2 1"), ("classify", "--group", "A2")],
)
def test_poisoned_r_fails_kl_certificate(monkeypatch, capsys, argv):
    # the KL values these commands print are certified against R first
    _poison(monkeypatch, "R", "e", "1", (5, 1))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "internal invariant error" in err


def test_empty_selections_exit_2(capsys):
    # zero checks run would print only the header and read as "all passed"
    code, out, err = run(capsys, "verify", "--group", "A3", "--checks", ",")
    assert code == 2 and out == "" and "no checks selected" in err
    code, out, err = run(
        capsys, "table", "--group", "A3", "--w", "2 1 3 2", "--kinds", ","
    )
    assert code == 2 and out == "" and "no table kinds selected" in err


def test_usage_error_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--group", "A2"])  # missing --w
    assert exc.value.code == 2
    # the on-disk polynomial cache is gone: every value is computed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group", "A2", "--cache", "x.jsonl"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache" in capsys.readouterr().err
