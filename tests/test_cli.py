"""CLI tests: output shapes, JSON round-trips, exit-status contract."""

import json

import pytest

from bruhatkl.cli import main
from bruhatkl.coxeter import build_group, parse_element
from bruhatkl.klr import fill_tables
from bruhatkl.polynomial import IntPoly


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
        key = (parse_element(ctx, u).index, parse_element(ctx, w).index)
        getattr(ctx.tables, kind)[key] = coeffs
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
        ctx.tables.R[0, 9] = ()
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
