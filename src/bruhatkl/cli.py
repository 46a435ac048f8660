"""Command-line front end.

Subcommands:

* ``table``       -- R (both bases), Rt, KL, f/h-vectors and interval
                     statistics for one pair of elements;
* ``verify``      -- run named whole-group checks, exit 0 iff all pass;
* ``graph``       -- export one interval's Bruhat graph as DOT or JSON;
* ``classify``    -- list every singular pair of a group with its KL data;
* ``scan-brenti`` -- report-only scan of q-coefficients of R against
                     binomial bounds.

Exit status: 0 on success, 1 if a verification check fails, 2 on usage
errors (bad group spec, malformed or non-reduced element word,
incomparable pair, unknown check name, empty check or kind selection).
"""

from __future__ import annotations

import argparse
import json
import sys

from bruhatkl.bruhat import (
    absolute_length,
    defect,
    interval,
    interval_to_dot,
    interval_to_json,
)
from bruhatkl.coxeter import (
    DEFAULT_ORDER_GUARD,
    GroupContext,
    GroupElement,
    build_group,
    parse_element,
    parse_group_spec,
    word_of,
)
from bruhatkl.klr import (
    _fh_of,
    _singular_rows,
    fill_tables,
    kl_poly,
    r_poly,
    rtilde_poly,
)
from bruhatkl.polynomial import IntPoly, to_shifted
from bruhatkl.theorems import (
    CHECK_NAMES,
    report_to_json,
    run_check,
    run_suite,
    summary_table,
)

CLASSIFY_GUARD = 1152  # refuse groups this large unless --big is passed


def _load_group(args) -> GroupContext:
    return build_group(parse_group_spec(args.group), args.max_order)


def _parse_reduced(ctx: GroupContext, text: str, flag: str) -> GroupElement:
    """Parse an element word, requiring it to be reduced."""
    g = parse_element(ctx, text)
    n_letters = 0 if text.strip() in ("", "e") else len(text.split())
    if g.length != n_letters:
        raise ValueError(
            f"{flag} word {text!r} is not reduced: product has length "
            f"{g.length}, word has {n_letters} letters "
            f"(canonical word: {word_of(g)!r})"
        )
    return g


def cmd_table(args) -> int:
    ctx = _load_group(args)
    u = _parse_reduced(ctx, args.u, "--u")
    w = _parse_reduced(ctx, args.w, "--w")
    kinds = _parse_kinds(args.kinds)
    try:
        a = absolute_length(u, w)
    except ValueError:
        raise ValueError(f"incomparable: {word_of(u)!r} is not below {word_of(w)!r}")
    df = defect(u, w)
    ell = w.length - u.length
    r = r_poly(u, w) if "r" in kinds else None
    rt = rtilde_poly(u, w) if "rt" in kinds else None
    p = kl_poly(u, w) if "kl" in kinds else None
    fh = _fh_of(ctx, u.index, w.index, a) if u != w else None
    if args.format == "json":
        obj = {
            "group": ctx.name,
            "u": word_of(u),
            "w": word_of(w),
            "l": ell,
            "a": a,
            "df": df,
            "f": list(fh.f) if fh else None,
            "h": list(fh.h) if fh else None,
        }
        if r is not None:
            obj["R"] = r.to_json()
            obj["R_shifted"] = to_shifted(r).to_json()
        if rt is not None:
            obj["Rt"] = rt.to_json()
        if p is not None:
            obj["P"] = p.to_json()
        print(json.dumps(obj))
    else:
        print(f"group {ctx.name} (order {ctx.order})")
        print(f"u = {word_of(u)}")
        print(f"w = {word_of(w)}")
        print(f"l(u,w) = {ell}   a(u,w) = {a}   df(u,w) = {df}")
        if r is not None:
            print(f"R  (q)   = {r}")
            print(f"R  (q-1) = {to_shifted(r)}")
        if rt is not None:
            print(f"Rt       = {rt}")
        if p is not None:
            print(f"P        = {p}")
        if fh is not None:
            print(f"f = {fh.f}")
            print(f"h = {fh.h}")
    return 0


def _parse_kinds(text: str) -> set[str]:
    kinds = {k.strip().lower() for k in text.split(",") if k.strip()}
    if not kinds:
        raise ValueError("no table kinds selected; expected a csv of r,rt,kl")
    bad = kinds - {"r", "rt", "kl"}
    if bad:
        raise ValueError(f"unknown table kinds {sorted(bad)!r}; expected r,rt,kl")
    return kinds


def cmd_verify(args) -> int:
    ctx = _load_group(args)
    selection = "all"
    if args.checks != "all":
        selection = [c.strip() for c in args.checks.split(",") if c.strip()]
    reports = run_suite(ctx, selection)
    if args.format == "json":
        print(json.dumps([report_to_json(r) for r in reports]))
    else:
        print(summary_table(reports))
        for r in reports:
            if not r.passed:
                print(f"\nFAILED {r.check_name}: "
                      f"{r.stats['violations_total']} violations")
                for wtn in r.witnesses:
                    print(f"  {wtn}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_graph(args) -> int:
    ctx = _load_group(args)
    u = _parse_reduced(ctx, args.u, "--u")
    w = _parse_reduced(ctx, args.w, "--w")
    data = interval(u, w)
    if args.format == "json":
        print(json.dumps(interval_to_json(data)))
    else:
        print(interval_to_dot(data), end="")
    return 0


def cmd_classify(args) -> int:
    ctx = _load_group(args)
    if ctx.order >= CLASSIFY_GUARD and not args.big:
        raise ValueError(
            f"group {ctx.name} has order {ctx.order}; classify needs --big "
            f"for groups of order {CLASSIFY_GUARD} and above"
        )
    fill_tables(ctx, ("KL",))
    words = [word_of(g) for g in ctx.elements]
    as_json = args.format == "json"
    forms: dict = {}  # P value -> its JSON dict or its text, made once
    rows = []
    for wi in range(ctx.order):
        for xi, p, p1, df, strict, end in _singular_rows(ctx, wi):
            form = forms.get(p)
            if form is None:
                poly = IntPoly(p)
                form = forms[p] = poly.to_json() if as_json else str(poly)
            rows.append(
                {
                    "w": words[wi],
                    "u": words[xi],
                    "P": form,
                    "P1": p1,
                    "df": df,
                    "strict_edges": strict,
                    "path_end": words[end],
                }
            )
    if as_json:
        print(json.dumps({"group": ctx.name, "singular": rows}))
    else:
        print(f"group {ctx.name} (order {ctx.order}): {len(rows)} singular pairs")
        current_w = None
        for row in rows:
            if row["w"] != current_w:
                current_w = row["w"]
                print(f"w = {current_w}")
            print(
                f"  u = {row['u']}: P = {row['P']}, P(1) = {row['P1']}, "
                f"df = {row['df']}, strict_edges = {row['strict_edges']}, "
                f"path_end = {row['path_end']}"
            )
    return 0


def cmd_scan_brenti(args) -> int:
    ctx = _load_group(args)
    report = run_check("brenti_scan", ctx)
    if args.format == "json":
        print(json.dumps(report_to_json(report)))
    else:
        excess = report.stats["max_excess"]
        pairs = report.stats["excess_pairs"]
        print(
            f"group {ctx.name}: max |[q^n] R| - binomial(l, n) = {excess} "
            f"over {report.pairs_tested} pairs"
        )
        if pairs:
            print(f"NOTABLE: {pairs} pairs exceed the binomial bound")
        else:
            print("no pair exceeds the binomial bound")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatkl",
        description=(
            "Exact Bruhat order, Bruhat graphs, R-/Rt-/Kazhdan-Lusztig "
            "polynomials, and verification checks for finite Weyl groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, words=False, fmt=("text", "json")):
        p.add_argument("--group", required=True, help="group spec, e.g. A3, B2, F4")
        p.add_argument(
            "--max-order",
            type=int,
            default=DEFAULT_ORDER_GUARD,
            help="order guard for group construction (default %(default)s)",
        )
        p.add_argument("--format", choices=fmt, default=fmt[0])
        if words:
            p.add_argument("--u", default="e", help="bottom element word, e.g. '1 2 1'")
            p.add_argument("--w", required=True, help="top element word")

    p = sub.add_parser("table", help="polynomials and statistics of one pair")
    common(p, words=True)
    p.add_argument("--kinds", default="r,rt,kl", help="csv of r,rt,kl (default all)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run whole-group verification checks")
    common(p)
    p.add_argument(
        "--checks",
        default="all",
        help=f"csv of check names or 'all'; registered: {', '.join(CHECK_NAMES)}",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graph", help="export one interval's Bruhat graph")
    common(p, words=True, fmt=("dot", "json"))
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("classify", help="list singular pairs with KL data")
    common(p)
    p.add_argument("--big", action="store_true", help="allow order >= 1152")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan-brenti", help="scan q-coefficients against binomials")
    common(p)
    p.set_defaults(func=cmd_scan_brenti)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a computed table failed its own postcondition: report as a
        # verification failure, not a usage error
        print(f"internal invariant error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
