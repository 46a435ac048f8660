"""Traced replicas of the bruhatkl commands the benchmark runs.

Each replica makes the same public library calls as the command in
``bruhatkl.cli``, in the same order, and prints the same stdout, so the
run checks its output against the same reference digest as the untraced
command.  Around each call into a layer it opens a span.  Lazily built
tables (lower-cone masks, Bruhat-graph adjacency) are requested by an
explicit call just before the first call that would build them, so their
cost lands in their own span; the work done is the same.  Following the
benchmark's definition, verify fills the R, Rt and KL tables before the
checks instead of letting the checks fill them.

Spans stay in memory as ``[name, start, end, parent]`` lists and are
written out by the caller when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from bruhatkl.bruhat import (
    absolute_length,
    bruhat_le,
    comparable_pairs,
    defect,
    interval,
    interval_to_json,
    le_masks,
    up_adjacency,
)
from bruhatkl.cli import CLASSIFY_GUARD
from bruhatkl.coxeter import build_group, parse_element, parse_group_spec, word_of
from bruhatkl.klr import (
    fh_vectors,
    fill_tables,
    kl_at_one,
    kl_poly,
    r_poly,
    rtilde_poly,
    strict_edges,
    strict_path_to_smooth,
)
from bruhatkl.polynomial import IntPoly, to_shifted
from bruhatkl.theorems import CHECK_NAMES, run_check, summary_table

OP_SPAN = "cli"

LAYER_SPANS = (
    "coxeter.build_group",
    "bruhat.le_masks",
    "bruhat.adjacency",
    "bruhat.interval",
    "bruhat.absolute_length",
    "bruhat.defect",
    "klr.fill_R",
    "klr.fill_Rt",
    "klr.fill_KL",
    "klr.pair_poly",
    "klr.fh_vectors",
    "klr.strict_path",
    "klr.strict_edges",
) + tuple(f"theorems.{name}" for name in CHECK_NAMES)


class Tracer:
    """Collects spans and the facts the exact counts are read from."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.ctx = None  # group of the latest operation
        self.singular_pairs = 0
        self.pairs_tested = 0
        self.violations = 0

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def self_times(self, scales: list[float]) -> dict[str, float]:
        """Seconds per span name: each span minus the time its children
        cover, times the scale of the operation (root span) it belongs to."""
        covered = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        op = -1
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                op += 1
                root[i] = op
            else:
                covered[parent] += end - start
                root[i] = root[parent]
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - covered[i]) * scales[root[i]]
        return out

    def counts(self) -> dict[str, int]:
        """Exact counts, from public calls on the latest operation's group.

        Called after the traced operations, so the masks or adjacency it
        may build here are outside every span.
        """
        ctx = self.ctx
        return {
            "coxeter.order": ctx.order,
            "bruhat.comparable_pairs": sum(bin(m).count("1") for m in le_masks(ctx)),
            "bruhat.adjacency_edges": sum(len(vs) for vs in up_adjacency(ctx)),
            "klr.singular_pairs": self.singular_pairs,
            "theorems.pairs_tested": self.pairs_tested,
            "theorems.violations": self.violations,
        }


def _group(op: dict, t: Tracer):
    with t.span("coxeter.build_group"):
        ctx = build_group(parse_group_spec(op["group"]))
    t.ctx = ctx
    return ctx


def _pair(ctx, op: dict):
    return parse_element(ctx, op["u"]), parse_element(ctx, op["w"])


def traced_table(op: dict, t: Tracer) -> int:
    """``bruhatkl table`` with all kinds, text format."""
    ctx = _group(op, t)
    u, w = _pair(ctx, op)
    with t.span("bruhat.adjacency"):
        up_adjacency(ctx)
    with t.span("bruhat.absolute_length"):
        a = absolute_length(u, w)  # ValueError on an incomparable pair
    with t.span("bruhat.defect"):
        df = defect(u, w)
    with t.span("klr.pair_poly"):
        r = r_poly(u, w)
        rt = rtilde_poly(u, w)
    if u != w:
        with t.span("bruhat.le_masks"):
            le_masks(ctx)
    with t.span("klr.pair_poly"):
        p = kl_poly(u, w)
    fh = None
    if u != w:
        with t.span("klr.fh_vectors"):
            fh = fh_vectors(u, w)
    print(f"group {ctx.name} (order {ctx.order})")
    print(f"u = {word_of(u)}")
    print(f"w = {word_of(w)}")
    print(f"l(u,w) = {w.length - u.length}   a(u,w) = {a}   df(u,w) = {df}")
    print(f"R  (q)   = {r}")
    print(f"R  (q-1) = {to_shifted(r)}")
    print(f"Rt       = {rt}")
    print(f"P        = {p}")
    if fh is not None:
        print(f"f = {fh.f}")
        print(f"h = {fh.h}")
    return 0


def traced_graph(op: dict, t: Tracer) -> int:
    """``bruhatkl graph --format json``."""
    ctx = _group(op, t)
    u, w = _pair(ctx, op)
    with t.span("bruhat.interval"):
        comparable = bruhat_le(u, w)  # interval() tests this before any adjacency
    if not comparable:
        raise ValueError(f"empty interval: {op['u']!r} and {op['w']!r} are incomparable")
    with t.span("bruhat.adjacency"):
        up_adjacency(ctx)
    with t.span("bruhat.interval"):
        data = interval(u, w)
    print(json.dumps(interval_to_json(data)))
    return 0


def traced_classify(op: dict, t: Tracer) -> int:
    """``bruhatkl classify --format json``."""
    ctx = _group(op, t)
    if ctx.order >= CLASSIFY_GUARD:
        raise ValueError(f"group {ctx.name} needs --big")
    with t.span("bruhat.le_masks"):
        le_masks(ctx)
    with t.span("klr.fill_KL"):
        fill_tables(ctx, ("KL",))
    with t.span("bruhat.adjacency"):
        up_adjacency(ctx)
    one = IntPoly([1])
    rows = []
    for ui, wi in comparable_pairs(ctx):
        if ui == wi:
            continue
        u, w = ctx.elements[ui], ctx.elements[wi]
        with t.span("klr.pair_poly"):
            p = kl_poly(u, w)
        if p == one:
            continue
        with t.span("klr.strict_path"):
            path = strict_path_to_smooth(u, w)
        row = {"w": word_of(w), "u": word_of(u), "P": p.to_json()}
        with t.span("klr.pair_poly"):
            row["P1"] = kl_at_one(u, w)
        with t.span("bruhat.defect"):
            row["df"] = defect(u, w)
        with t.span("klr.strict_edges"):
            row["strict_edges"] = len(strict_edges(u, w))
        row["path_end"] = word_of(path[-1])
        rows.append(row)
    print(json.dumps({"group": ctx.name, "singular": rows}))
    t.singular_pairs = len(rows)
    return 0


def traced_verify(op: dict, t: Tracer) -> int:
    """``bruhatkl verify`` with all checks, text format."""
    ctx = _group(op, t)
    with t.span("bruhat.le_masks"):
        le_masks(ctx)
    for kind in ("R", "Rt", "KL"):
        with t.span(f"klr.fill_{kind}"):
            fill_tables(ctx, (kind,))
    with t.span("bruhat.adjacency"):
        up_adjacency(ctx)
    reports = []
    for name in CHECK_NAMES:
        with t.span(f"theorems.{name}"):
            reports.append(run_check(name, ctx))
    print(summary_table(reports))
    for r in reports:
        if not r.passed:
            print(f"\nFAILED {r.check_name}: {r.stats['violations_total']} violations")
            for wtn in r.witnesses:
                print(f"  {wtn}")
    t.pairs_tested = sum(r.pairs_tested for r in reports)
    t.violations = sum(r.stats["violations_total"] for r in reports)
    return 0 if all(r.passed for r in reports) else 1


REPLICAS = {
    "table": traced_table,
    "graph": traced_graph,
    "classify": traced_classify,
    "verify": traced_verify,
}
