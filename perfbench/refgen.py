"""Regenerate references.json, the expected result of every operation.

Run from the root of a bruhatkl checkout whose code is the reference:

    python3 perfbench/refgen.py

This is the only command that writes the references; a benchmark run
reads them and never changes them.  It draws the query pools with a fixed
seed, runs every operation that any workload seed can produce through
``bruhatkl.cli.main``, and records each exit code and stdout SHA-256.  It
also records each workload's exact counts, taken from public calls:
``le_masks``, ``up_adjacency``, the classify rows and ``run_suite``.
"""

from __future__ import annotations

import json
import platform
import random
import sys

from run import REFERENCES, SRC, HostClock, call, git_revision, sha256, source_digest
from workloads import WORKLOADS, argv, possible_ops

POOL_SEED = 2012
POOL_PER_LENGTH = 6
POOL_INCOMPARABLE = 6


def query_pool(group: str) -> dict:
    """Pairs of every interval length, and incomparable pairs with l(u) < l(w)."""
    from bruhatkl.bruhat import iter_bits, le_masks
    from bruhatkl.coxeter import build_group, parse_group_spec, word_of

    ctx = build_group(parse_group_spec(group))
    masks = le_masks(ctx)
    length = [g.length for g in ctx.elements]
    by_length: dict[int, list[tuple[int, int]]] = {}
    for wi, mask in enumerate(masks):
        for ui in iter_bits(mask):
            if ui != wi:
                by_length.setdefault(length[wi] - length[ui], []).append((ui, wi))
    rng = random.Random(POOL_SEED)

    def words(ui, wi):
        return [word_of(ctx.elements[ui]), word_of(ctx.elements[wi])]

    pairs = {
        str(n): [words(*p) for p in sorted(rng.sample(ps, min(POOL_PER_LENGTH, len(ps))))]
        for n, ps in sorted(by_length.items())
    }
    incomparable: list[list[str]] = []
    while len(incomparable) < POOL_INCOMPARABLE:
        ui, wi = rng.randrange(ctx.order), rng.randrange(ctx.order)
        if length[ui] < length[wi] and not masks[wi] >> ui & 1:
            if words(ui, wi) not in incomparable:
                incomparable.append(words(ui, wi))
    return {"pairs": pairs, "incomparable": incomparable}


def expected_counts(wl, stdout_of) -> dict:
    from bruhatkl.bruhat import le_masks, up_adjacency
    from bruhatkl.coxeter import build_group, parse_group_spec
    from bruhatkl.theorems import run_suite

    ctx = build_group(parse_group_spec(wl.group))
    counts = {
        "coxeter.order": ctx.order,
        "bruhat.comparable_pairs": sum(bin(m).count("1") for m in le_masks(ctx)),
        "bruhat.adjacency_edges": sum(len(vs) for vs in up_adjacency(ctx)),
        "klr.singular_pairs": 0,
        "theorems.pairs_tested": 0,
        "theorems.violations": 0,
    }
    if wl.kind == "classify":
        op = {"cmd": "classify", "group": wl.group}
        counts["klr.singular_pairs"] = len(json.loads(stdout_of(op))["singular"])
    if wl.kind == "verify":
        reports = run_suite(ctx)
        counts["theorems.pairs_tested"] = sum(r.pairs_tested for r in reports)
        counts["theorems.violations"] = sum(
            r.stats["violations_total"] for r in reports)
    return counts


def main() -> int:
    sys.path.insert(0, str(SRC))
    from bruhatkl.cli import main as cli_main

    pools = {
        wl.group: query_pool(wl.group)
        for wl in WORKLOADS.values() if wl.kind == "query"
    }
    ops = [op for wl in WORKLOADS.values() for op in possible_ops(wl, pools)]
    clock = HostClock()
    records, outputs = [], {}
    for i, op in enumerate(ops, 1):
        rc, text, m = call(cli_main, argv(op), clock=clock)
        if rc not in (0, 1, 2):
            raise SystemExit(f"bruhatkl {' '.join(argv(op))} raised; no reference written")
        outputs[tuple(argv(op))] = text
        records.append({"argv": argv(op), "exit": rc, "stdout_sha256": sha256(text)})
        print(f"[{i}/{len(ops)}] exit {rc} {m.wall:.2f}s bruhatkl {' '.join(argv(op))}",
              file=sys.stderr)
    counts = {
        name: expected_counts(wl, lambda op: outputs[tuple(argv(op))])
        for name, wl in WORKLOADS.items()
    }
    refs = {
        "generated_from": {
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
        },
        "pools": pools,
        "counts": counts,
        "ops": records,
    }
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {len(records)} operations to {REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
