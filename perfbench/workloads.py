"""Workload definitions: which bruhatkl commands a run makes, and in what order.

An operation is a small dict naming one CLI call, e.g.
``{"cmd": "table", "group": "A5", "u": "e", "w": "1 2"}``.  ``argv`` turns
it into the argument list given to ``bruhatkl.cli.main``; the traced
replica in ``tracing.py`` reads the same dict.  The benchmark hands the
program words only, never element ids.

The ``query`` stream draws its pairs from a pool committed in
``references.json``, so that every operation a seed can produce has a
reference output: each pass takes one pair of each interval length and
one incomparable pair, each queried with ``table`` and with ``graph``, in
an order shuffled by the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    kind: str  # "classify", "verify" or "query"
    group: str

    @property
    def name(self) -> str:
        return f"{self.kind}-{self.group}"


# why each one: README.md and BENCHMARK.json
_ALL = (
    Workload("classify", "B4"),
    Workload("verify", "D4"),
    Workload("query", "A5"),
    # the same code paths on a tiny group, for the benchmark's smoke test
    Workload("classify", "A3"),
    Workload("verify", "A3"),
    Workload("query", "A3"),
)

WORKLOADS = {w.name: w for w in _ALL}

QUERY_CMDS = ("table", "graph")


def argv(op: dict) -> list[str]:
    """The bruhatkl command line of one operation."""
    cmd, group = op["cmd"], op["group"]
    if cmd == "classify":
        return ["classify", "--group", group, "--format", "json"]
    if cmd == "verify":
        return ["verify", "--group", group]
    out = [cmd, "--group", group, "--u", op["u"], "--w", op["w"]]
    if cmd == "graph":
        out += ["--format", "json"]
    return out


def possible_ops(wl: Workload, pools: dict) -> list[dict]:
    """Every operation a pass of this workload can contain, for any seed."""
    if wl.kind != "query":
        return [{"cmd": wl.kind, "group": wl.group}]
    pool = pools[wl.group]
    pairs = [p for ps in pool["pairs"].values() for p in ps] + pool["incomparable"]
    return [
        {"cmd": cmd, "group": wl.group, "u": u, "w": w}
        for u, w in pairs
        for cmd in QUERY_CMDS
    ]


def passes(wl: Workload, seed: int, pools: dict) -> Iterator[list[dict]]:
    """The operations of each pass, without end.

    classify and verify make one call per pass; their inputs do not depend
    on the seed.  Each query pass draws one pair per interval length and
    one incomparable pair from the pool, and shuffles the table and graph
    calls on them; an op carries its interval length (None if incomparable).
    """
    if wl.kind != "query":
        while True:
            yield [{"cmd": wl.kind, "group": wl.group}]
    rng = random.Random(seed)
    pool = pools[wl.group]
    lengths = sorted(pool["pairs"], key=int)
    while True:
        pairs = [(int(n), rng.choice(pool["pairs"][n])) for n in lengths]
        pairs.append((None, rng.choice(pool["incomparable"])))
        ops = [
            {"cmd": cmd, "group": wl.group, "u": u, "w": w, "length": n}
            for n, (u, w) in pairs
            for cmd in QUERY_CMDS
        ]
        rng.shuffle(ops)
        yield ops
