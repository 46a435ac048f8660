"""End-to-end and per-layer benchmark of bruhatkl.

Run from the root of a bruhatkl checkout:

    python3 perfbench/run.py --workload query-A5 --seed 1 --seconds 40 --trace 0

Workloads (see README.md): classify-B4, verify-D4, query-A5.  The run is a
closed loop with one client in this single-threaded process: it repeats the
workload's pass (its list of operations, each one ``bruhatkl.cli.main``
call, the next starting when the previous returns) while another whole
pass still fits in ``--seconds``.  Every operation's exit code and stdout
SHA-256 are checked against ``references.json``.

Times are reported in reference seconds: each call is scaled by how fast a
fixed calibration loop ran before, after and during it (see ``HostClock``),
so that the drifting speed of a shared machine cancels.  The raw medians
are in the report line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the same untraced passes run, then one traced pass of
the replicas in ``tracing.py``, and the last line reports per-layer self
times and exact counts; the spans are written to ``out/``.  The line
before the last carries the run metadata and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, argv, passes, possible_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

SETUP_RUNS = 15

# a fresh interpreter up to bruhatkl.cli imported and the group built; run
# isolated (-I) and without site (-S), so that neither the environment nor
# the installed site-packages enter the figure
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import bruhatkl.cli; "
    "from bruhatkl.coxeter import build_group, parse_group_spec; "
    "build_group(parse_group_spec(sys.argv[2]))"
)

CAL_LOOPS = 20_000  # one calibration sample, about 3 ms
# about the median calibrate() on an otherwise idle 2-vCPU Intel Xeon VM with
# Python 3.11.7; it only sets the scale of the reported seconds
CAL_REF_S = 0.0033
SAMPLE_EVERY_S = 0.1


def calibrate() -> float:
    """Wall seconds of a fixed loop of the integer, tuple and dict work that
    bruhatkl is made of; independent of the code under test."""
    t0 = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
        table[i & 1023] = (i, acc)
    return time.perf_counter() - t0


class Measured:
    """Wall and CPU seconds of one measured block, and its host-speed scale."""

    wall = cpu = scale = 0.0


class HostClock:
    """Measures blocks of work in seconds of a host running at reference speed.

    On a shared machine the speed of single-threaded Python drifts by tens
    of percent within seconds.  ``calibrate()`` samples that speed right
    before and after each block and, when ``inside``, every SAMPLE_EVERY_S
    during it from a timer signal; a long call drifts within itself, so its
    ends alone say too little.  The time spent in those samples is taken
    out of the block's wall and CPU seconds, and the block is scaled by
    CAL_REF_S over the mean sample.
    """

    def __init__(self):
        self._samples: list[float] = []
        self._spent_wall = self._spent_cpu = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self._samples.append(calibrate())
        self._spent_wall += time.perf_counter() - t0
        self._spent_cpu += time.process_time() - c0

    @contextlib.contextmanager
    def measure(self, inside: bool = True):
        m = Measured()
        self._samples = [calibrate()]
        self._spent_wall = self._spent_cpu = 0.0
        if inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            yield m
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            m.wall = time.perf_counter() - t0 - self._spent_wall
            m.cpu = time.process_time() - c0 - self._spent_cpu
        self._samples.append(calibrate())
        m.scale = CAL_REF_S / statistics.fmean(self._samples)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call(fn, *args, clock: HostClock, span=None) -> tuple[int, str, Measured]:
    """Run one operation as the CLI would: exit code, stdout, measurement.

    ValueError and RuntimeError map to exit 2 and 1 as in ``cli.main`` (the
    traced replicas raise them); any other exception is reported and
    returns -1, which no reference expects.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with clock.measure() as m, span or contextlib.nullcontext():
            try:
                rc = fn(*args)
            except ValueError:
                rc = 2
            except RuntimeError:
                rc = 1
            except Exception:
                traceback.print_exc(file=sys.__stderr__)
                rc = -1
    return rc, out.getvalue(), m


class Checker:
    """Compares each operation's exit code and stdout digest with the references."""

    def __init__(self, refs: dict):
        self.expected = {
            tuple(o["argv"]): (o["exit"], o["stdout_sha256"]) for o in refs["ops"]
        }
        self.attempted = 0
        self.failed = 0
        self._reported: set[tuple] = set()

    def has(self, op: dict) -> bool:
        return tuple(argv(op)) in self.expected

    def __call__(self, op: dict, rc: int, text: str) -> None:
        self.attempted += 1
        key = tuple(argv(op))
        want = self.expected[key]
        got = (rc, sha256(text))
        if got != want:
            self.failed += 1
            if key not in self._reported:
                self._reported.add(key)
                print(f"mismatch: bruhatkl {' '.join(key)}: exit {rc} "
                      f"(expected {want[0]}), stdout sha256 {got[1][:12]} "
                      f"(expected {want[1][:12]})", file=sys.stderr)


def setup_times(group: str, clock: HostClock) -> list[Measured]:
    out = []
    for _ in range(SETUP_RUNS):
        # no sampling inside: the sample would compete with the child.  No
        # timeout either: with one, subprocess polls with growing sleeps,
        # and the measured time snaps to the ends of those sleeps
        with clock.measure(inside=False) as m:
            subprocess.run(
                [sys.executable, "-I", "-S", "-c", SETUP_CODE, str(SRC), group],
                cwd=ROOT, check=True,
            )
        out.append(m)
    return out


def timed_passes(pass_ops, seconds: float, check: Checker, clock: HostClock):
    """Untraced passes while another one fits: per pass, its operations and
    the measurement of each call; and the peak RSS in MB after the first
    pass (later passes add heap fragmentation, not program memory)."""
    from bruhatkl.cli import main as cli_main

    done: list[tuple[list[dict], list[Measured]]] = []
    first_pass_rss = 0.0
    start = time.perf_counter()
    for ops in pass_ops:
        measured = []
        for op in ops:
            gc.collect()
            rc, text, m = call(cli_main, argv(op), clock=clock)
            measured.append(m)
            check(op, rc, text)
        done.append((ops, measured))
        if len(done) == 1:
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if elapsed * (len(done) + 1) / len(done) > seconds:
            return done, first_pass_rss


def traced_pass(ops: list[dict], check: Checker, clock: HostClock):
    """One pass through the traced replicas; the tracer and the scale per call.

    Host-speed samples land inside spans as they do inside untraced calls;
    each call's spans are scaled by its host-speed factor times the share of
    its span that was not spent in samples.
    """
    from tracing import OP_SPAN, REPLICAS, Tracer

    tracer = Tracer()
    scales = []
    for op in ops:
        gc.collect()
        root = len(tracer.spans)
        rc, text, m = call(REPLICAS[op["cmd"]], op, tracer, clock=clock,
                           span=tracer.span(OP_SPAN))
        _, start, end, _ = tracer.spans[root]
        scales.append(m.scale * m.wall / (end - start))
        check(op, rc, text)
    return tracer, scales


def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (absent below 11 samples)."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) >= 11:
        k = len(xs) - 11
        out["tail"] = xs[k]
        out["tail_percentile"] = 100.0 * k / (len(xs) - 1)
    return out


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over src/**/*.py, naming the code measured where git is absent."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(args)

    if not (SRC / "bruhatkl" / "__init__.py").is_file():
        print(f"error: no bruhatkl sources under {SRC}; run from the root of "
              "a bruhatkl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bruhatkl

    if Path(bruhatkl.__file__).resolve().parent != SRC / "bruhatkl":
        print(f"error: imported bruhatkl from {bruhatkl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    refs = json.loads(REFERENCES.read_text())
    wl = WORKLOADS[args.workload]
    check = Checker(refs)
    missing = [argv(op) for op in possible_ops(wl, refs["pools"]) if not check.has(op)]
    if missing:
        print(f"error: no reference output for {missing[0]}; regenerate with "
              "python3 perfbench/refgen.py", file=sys.stderr)
        return 2

    clock = HostClock()
    setup = setup_times(wl.group, clock)
    done, peak_rss_mb = timed_passes(
        passes(wl, args.seed, refs["pools"]), args.seconds, check, clock)
    setup_s = [m.wall * m.scale for m in setup]
    walls = [sum(m.wall * m.scale for m in ms) for _, ms in done]
    cpus = [sum(m.cpu * m.scale for m in ms) for _, ms in done]
    calls = [m.wall * m.scale for _, ms in done for m in ms]
    lengths = [op["length"] for ops, _ in done for op in ops if op["cmd"] == "table"]
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "passes": len(done),
        "ops_per_pass": len(done[0][0]),
        "interval_lengths": {
            str(n or "incomparable"): lengths.count(n)
            for n in sorted(set(lengths), key=lambda n: n or 0)
        },
        "samples": {
            "setup_s": summary(setup_s),
            "wall_s": summary(walls),
            "cpu_s": summary(cpus),
            "call_s": summary(calls),
        },
        "raw_median": {
            "setup_s": statistics.median(m.wall for m in setup),
            "wall_s": statistics.median(sum(m.wall for m in ms) for _, ms in done),
            "cpu_s": statistics.median(sum(m.cpu for m in ms) for _, ms in done),
            "call_s": statistics.median(m.wall for _, ms in done for m in ms),
        },
        "host_speed": summary([m.scale for _, ms in done for m in ms]),
    }
    correct = True
    if args.trace:
        gc.collect()
        tracer, scales = traced_pass(done[0][0], check, clock)
        counts = tracer.counts()
        # untraced wall of the passes that made the same calls as the traced one
        untraced = statistics.median(
            w for w, (ops, _) in zip(walls, done) if ops == done[0][0])
        metrics = per_layer_metrics(tracer, scales, untraced, counts)
        expected = refs["counts"][wl.name]
        if counts != expected:
            correct = False
            print(f"error: exact counts {counts} differ from the references "
                  f"{expected}", file=sys.stderr)
        report["trace_file"] = write_trace(tracer, report, args)
    else:
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "cpu_s": metric(statistics.median(cpus), "s"),
            "query_p50_s": metric(statistics.median(calls), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "setup_s": metric(statistics.median(setup_s), "s"),
        }
    report["error_rate"] = check.failed / check.attempted
    correct = correct and check.failed == 0

    for name, m in metrics.items():
        print(f"{name:32} {m['value']:>14.6f} {m['unit']}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_metrics(tracer, scales: list[float], untraced_wall: float,
                      counts: dict) -> dict:
    from tracing import LAYER_SPANS, OP_SPAN

    self_times = tracer.self_times(scales)
    traced_wall = sum(self_times.values())
    out = {f"{name}_s": metric(self_times.get(name, 0.0), "s") for name in LAYER_SPANS}
    out["cli.self_s"] = metric(self_times[OP_SPAN], "s")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    for name, value in counts.items():
        out[name] = metric(value, "count")
    return out


def write_trace(tracer, report: dict, args) -> str:
    """Write the spans (raw seconds, relative to the first start) as JSON."""
    t0 = tracer.spans[0][1]
    spans = [
        [name, round(start - t0, 7), round(end - t0, 7), parent]
        for name, start, end, parent in tracer.spans
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "report": report,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "spans": spans,
    }))
    return path.relative_to(ROOT).as_posix()


if __name__ == "__main__":
    sys.exit(main())
