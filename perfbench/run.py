"""Benchmark entry point: runs one workload of driftknn CLI ops and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, and every op calls ``driftknn.io_cli.run_cli(argv)`` in this
one process (the benchmark adds no threads or processes; cKDTree queries use
``workers=-1``, one thread per CPU). Set-up (import, input generation and a
warm-up cycle) is timed; set-up after the import is repeated and its median
taken. Then whole cycles of ops run until ``--seconds`` have passed. Every
op's output is checked; a nonzero exit, an exception or a failed check
counts as a failed op.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each cycle
twice, untraced and then under the span recorder, for ``--seconds`` in all,
and reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Outputs, spans, results and output hashes go to ``.perfbench_work/``.
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
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# The median op latency is printed and stored with each result but is not
# an end-to-end metric: on a host whose CPU speed switches between two
# states, the median follows whichever state held most of a run. On a shared
# 2-vCPU Xeon VM its spread over ten runs reached 0.35 of the median, more
# than any usable regression bound. Throughput and the tail average over or
# sit above the switches.
END_TO_END = [
    ("items_per_s", "1/s"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def import_driftknn(root: Path):
    """Import driftknn from ``root/src``; returns (package, seconds taken)."""
    src = root / "src"
    if not (src / "driftknn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no driftknn sources under {src}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import driftknn
    import driftknn.io_cli  # noqa: F401  (pulls in every layer, numpy and scipy)
    elapsed = time.perf_counter() - t0
    if Path(driftknn.__file__).resolve().parent != (src / "driftknn").resolve():
        raise SystemExit(f"perfbench: driftknn imported from {driftknn.__file__}, not {src}")
    return driftknn, elapsed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path) -> dict:
    """Machine, library versions and run conditions stored with each result."""
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "processes": 1,
        "cli": "in-process driftknn.io_cli.run_cli",
        "threads_added": 0,
        "kdtree_workers": "-1 (one per CPU)",
        "src_lines": src_lines,
    }


def _hash_key(argv: list[str]) -> str:
    return " ".join(os.path.basename(a) if os.sep in a else a for a in argv)


class OpRunner:
    """Runs, times and checks ops; collects latencies, items and hashes."""

    def __init__(self, io_cli, workload):
        self.io_cli = io_cli
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.hash_changes = 0

    def run(self, op) -> tuple[float, int]:
        """Run one op; returns (seconds, items completed: 0 if it failed)."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.io_cli.run_cli(op.argv)
            except Exception as e:  # an op that raises is a failed op, not a crash
                rc, error = None, f"raised {e!r}"
            elapsed = time.perf_counter() - t0
        if error is None and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()}"
        if error is None:
            try:
                self.workload.check(op, out.getvalue())
            except Exception as e:  # any malformed output fails the check
                error = f"check failed: {e!r}"
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{' '.join(op.argv)}: {error}")
            return elapsed, 0
        digest = hashlib.sha256(op.out.read_bytes()).hexdigest()
        key = _hash_key(op.argv)
        if self.hashes.setdefault(key, digest) != digest:
            self.hash_changes += 1
        return elapsed, op.items

    def run_cycles(self, first: int, *, seconds: float | None = None,
                   count: int | None = None):
        """Run cycles from ``first`` for ``count`` cycles or until ``seconds``
        have passed; returns (latencies, items, cycles run)."""
        latencies, items, i = [], 0, first
        deadline = time.perf_counter() + (seconds or 0.0)
        while True:
            for op in self.workload.cycle(i):
                dt, n = self.run(op)
                latencies.append(dt)
                items += n
            i += 1
            if count is not None and i - first >= count:
                break
            if count is None and time.perf_counter() >= deadline:
                break
        return latencies, items, i - first


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it,
    and that percentile; the maximum when there are ten ops or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _compare_hashes(path: Path, hashes: dict[str, str]) -> int:
    """Number of outputs whose hash differs from an earlier run with the same
    seed (a diagnostic: outputs of equal argv should be byte-identical)."""
    old = json.loads(path.read_text()) if path.exists() else {}
    changed = sum(1 for k, v in hashes.items() if k in old and old[k] != v)
    path.write_text(json.dumps({**old, **hashes}, sort_keys=True))
    return changed


def run_workload(pkg, import_s: float, name: str, seed: int, seconds: float, trace: bool,
                 work_root: Path, log=print) -> tuple[dict, dict]:
    """Set up and run one workload; returns the result object and details
    (failure messages, op count, median latency) stored with it."""
    from perfbench import spans as spanlib
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]()
    runner = OpRunner(pkg.io_cli, workload)
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    setup_times = []
    for r in range(SETUP_REPEATS):
        rep_dir = work / f"setup{r}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        workload.prepare(rep_dir, seed)
        prepare_s = time.perf_counter() - t0
        warm, _, _ = runner.run_cycles(0, count=1)
        setup_times.append(prepare_s + sum(warm))
    setup_s = import_s + statistics.median(setup_times)
    gc.collect()
    gc.freeze()

    if not trace:
        latencies, items, cycles = runner.run_cycles(1, seconds=seconds)
        tail_ms, tail_pct = tail(latencies)
        details = {"measured_ops": len(latencies), "op_tail_percentile": tail_pct,
                   "op_p50_ms": statistics.median(latencies) * 1e3}
        metrics = {
            "items_per_s": items / sum(latencies),
            "op_tail_ms": tail_ms * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        log(f"perfbench {name} seed={seed}: {len(latencies)} measured ops in {cycles} cycles, "
            f"{runner.attempted} attempted incl. {SETUP_REPEATS} warm-up cycles; "
            f"items are {workload.item_unit}")
        log(f"  op_tail_ms is p{tail_pct:.1f} of {len(latencies)} ops; setup_s = import "
            f"{import_s:.3f} s + median set-up {statistics.median(setup_times):.3f} s")
        log(f"  op_p50_ms = {details['op_p50_ms']:.6g} ms (not gated)")
    else:
        # Each cycle runs untraced and then traced, so that drift in machine
        # speed cancels out of the overhead ratio.
        recorder = spanlib.SpanRecorder(pkg)
        untraced, traced, cycles = [], [], 1
        deadline = time.perf_counter() + seconds
        while cycles == 1 or time.perf_counter() < deadline:
            untraced += runner.run_cycles(cycles, count=1)[0]
            with recorder:
                traced += runner.run_cycles(cycles, count=1)[0]
            cycles += 1
        details = {"traced_ops": len(traced)}
        metrics = spanlib.layer_metrics(recorder.spans, len(traced))
        metrics["trace_overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        units = dict(spanlib.PER_LAYER)
        recorder.write(work_root / f"spans-{name}-seed{seed}.jsonl")
        log(f"perfbench {name} seed={seed} traced: {len(traced)} traced ops in {cycles - 1} "
            f"cycles, {len(recorder.spans)} spans")

    failed = len(runner.failures)
    for line in runner.failures[:5]:
        log(f"  FAILED {line}")
    changed = _compare_hashes(work_root / f"hashes-{name}-seed{seed}.json", runner.hashes)
    log(f"  output hashes: {len(runner.hashes)} distinct argv, {runner.hash_changes} changed "
        f"within the run, {changed} changed since an earlier run (diagnostic only)")
    log(f"  failed_frac = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} ops)")
    for metric, value in metrics.items():
        log(f"  {metric} = {value:.6g} {units[metric]}")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }, dict(details, failures=runner.failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pkg, import_s = import_driftknn(ROOT)
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    env = environment(ROOT)
    print(f"perfbench env {json.dumps(env, sort_keys=True)}")
    result, details = run_workload(pkg, import_s, args.workload, args.seed, args.seconds,
                                   bool(args.trace), work_root)
    record = dict(result, **details, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    (work_root / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
