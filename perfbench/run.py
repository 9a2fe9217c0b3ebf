"""Benchmark for incompat: verdict latency, memory and per-layer time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, untraced then traced

One workload run is one closed loop with a single caller: it builds a fixed
batch of decisions from the seed, then runs the batch again and again, each
decision starting only after the previous one returned, until the next batch
would end after S seconds (at least the workload's minimum number of batches,
or one pair of batches when traced).  Every verdict is re-checked
independently after its batch.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and traced
batches alternately and reports per-layer metrics from the traced ones, plus
the tracing overhead.  Times are the fastest of the repeats: a shared machine
only ever adds time, in slow spells of seconds to minutes, so the minimum
follows the code more closely than the median does.  Every metric is printed on a
line of its own with its unit; after them come a JSON report with every
detail (seed, samples, environment) and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller sets a count.  On a 2-CPU machine shared
# with other work, OpenBLAS's default of one thread per CPU made a decision on
# all 24 snub-cube settings take 8.8-9.2 s instead of 3.2 s while one other
# process was busy; with one thread it took 2.7-3.0 s either way.  Must be set
# before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, write_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # before the first batch, after the last, and one after each batch
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "wall_s": "s",
    "decision_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of ``import incompat``."""
    code = (
        "import sys, time; sys.path.insert(0, {src!r}); import incompat; "
        "sys.stdout.write(repr(time.monotonic()))"
    ).format(src=str(SRC))
    samples = []
    for _ in range(n):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            _fail(f"importing incompat failed:\n{done.stderr}")
        samples.append(float(done.stdout) - start)
    return samples


def _blas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_batch(decisions) -> tuple[float, list[float], list]:
    """Run every decision once, back to back; exceptions count as results."""
    times, results = [], []
    batch_start = time.perf_counter()
    for d in decisions:
        start = time.perf_counter()
        try:
            result = d.run()
        except Exception as exc:  # a raising decision is a failed decision
            result = exc
            result.trace_text = traceback.format_exc()
        times.append(time.perf_counter() - start)
        results.append(result)
    return time.perf_counter() - batch_start, times, results


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.undecided = 0
        self.problems: list[str] = []

    def add(self, decisions, results) -> None:
        for d, result in zip(decisions, results):
            self.attempted += 1
            verdict, problem = None, None
            if isinstance(result, Exception):
                if not self.failed:
                    sys.stderr.write(result.trace_text)
                problem = f"raised {result!r}"
            else:
                try:
                    verdict, problem = d.check(result)
                except Exception as exc:  # malformed output fails its decision
                    problem = f"check raised {exc!r}"
            self.undecided += verdict == "undecided"
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{d.label}: {problem}")


def measured_loop(seconds: float, step, min_steps: int = 1) -> None:
    """Call step() until another step would end after the time budget."""
    start = time.perf_counter()
    for done in itertools.count(1):
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if done >= min_steps and (now - start) + (now - t0) > seconds:
            return


def untraced_run(
    decisions, seconds: float, min_batches: int, tally: Tally, setup: list[float]
) -> dict:
    walls: list[float] = []
    per_decision: list[list[float]] = [[] for _ in decisions]

    def step() -> None:
        wall, times, results = run_batch(decisions)
        walls.append(wall)
        for samples, t in zip(per_decision, times):
            samples.append(t)
        tally.add(decisions, results)
        setup.extend(measure_setup(1))

    measured_loop(seconds, step, min_batches)
    latencies = [t for samples in per_decision for t in samples]
    # Each decision's fastest repeat, so a slow spell of the machine during
    # one batch does not decide the latency of the decisions it ran.
    fastest = [min(s) for s in per_decision]
    report = {
        # One caller runs the decisions back to back, so a batch takes the sum
        # of their latencies.
        "wall_s": sum(fastest),
        "decision_p50_s": statistics.median(fastest),
        "batches": len(walls),
        "batch_walls_s": walls,
        "decision_samples": len(latencies),
    }
    # Only where at least ten samples lie beyond the 90th percentile.
    if len(latencies) >= P90_MIN_SAMPLES:
        report["decision_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    return report


def traced_run(ic, decisions, seconds: float, tally: Tally, spans_path: Path) -> dict:
    tracer = Tracer()
    targets = layers.targets(ic)
    plain: list[float] = []
    per_batch: list[dict] = []

    def step() -> None:
        wall, _, results = run_batch(decisions)
        plain.append(wall)
        tally.add(decisions, results)
        tracer.clear()
        with tracer.installed(targets):
            start = time.perf_counter()
            _, _, results = run_batch(decisions)
            end = time.perf_counter()
        per_batch.append(layers.batch_metrics(tracer.spans, start, end))
        if len(per_batch) == 1:
            write_spans(tracer.spans, str(spans_path))
        tally.add(decisions, results)

    measured_loop(seconds, step)
    # Times are averaged, so layer times plus unattributed time still add up to
    # the traced wall time.  Counts and ratios are the same in every batch; the
    # median gives them back exactly, where a mean can differ in the last digit
    # with the number of batches.
    metrics = {
        m: (statistics.fmean if unit == "s" else statistics.median)([b[m] for b in per_batch])
        for m, unit in layers.UNITS.items()
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(plain)
    residual = max(abs(layers.attributed_sum(b) - b["trace.wall_s"]) for b in per_batch)
    return {
        "metrics": metrics,
        "batches": len(per_batch),
        # Zero up to rounding: spans nest, so the sum holds by construction.
        "sum_residual_s": residual,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def run_workload(args) -> int:
    if not (SRC / "incompat" / "__init__.py").is_file():
        _fail(f"no incompat sources under {SRC}; run from the root of a checkout")
    # Set-up probes are spread over the run so that one slow spell of a shared
    # machine does not decide their median.
    setup = measure_setup(SETUP_PROBES) if not args.trace else []

    sys.path.insert(0, str(SRC))
    import numpy as np

    import incompat
    import incompat.cli

    if Path(incompat.__file__).resolve().parent != SRC / "incompat":
        _fail(f"imported incompat from {incompat.__file__}, not from {SRC}")

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        decisions = workload.build(incompat, np.random.default_rng(args.seed), str(workdir))
        tally = Tally()
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            detail = traced_run(incompat, decisions, args.seconds, tally, spans_path)
            metrics = {
                m: {"value": v, "unit": layers.UNITS[m]} for m, v in detail["metrics"].items()
            }
        else:
            detail = untraced_run(decisions, args.seconds, workload.min_batches, tally, setup)
            setup.extend(measure_setup(SETUP_PROBES))
            detail["setup_samples"] = len(setup)
            values = {
                "wall_s": detail["wall_s"],
                "decision_p50_s": detail["decision_p50_s"],
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "decisions_per_batch": len(decisions),
        "failed_frac": tally.failed / tally.attempted,
        "undecided_frac": tally.undecided / tally.attempted,
        "problems": tally.problems,
        "environment": environment(np),
        **detail,
    }
    notes = {"failed_frac": f"{tally.attempted} decisions attempted"}
    extra = {"failed_frac": (report["failed_frac"], "ratio")}
    extra["undecided_frac"] = (report["undecided_frac"], "ratio")
    if args.trace:
        extra["trace.sum_residual_s"] = (detail["sum_residual_s"], "s")
    else:
        notes["wall_s"] = f"{len(decisions)} decisions x {detail['batches']} batches"
        notes["decision_p50_s"] = f"{detail['decision_samples']} decision samples"
        notes["setup_s"] = f"median of {len(setup)} set-ups"
        if "decision_p90_s" in detail:
            extra["decision_p90_s"] = (detail["decision_p90_s"], "s")
            notes["decision_p90_s"] = notes["decision_p50_s"]
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()} | extra
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:15s} {name:32s} {value:.6g} {unit}{note}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__)),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            sys.stdout.flush()
            done = subprocess.run(cmd, timeout=900)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exit {done.returncode}")
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
