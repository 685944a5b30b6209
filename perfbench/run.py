#!/usr/bin/env python3
"""Benchmark of the `adelic` library in the checkout around this file.

    python3 perfbench/run.py --workload mc_semigroup --seed 1 --seconds 20 --trace 0

Runs one seeded workload (see README.md) in a closed loop with one caller,
checks every output, and prints one JSON object as its last line of
output: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1. Times are in reference seconds (refclock.py).
The same object, with more detail, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # so that at least 10 ops lie beyond op_ms_p90
SETUP_SAMPLES = 5
HARD_STOP_S = 120.0  # a run ends after this even if MIN_OPS is not reached
CLI_PROBES = 3


def _library_path():
    if not (SRC / "adelic" / "__init__.py").is_file():
        sys.exit(f"perfbench: no adelic package under {SRC}")
    sys.path.insert(0, str(SRC))


sys.path.insert(0, str(HERE))
import refclock  # noqa: E402
import workloads  # noqa: E402


class Section:
    """Timed ops of one measured section, in reference seconds."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.total = 0.0          # all attempted ops
        self.times: list[float] = []  # completed ops
        self.by_name: dict[str, list[float]] = {}
        self.factors: list[float] = []
        self.wall = 0.0


@contextlib.contextmanager
def paused(tracer):
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def measure(wl, seconds: float, min_ops: int, rounds: int | None = None,
            first_round: int = 0, tracer=None) -> Section:
    """Run whole rounds of ops, from round `first_round` on: `rounds` of
    them, or until `seconds` have passed and `min_ops` ops completed."""
    sec = Section()
    clock = wl.clock()
    clock.tick()
    start = time.perf_counter()
    while True:
        with paused(tracer):
            specs = wl.round(first_round + sec.rounds)
        step = wl.chunk_ops
        for i in range(0, len(specs), step):
            done = []
            for spec in specs[i:i + step]:
                t0 = time.perf_counter()
                try:
                    out, exc = wl.op(spec), None
                except Exception as e:  # recorded and reported below
                    out, exc = None, e
                done.append((spec, out, exc, time.perf_counter() - t0))
            factor = clock.tick()
            sec.factors.append(factor)
            with paused(tracer):
                for spec, out, exc, raw in done:
                    took = raw * factor
                    sec.attempted += 1
                    sec.total += took
                    if exc is None:
                        sec.times.append(took)
                        sec.by_name.setdefault(spec.name, []).append(took)
                        wl.check(spec, out)
                        continue
                    sec.failed += 1
                    if not wl.expected_failure(spec, exc):
                        wl.fail(f"{spec.name} {spec.args!r:.80}: "
                                f"{type(exc).__name__}: {exc!s:.200}")
        sec.rounds += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if sec.rounds >= rounds:
                break
        elif (elapsed >= seconds and len(sec.times) >= min_ops) or elapsed > HARD_STOP_S:
            break
    sec.wall = time.perf_counter() - start
    return sec


def make_workload(name: str, seed: int, tiny: bool, work: Path):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliCold:
        return cls(seed, tiny, src=SRC, work=work)
    return cls(seed, tiny)


def timed_setup(wl) -> float:
    """Import plus warm-up in this process, in reference seconds."""
    clock = refclock.RefClock()
    clock.tick()
    t0 = time.perf_counter()
    wl.setup()
    took = time.perf_counter() - t0
    return took * clock.tick()


def child_seconds(argv, work: Path, clock) -> float:
    """Wall time of one child interpreter, in reference seconds."""
    clock.tick()
    took, res = workloads.run_child(argv, SRC, work)
    factor = clock.tick()
    if res.code != 0:
        raise RuntimeError(f"{argv}: exit {res.code}: {res.stderr[-300:]!r}")
    return took * factor


def setup_samples(wl, args, first: float, work: Path) -> list[float]:
    """Set-up times: for cli_cold, `--version` children; otherwise this
    process's own set-up plus fresh interpreters that repeat it."""
    if isinstance(wl, workloads.CliCold):
        return [child_seconds(["-m", "adelic.cli", "--version"], work, wl.clock())
                for _ in range(SETUP_SAMPLES)]
    out = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: "
                               f"{proc.stderr[-300:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(sec: Section, setup: list[float], peak_kb: int) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(sec.times) / sec.total, "1/s"),
        "op_ms_p50": (1e3 * quantile(sec.times, 0.5), "ms"),
        "op_ms_p90": (1e3 * quantile(sec.times, 0.9), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def cli_probes(work: Path) -> dict:
    """Wall ms of a bare interpreter and of one that imports adelic.cli,
    against slices in this process (a bare child is what they measure)."""
    out = {}
    for key, argv in (("cli.interpreter_ms", ["-c", "pass"]),
                      ("cli.import_ms", ["-c", "import adelic.cli"])):
        runs = [child_seconds(argv, work, refclock.RefClock())
                for _ in range(CLI_PROBES)]
        out[key] = (1e3 * statistics.median(runs), "ms")
    return out


def per_layer(tracer, wl, plain: Section, traced: Section, work: Path) -> dict:
    factor = statistics.median(traced.factors)
    done = max(len(traced.times), 1)
    out = {}
    for name in tracer.calls:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_ns[name] * 1e-9 * factor, "s")

    def ratio(a, b):
        return a / b if b else 0.0

    units = wl.counts.get("units", 0)
    out.update({
        "adele.cancel_retry_ratio": (ratio(wl.counts.get("cancel", 0), units), "ratio"),
        "adele.tail_materializations_per_op": (
            tracer.calls["adele.RandomTail.component"] / done, "ratio"),
        "markov.radius_law_builds_per_path": (ratio(
            tracer.internal["markov.radius_distribution"],
            tracer.calls["markov.sample_path"]), "ratio"),
        "markov.tail_resample_ratio": (ratio(wl.counts.get("tail", 0), units), "ratio"),
        "cauchy.node_solves_per_duhamel": (ratio(
            tracer.internal["cauchy.solve_homogeneous"],
            tracer.calls["cauchy.solve_nonhomogeneous"]), "ratio"),
        "primepow.is_prime_per_op": (
            tracer.all_calls("primepow.is_prime") / done, "ratio"),
    })
    out.update(cli_probes(work))
    for slug, _ in workloads.CLI_COMMANDS + ((workloads.PPOW_COLD, None),):
        times = traced.by_name.get(slug)
        out[f"cli.{slug}.wall_ms"] = (1e3 * statistics.median(times) if times else 0.0, "ms")
    out["trace.overhead_ratio"] = (traced.total / plain.total, "ratio")
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one small round per section (for the benchmark's tests)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args) -> tuple[dict, list[str]]:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload, args.seed, args.tiny, work)
    min_ops = 1 if args.tiny else MIN_OPS
    one_round = 1 if args.tiny else None
    try:
        first = timed_setup(wl)
        if args.trace:
            import tracer as tracing

            plain = measure(wl, args.seconds / 2, 1, rounds=one_round)
            tracer = tracing.Tracer()
            tracer.install()
            wl.counts.clear()
            try:
                shown = measure(wl, 0, 0, rounds=plain.rounds,
                                first_round=plain.rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, wl, plain, shown, work)
        else:
            shown = measure(wl, args.seconds, min_ops, rounds=one_round)
            if not shown.times:
                sys.exit("perfbench: no op completed")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if isinstance(wl, workloads.CliCold):
                peak_kb = wl.peak_kb
            samples = [first] if args.tiny else setup_samples(wl, args, first, work)
            metrics = end_to_end(shown, samples, peak_kb)
        wl.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not wl.failures,
        "attempted": shown.attempted,
        "failed": shown.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=shown.rounds,
                  wall_s=shown.wall, failures=wl.failures, counts=wl.counts,
                  ref_factor_median=statistics.median(shown.factors))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    return result, wl.failures


def main(argv=None) -> int:
    args = parse_args(argv)
    _library_path()
    if args.setup_only:
        print(timed_setup(make_workload(args.workload, args.seed, False, None)))
        return 0
    result, failures = run(args)
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
