"""Tests of the benchmark itself: every workload runs at a tiny size and
passes its checks, and every check rejects a deliberately wrong output.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

run._library_path()
import adelic  # noqa: E402

E2E = {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == (1 if name == "paths" else 0)


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "analytic", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cauchy.solve_nonhomogeneous.calls"] == 3
    assert metrics["cauchy.node_solves_per_duhamel"] > 1
    assert metrics["trace.overhead_ratio"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = _bench("--workload", "mc_semigroup", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_splits_only_calls_across_modules():
    tr = tracing.Tracer()
    tr.install()
    try:
        adelic.normalization(adelic.KernelParams(t=1.0, alpha=2.0))
    finally:
        tr.uninstall()
    assert tr.calls["heatkernel.normalization"] == 1
    assert tr.calls["heatkernel.sphere_masses"] == 0  # called inside heatkernel
    assert tr.calls["primepow.log_phi"] > 0
    assert adelic.normalization is adelic.heatkernel.normalization
    assert adelic.adele.bracket_log is adelic.primepow.bracket_log


# --------------------------------------------------------------------------
# each check rejects a wrong output


def _run_round(wl):
    wl.setup()
    outs = []
    for spec in wl.round(0):
        try:
            outs.append((spec, wl.op(spec)))
        except RecursionError:
            assert wl.expected_failure(spec, RecursionError())
            continue
        wl.check(spec, outs[-1][1])
    assert not wl.failures
    return outs


def _shift(observed):
    return {(adelic.next_pp(r).value if r is not None else None): c
            for r, c in observed.items()}


def test_semigroup_checks_reject_wrong_outputs():
    wl = workloads.Semigroup(5, tiny=True)
    outs = _run_round(wl)
    wl.finish()
    assert not wl.failures
    spec, (r1, x1, r2, x2, radius) = outs[0]
    wl.check(spec, (adelic.next_pp(r1).value, x1, r2, x2, radius))
    assert any("has norm" in f for f in wl.failures)
    wl.failures.clear()
    wl.observed = {split: _shift(seen) for split, seen in wl.observed.items()}
    wl.finish()
    assert any("chi-square" in f for f in wl.failures)


def test_paths_checks_reject_wrong_outputs():
    wl = workloads.Paths(5, tiny=True)
    outs = _run_round(wl)
    spec, path = outs[0]
    wl.finish()
    assert not wl.failures
    bad_times = adelic.PathSample(times=(0.0,) + tuple(t + 1e-12 for t in path.times[1:]),
                                  points=path.points, radii=path.radii, seed=path.seed)
    wl.check(spec, bad_times)
    assert any("not i*dt" in f for f in wl.failures)
    wl.failures.clear()
    wl.observed = _shift(wl.observed)
    wl.replay = (wl.replay[0], wl.replay[1].replace("\n1,", "\n1,0"))
    wl.finish()
    assert any("chi-square" in f for f in wl.failures)
    assert any("different CSV" in f for f in wl.failures)


def test_analytic_checks_reject_wrong_outputs():
    wl = workloads.Analytic(5, tiny=True)
    _run_round(wl)
    spec = wl._spec(1.0, 2.0)
    good = wl.op(spec)
    wl.check(spec, good)
    assert not wl.failures
    duhamel = good["duhamel"]
    tampered = {
        "normalization": good["normalization"] + 2e-6,
        "z": {**good["z"], Fraction(3): good["z"][Fraction(3)] + 1e-7},
        "p_far": good["p_far"] + 1e-7,
        "p_near": good["p_near"] - 1e-7,
        "hom": [(v + 1e-6, b) for v, b in good["hom"]],
        "eigen": good["eigen"] * Fraction(1 + 1e-12),
        "duhamel": adelic.EvaluableRadial(step=duhamel.step + wl.w * Fraction(1, 1000),
                                          tol=duhamel.tol,
                                          error_bound=duhamel.error_bound),
    }
    for key, value in tampered.items():
        wl.failures.clear()
        wl.check(spec, dict(good, **{key: value}))
        assert wl.failures, key


def test_cli_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.CliCold(5, tiny=True, src=run.SRC, work=tmp_path)
    wl.setup()
    spec_of = {s.name: s for s in wl.round(0)}
    n = int(spec_of[workloads.PPOW_COLD].args[-1])
    right = {
        "phi-10": b"2520\n",
        workloads.PPOW_COLD: f"{workloads.oracle.next_prime_power(n)}\n".encode(),
        "kernel-normalize": b"0.99999999999999978 2.220e-16\n",
    }
    wrong = {
        "phi-10": b"2521\n",
        workloads.PPOW_COLD: f"{n + 1}\n".encode(),
        "kernel-normalize": b"1.000002 2.0e-06\n",
    }
    for name in right:
        wl.check(spec_of[name], workloads.CliResult(0, right[name], b"", 1000))
        assert not wl.failures, name
        wl.check(spec_of[name], workloads.CliResult(0, wrong[name], b"", 1000))
        assert wl.failures, name
        wl.failures.clear()
    wl.check(spec_of["simulate"], workloads.CliResult(0, b"", b"", 1000, 1001))
    assert not wl.failures
    wl.check(spec_of["simulate"], workloads.CliResult(0, b"", b"", 1000, 1000))
    assert wl.failures


def test_oracles_agree_with_definitions():
    assert workloads.oracle.next_prime_power(1_000_000) == 1_000_003
    assert workloads.oracle.next_prime_power(8) == 9
    assert workloads.oracle.phi(Fraction(10)) == 2520
    assert workloads.oracle.phi(Fraction(1, 4)) == Fraction(1, 6)
    series = workloads.oracle.KernelSeries()
    assert math.isclose(series.z(Fraction(2), 1.0, 2.0),
                        adelic.z_finite(Fraction(2), adelic.KernelParams(t=1.0, alpha=2.0)),
                        rel_tol=0, abs_tol=1e-12)
