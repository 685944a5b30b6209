"""End-to-end CLI tests: output conventions, exit codes, determinism,
config-file merging, and the metadata sidecar."""
import argparse
import collections
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from adelic import cli
from adelic.checks import _PACKAGE_ROOT, _battery, run_cli
from adelic.radial import RadialStep


@pytest.fixture
def step_file(tmp_path):
    path = tmp_path / "step.json"
    path.write_text(RadialStep.sphere_indicator(F(2)).ft().to_json())
    return path


class TestExactCommands:
    def test_phi(self, tmp_path):
        proc = run_cli(["phi", "10"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == b"2520\n"

    def test_phi_fraction(self, tmp_path):
        proc = run_cli(["phi", "1/4"], tmp_path)
        assert proc.stdout == b"1/6\n"

    def test_ppow_range(self, tmp_path):
        proc = run_cli(["ppow", "range", "1", "12"], tmp_path)
        assert proc.stdout == b"2\n3\n4\n5\n7\n8\n9\n11\n"

    def test_norm_distance(self, tmp_path):
        proc = run_cli(["norm", "2:-1:1", "3:0:2"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == b"2\n"

    def test_volume(self, tmp_path):
        assert run_cli(["volume", "ball", "4"], tmp_path).stdout == b"12\n"
        assert run_cli(["volume", "sphere", "4"], tmp_path).stdout == b"6\n"

    def test_ft_inline_json(self, tmp_path):
        f = RadialStep.ball_indicator(F(2))
        proc = run_cli(["ft", "--json", f.to_json()], tmp_path)
        assert proc.returncode == 0
        assert RadialStep.from_json(proc.stdout.decode()) == f.ft()


class TestFloatOutputs:
    def test_kernel_eval_two_fields(self, tmp_path):
        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2"],
            tmp_path,
        )
        assert proc.returncode == 0
        value, bound = proc.stdout.split()
        assert math.isclose(float(value), 0.06756313793675311, rel_tol=1e-12)
        assert 0.0 < float(bound) < 1e-9

    def test_kernel_eval_bound_not_below_half_an_ulp(self, tmp_path):
        # |value| * tol is 6.756e-302 here, far below the float's spacing
        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2",
             "--tol", "1e-300", "--meta", "m.json"],
            tmp_path,
        )
        assert proc.returncode == 0
        value, printed = proc.stdout.split()
        bound = json.loads((tmp_path / "m.json").read_text())[
            "error_bounds"]["value"]
        assert bound == math.ulp(float(value)) / 2
        assert printed.decode() == f"{bound:.3e}" == "6.939e-18"

    def test_normalize_within_tolerance(self, tmp_path):
        proc = run_cli(
            ["kernel", "normalize", "--t", "1", "--alpha", "2",
             "--tol", "1e-6"],
            tmp_path,
        )
        assert proc.returncode == 0
        value, achieved = proc.stdout.split()
        assert abs(float(value) - 1.0) <= 1e-6
        assert float(achieved) <= 1e-6

    @pytest.mark.parametrize("beta", ["1.9", "1.5", "1.3"])
    def test_real_factor_bound_covers_the_quadrature_error(self, tmp_path,
                                                           beta):
        # for beta outside {1, 2} the real factor is a cosine quadrature
        # whose error tol does not bound; mpmath.quadosc is the reference
        # (below beta = 1 it is no oracle, so none is tested there)
        mpmath = pytest.importorskip("mpmath")
        from adelic.heatkernel import KernelParams, z_finite

        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2",
             "--beta", beta, "--x", "10", "--tol", "1e-12", "--meta",
             "m.json"],
            tmp_path,
        )
        assert proc.returncode == 0
        value, printed = proc.stdout.split()
        bound = json.loads((tmp_path / "m.json").read_text())[
            "error_bounds"]["value"]
        assert printed.decode() == f"{bound:.3e}"
        b, omega = mpmath.mpf(beta), 2 * mpmath.pi * 10
        with mpmath.workdps(15):
            real = 2 * mpmath.quadosc(
                lambda xi: mpmath.exp(-xi ** b) * mpmath.cos(omega * xi),
                [0, mpmath.inf], omega=omega,
            )
        fin = z_finite(2, KernelParams(t=1.0, alpha=2.0), tol=1e-14)
        assert abs(float(value) - float(real) * fin) <= bound

    def test_tail_mass_below_bound(self, tmp_path):
        proc = run_cli(
            ["kernel", "tail", "--epsilon", "2", "--t", "0.01",
             "--alpha", "2"],
            tmp_path,
        )
        mass, bound = map(float, proc.stdout.split())
        assert 0.0 <= mass <= bound


class TestExitCodes:
    def test_missing_subcommand_args(self, tmp_path):
        assert run_cli(["phi"], tmp_path).returncode == 2

    def test_bad_choice(self, tmp_path):
        assert run_cli(["volume", "cube", "2"], tmp_path).returncode == 2

    def test_non_norm_radius(self, tmp_path):
        proc = run_cli(
            ["kernel", "eval", "--radius", "5/3", "--t", "1",
             "--alpha", "2"],
            tmp_path,
        )
        assert proc.returncode == 2

    def test_missing_parameter(self, tmp_path):
        proc = run_cli(["kernel", "eval", "--radius", "2"], tmp_path)
        assert proc.returncode == 2
        assert b"missing required parameter" in proc.stderr

    def test_tolerance_failure_exit_3(self, tmp_path):
        proc = run_cli(
            ["kernel", "normalize", "--t", "1", "--alpha", "2",
             "--tol", "1e-17"],
            tmp_path,
        )
        assert proc.returncode == 3

    def test_cancellation_exit_4(self, tmp_path):
        proc = run_cli(["norm", "2:z:12"], tmp_path)
        assert proc.returncode == 4

    @pytest.mark.parametrize("args", [
        ["norm", "2"],
        ["norm", "2:-1"],
        ["transition", "--t", "1", "--alpha", "2", "--eps", "1/2",
         "--center", "2:-1"],
        ["transition", "--t", "1", "--alpha", "2", "--eps", "1/2",
         "--x", "2:-1"],
    ])
    def test_point_with_too_few_fields(self, tmp_path, args):
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"invalid parameters: component ")
        assert proc.stdout == b""

    @pytest.mark.parametrize("args", [
        ["norm", "3:-10000000:1"],
        ["norm", "3:-100000000:1"],
        ["norm", "2:z:100000000"],
        ["norm", "2:-1:1", "5:100000000:1"],
        ["transition", "--t", "1", "--alpha", "2", "--eps", "1/2",
         "--x", "3:-100000000:1"],
    ])
    def test_hostile_valuation_refused_before_the_power(self, tmp_path,
                                                        args):
        start = time.perf_counter()
        proc = run_cli(args, tmp_path, timeout=20)
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"invalid parameters: component ")
        assert b"more than 2^16 bits" in proc.stderr
        assert proc.stderr.count(b"\n") == 1
        assert proc.stdout == b""

    def test_every_printable_norm_parses(self, tmp_path):
        # 2^14000 has 4215 decimal digits, within the print limit
        proc = run_cli(["norm", "2:-14000:1"], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == b"%d\n" % 2 ** 14000
        proc = run_cli(["norm", "2:-15000:1"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"range error: result too large")

    @pytest.mark.parametrize("depth", ["100000", "1000000"])
    def test_hostile_depth_refused(self, tmp_path, depth):
        start = time.perf_counter()
        proc = run_cli(
            ["simulate", "--t-step", "0.1", "--steps", "3", "--alpha", "2",
             "--depth", depth],
            tmp_path, timeout=20,
        )
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 2
        assert proc.stderr == (
            b"invalid parameters: depth %s exceeds the cap of 1024 digits "
            b"per stored component\n" % depth.encode()
        )
        assert proc.stdout == b""

    def test_unknown_verify_suite(self, tmp_path):
        assert run_cli(["verify", "nope"], tmp_path).returncode == 2

    def test_unindexable_prime_power_query(self, tmp_path):
        proc = run_cli(["ppow", "next", "1e30"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"invalid parameters: ")

    @pytest.mark.parametrize("args", [
        ["kernel", "eval", "--radius", "0", "--t", "1", "--alpha", "1.03"],
        ["volume", "ball", "2305843009213693951"],  # 2^61 - 1
    ])
    def test_sieve_cap_is_a_range_error(self, tmp_path, args):
        start = time.perf_counter()
        proc = run_cli(args, tmp_path)
        assert time.perf_counter() - start < 10.0
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"invalid parameters: ")
        assert b"capped at 2^26" in proc.stderr

    def test_huge_time_refused_before_the_walk(self, tmp_path):
        start = time.perf_counter()
        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--t", "1e300",
             "--alpha", "2"],
            tmp_path, timeout=20,
        )
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"invalid parameters: t = 1e+300 ")
        assert proc.stderr.count(b"\n") == 1
        assert proc.stdout == b""

    def test_integer_time_past_the_decay_cap(self, step_file, tmp_path):
        start = time.perf_counter()
        proc = run_cli(
            ["solve", "homogeneous", "--t", "1e6", "--alpha", "2",
             "--input", str(step_file)],
            tmp_path, timeout=20,
        )
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"invalid parameters: the exact decay")
        assert b"cap of 2^20 bits" in proc.stderr
        assert proc.stdout == b""

    @pytest.mark.parametrize("eps,want", [
        # phi(1021) Z(1024) = 1/2 (e^-(1/1031)^2 - e^-(1/1024)^2) and more
        ("1021", 6.4547782012812285e-09),
        ("1/9999991", 0.0),
    ])
    def test_transition_outside_a_ball_of_huge_volume(self, tmp_path, eps,
                                                      want):
        # phi(1021) alone overflows a double, and phi(1/9999991) is too
        # large to build exactly
        start = time.perf_counter()
        proc = run_cli(
            ["transition", "--t", "1", "--alpha", "2", "--eps", eps,
             "--x", "2:-10:1", "--center", "0"],
            tmp_path, timeout=20,
        )
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        value = float(proc.stdout.split()[0])
        assert math.isclose(value, want, rel_tol=1e-12)

    @pytest.mark.parametrize("args", [
        ["phi", "9999991"],
        ["volume", "ball", "10000019"],
        ["volume", "ball", "1/9999991"],
    ])
    def test_exact_phi_past_the_bit_cap(self, tmp_path, args):
        start = time.perf_counter()
        proc = run_cli(args, tmp_path, timeout=20)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"invalid parameters: phi of ")
        assert b"past the cap of 2^18 bits" in proc.stderr
        assert proc.stderr.count(b"\n") == 1
        assert proc.stdout == b""

    @pytest.mark.parametrize("radius,message", [
        ("200003", "phi of 200003 would hold at least 276724 bits, past "
                   "the cap of 2^18 bits"),
        # no prime power: refused as such, before any phi is bounded
        ("9999990", "9999990 is not a prime power"),
    ])
    def test_volume_refused_in_process(self, tmp_path, monkeypatch, capsys,
                                       radius, message):
        from adelic import primepow

        table = primepow._PowerTable()
        monkeypatch.setattr(primepow, "_TABLE", table)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["volume", "ball", radius]) == 2
        assert capsys.readouterr() == ("", f"invalid parameters: {message}\n")
        assert table._limit == 512  # refused before any sieve

    @pytest.mark.parametrize("args", [
        ["solve", "homogeneous", "--t", "1000", "--alpha", "2"],
        ["phi", "100000"],
    ])
    def test_result_too_large_to_print(self, step_file, tmp_path, args):
        # exact, but a rational with more digits than str(int) converts
        if args[0] == "solve":
            args = [*args, "--input", str(step_file)]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            b"range error: result too large to print: an exact rational"
        )
        assert b"decimal digits" in proc.stderr
        assert proc.stderr.count(b"\n") == 1
        assert proc.stdout == b""

    def test_duhamel_quadrature_checked_at_time_zero(self, step_file,
                                                     tmp_path):
        forcing = tmp_path / "forcing.json"
        forcing.write_text(json.dumps({
            "times": [0.0, 1.0],
            "steps": [RadialStep.zero().to_dict()] * 2,
        }))
        proc = run_cli(
            ["solve", "duhamel", "--t", "0", "--alpha", "2",
             "--u0", str(step_file), "--forcing", str(forcing),
             "--quadrature", "Gauss"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"invalid parameters: ")

    @pytest.mark.parametrize("command,payload", [
        ("ft", "[1]"),
        ("ft", '"x"'),
        ("ft", "null"),
        ("ft", '{"ball_coefficients": [1]}'),
        ("ft", '{"ball_coefficients": {"2^1": null}}'),
        ("ft", '{"ball_coefficients": {"2^1": Infinity}}'),
        ("duhamel", "[]"),
        ("duhamel", '{"times": 1, "steps": []}'),
        ("duhamel", '{"times": [0, 1], "steps": [1, 2]}'),
        ("duhamel", '{"times": [null], "steps": []}'),
    ])
    def test_malformed_json_is_a_usage_error(self, step_file, tmp_path,
                                             command, payload):
        if command == "ft":
            args = ["ft", "--json", payload]
        else:
            forcing = tmp_path / "forcing.json"
            forcing.write_text(payload)
            args = ["solve", "duhamel", "--t", "1", "--alpha", "2",
                    "--u0", str(step_file), "--forcing", str(forcing)]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"usage error: bad ")
        assert proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("key", [
        "2^-200000000", "2^200000000", "3^-99999999999", "0^-1",
    ])
    def test_hostile_radius_key_refused_before_the_power(self, tmp_path,
                                                          key):
        # a cold interpreter start is most of the second; building the
        # power took 1.6 s at 2^(+-200000000)
        payload = json.dumps({"ball_coefficients": {key: 1}})
        start = time.perf_counter()
        proc = run_cli(["ft", "--json", payload], tmp_path, timeout=20)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"usage error: bad radial step JSON: ")
        assert proc.stderr.count(b"\n") == 1

    def test_ppow_range_needs_an_upper_bound(self, tmp_path):
        proc = run_cli(["ppow", "range", "1"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == b"usage error: ppow range: missing upper bound\n"

    def test_unsupported_interpolation(self, step_file, tmp_path):
        forcing = tmp_path / "forcing.json"
        forcing.write_text(json.dumps({
            "times": [0.0, 1.0],
            "steps": [RadialStep.zero().to_dict()] * 2,
            "interpolation": "cubic",
        }))
        proc = run_cli(
            ["solve", "duhamel", "--t", "1", "--alpha", "2",
             "--u0", str(step_file), "--forcing", str(forcing)],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"usage error: ")

    def test_recursion_is_a_range_error(self, tmp_path):
        # the nested sum tails of a 1500-step path exceed the recursion limit
        proc = run_cli(
            ["simulate", "--t-step", "0.1", "--steps", "1500", "--alpha",
             "2", "--seed", "7", "--output", "long.csv"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"range error: RecursionError")
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.count(b"\n") == 1
        assert not (tmp_path / "long.csv").exists()


# sha256 of stdout plus output files of the determinism battery's commands
# whose output is exact or seeded (adelic.checks._battery), frozen before
# the radius plans were read from the table's ranks; `simulate` re-frozen
# at the SHAKE-256 tail rule, which changes its points' tail-derived
# digits only. The float-printing commands are left out: their last digits
# depend on libm and, for `solve adelic`, on the interpreter's float sum()
# (compensated from Python 3.12 on).
FROZEN_BATTERY = {
    "phi 10":
        "557ce7034bcd6cc9aeb72c26f5061242dfc94b89daa44f13a9efa9c683948bc0",
    "phi 1/4":
        "fe461f5bac3c62638a6ca177a19075d65731db94d0e1b93d24af60ab2d9fbb3a",
    "ppow next 8":
        "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a",
    "ppow prev 1/4":
        "035b4d8c6f956e453f0e654c827e93a5d2a738f9591cd254e9dd4bd00f87c669",
    "ppow range 1 12":
        "516d86886cf971674a2435a79f243f2bf4e5276caa9a53bc3994a05e709f9ada",
    "norm 2:-1:1":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "volume ball 4":
        "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164",
    "volume sphere 1/2":
        "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d",
    "ft --input step.json":
        "f16e90c71429f4496439bcc3e57bc63a05b067b3934921863584d28a615598f9",
    "simulate --t-step 0.1 --steps 1000 --alpha 2 --seed 7 --output path.csv":
        "9628e0acf0a34134dc55c43b398398bc75c382d667ce86a23da7792eb61e873a",
}


class TestDeterminism:
    @pytest.mark.seeded_streams
    def test_exact_battery_outputs_frozen(self, tmp_path):
        got = {}
        for args, files in _battery(str(tmp_path)):
            name = " ".join(args)
            if name not in FROZEN_BATTERY:
                continue
            proc = run_cli(args, tmp_path)
            assert proc.returncode == 0, name
            digest = hashlib.sha256(proc.stdout)
            for f in files:
                digest.update((tmp_path / f).read_bytes())
            got[name] = digest.hexdigest()
        assert got == FROZEN_BATTERY

    def test_simulate_byte_identical(self, tmp_path):
        args = ["simulate", "--t-step", "0.1", "--steps", "60", "--alpha",
                "2", "--seed", "7", "--output", "path.csv"]
        run_cli(args, tmp_path)
        first = (tmp_path / "path.csv").read_bytes()
        run_cli(args, tmp_path)
        assert (tmp_path / "path.csv").read_bytes() == first
        head = first.decode().splitlines()[0]
        assert head == "step,time,radius,point"

    def test_battery_simulate_radii_unchanged(self, tmp_path):
        # sha256 of its step, time and radius columns, frozen from the
        # MT19937 tail reads that preceded the SHAKE-256 rule, which
        # changes the point column only
        args = ["simulate", "--t-step", "0.1", "--steps", "1000", "--alpha",
                "2", "--seed", "7", "--output", "path.csv"]
        assert run_cli(args, tmp_path).returncode == 0
        rows = (tmp_path / "path.csv").read_text().splitlines()
        columns = "\n".join(",".join(row.split(",")[:3]) for row in rows)
        assert hashlib.sha256(columns.encode()).hexdigest() == (
            "8c77683e1dfe03c1777d7e658a4611517f4bf4a94dac9a274f6e6e779a0399aa"
        )

    def test_distinct_seeds_differ(self, tmp_path):
        args = ["simulate", "--t-step", "0.1", "--steps", "60",
                "--alpha", "2", "--output", "path.csv"]
        run_cli(args + ["--seed", "7"], tmp_path)
        first = (tmp_path / "path.csv").read_bytes()
        run_cli(args + ["--seed", "8"], tmp_path)
        assert (tmp_path / "path.csv").read_bytes() != first

    def test_solve_stdout_stable(self, step_file, tmp_path):
        args = ["solve", "homogeneous", "--t", "1", "--alpha", "2",
                "--input", str(step_file)]
        procs = [run_cli(args, tmp_path) for _ in range(2)]
        assert [proc.returncode for proc in procs] == [0, 0]
        outs = {proc.stdout for proc in procs}
        assert len(outs) == 1


class TestSolveDuhamel:
    def run(self, tmp_path, forcing_step, *extra):
        forcing = tmp_path / "forcing.json"
        forcing.write_text(json.dumps({
            "times": [0.0, 1.0],
            "steps": [(forcing_step * F(c)).to_dict() for c in (1, 3)],
        }))
        u0 = tmp_path / "u0.json"
        u0.write_text(RadialStep.ball_indicator(F(1, 2)).to_json())
        return run_cli(
            ["solve", "duhamel", "--t", "1", "--alpha", "2",
             "--u0", str(u0), "--forcing", str(forcing), *extra],
            tmp_path,
        )

    def test_simpson_step_count_not_a_multiple_of_4(self, tmp_path):
        proc = self.run(tmp_path, RadialStep.zero(), "--steps", "18")
        assert proc.returncode == 0
        assert proc.stdout

    def test_error_bound_independent_of_string_hashing(self, tmp_path,
                                                      monkeypatch):
        # a forcing with nonzero integral gives one inner piece per node
        outs = []
        for seed in ("1", "3"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            proc = self.run(tmp_path, RadialStep.ball_indicator(F(1, 2)),
                            "--steps", "16")
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_requires_forcing(self, step_file, tmp_path):
        # once read as the forcing grid None: "bad forcing grid None"
        proc = run_cli(
            ["solve", "duhamel", "--t", "1", "--alpha", "2",
             "--u0", str(step_file)],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            b"usage error: solve duhamel requires --forcing\n"
        )


class TestSidecar:
    def test_meta_written_next_to_output(self, tmp_path):
        run_cli(
            ["simulate", "--t-step", "0.1", "--steps", "10", "--alpha", "2",
             "--seed", "3", "--output", "p.csv"],
            tmp_path,
        )
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
        assert meta["config"]["seed"] == 3
        assert meta["config"]["command"] == "simulate"
        assert "wall_time_s" in meta
        # wall time stays out of the primary output
        assert b"wall" not in (tmp_path / "p.csv").read_bytes()

    def test_meta_flag_without_output(self, tmp_path):
        run_cli(
            ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2",
             "--meta", "m.json"],
            tmp_path,
        )
        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["config"]["params"]["t"] == 1.0
        assert meta["error_bounds"]["value"] > 0.0


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"t": 1.0, "alpha": 2.0})
        )
        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--config", "cfg.json"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert math.isclose(
            float(proc.stdout.split()[0]), 0.06756313793675311,
            rel_tol=1e-12,
        )

    def test_flag_overrides_config(self, tmp_path):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"t": 99.0, "alpha": 2.0})
        )
        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--config", "cfg.json",
             "--t", "1", "--meta", "m.json"],
            tmp_path,
        )
        assert math.isclose(
            float(proc.stdout.split()[0]), 0.06756313793675311,
            rel_tol=1e-12,
        )
        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["config"]["params"]["t"] == 1.0


    def test_null_counts_as_absent(self, tmp_path):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"t": 1, "alpha": 2, "beta": None, "tol": None})
        )
        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--config", "cfg.json"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        flags = run_cli(
            ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2"],
            tmp_path,
        )
        assert proc.stdout == flags.stdout

    def test_null_required_parameter_is_missing(self, tmp_path):
        (tmp_path / "cfg.json").write_text(
            json.dumps({"t": None, "alpha": 2})
        )
        proc = run_cli(
            ["kernel", "eval", "--radius", "2", "--config", "cfg.json"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == b"usage error: missing required parameter --t\n"

    @pytest.mark.parametrize("text,flag", [
        # once run as 2 steps; int(2.7) dropped the fraction
        ("2.7", "2.7"),
        # once exit 3: json reads 1e400 as inf, which int() cannot convert
        ("1e400", "inf"),
    ])
    def test_integer_config_value_converted_as_the_flag(self, tmp_path,
                                                         text, flag):
        (tmp_path / "cfg.json").write_text(
            '{"steps": %s, "alpha": 2, "t-step": 0.1}' % text
        )
        proc = run_cli(["simulate", "--config", "cfg.json", "--seed", "1"],
                       tmp_path)
        assert proc.returncode == 2
        want = f"usage error: not an integer: '{flag}'\n"
        assert proc.stderr == want.encode()
        as_flag = run_cli(["simulate", "--steps", flag, "--alpha", "2",
                           "--t-step", "0.1", "--seed", "1"], tmp_path)
        assert (as_flag.returncode, as_flag.stderr) == (2, proc.stderr)

    def test_integer_past_the_str_limit_is_unreadable(self, tmp_path):
        # once "range error: result too large to print": json's ValueError
        # escaped the config reader
        (tmp_path / "cfg.json").write_text(
            '{"steps": %s, "alpha": 2, "t-step": 0.1}' % ("7" * 5000)
        )
        proc = run_cli(["simulate", "--config", "cfg.json"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            b"usage error: cannot read config cfg.json: "
        )
        assert proc.stderr.count(b"\n") == 1


# one cheap argv of each command
PIPELINE_ARGVS = [
    ["phi", "10"],
    ["ppow", "range", "1", "12"],
    ["norm", "2:-1:1", "3:0:2"],
    ["volume", "ball", "4"],
    ["ft", "--input", "step.json"],
    ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2"],
    ["simulate", "--t-step", "0.1", "--steps", "10", "--alpha", "2",
     "--seed", "3"],
    ["transition", "--t", "0.5", "--alpha", "2", "--eps", "2"],
    ["solve", "homogeneous", "--t", "1", "--alpha", "2",
     "--input", "step.json"],
    ["verify", "volumes"],
]


class TestPipeline:
    @pytest.mark.parametrize("argv", PIPELINE_ARGVS, ids=lambda a: a[0])
    def test_output_holds_what_stdout_would(self, tmp_path, monkeypatch,
                                            capsys, argv):
        # once only simulate and solve wrote --output; the others printed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "step.json").write_text(
            RadialStep.sphere_indicator(F(2)).ft().to_json()
        )
        assert cli.main([*argv, "--meta", "plain.json"]) == 0
        printed = capsys.readouterr().out
        assert printed
        assert cli.main([*argv, "--output", "out.txt",
                         "--meta", "routed.json"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "out.txt").read_text() == printed
        plain = json.loads((tmp_path / "plain.json").read_text())["config"]
        routed = json.loads((tmp_path / "routed.json").read_text())["config"]
        assert (plain.pop("output"), routed.pop("output")) == (None, "out.txt")
        assert routed == plain

    def test_every_command_reads_its_config(self, tmp_path):
        # once phi, ppow, norm, volume and verify never opened --config
        proc = run_cli(["phi", "10", "--config", "missing.json"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            b"usage error: cannot read config missing.json: "
        )

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--t-step", "0.1", "--steps", "1", "--alpha", "2"],
         "--output"),
        (["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2"],
         "--meta"),
    ])
    def test_unwritable_path_exits_2(self, tmp_path, capsys, argv, flag):
        # once a traceback and exit 1: files were written outside the
        # error mapping
        path = str(tmp_path / "missing" / "x")
        assert cli.main([*argv, flag, path]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"usage error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert out == ""

    def test_unwritable_sidecar_keeps_an_existing_output(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out.txt"
        out.write_text("earlier\n")
        meta = str(tmp_path / "missing" / "m.json")
        assert cli.main(["phi", "10", "--output", str(out),
                         "--meta", meta]) == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: cannot write {meta}: "
        )
        assert out.read_text() == "earlier\n"


class TestSolveAdelic:
    def test_outputs_and_finite_sidecar(self, step_file, tmp_path):
        rows = ["x,value"]
        for i in range(161):
            x = -4.0 + i * 0.05
            rows.append("%.17g,%.17g" % (x, math.exp(-x * x)))
        (tmp_path / "grid.csv").write_text("\n".join(rows) + "\n")
        proc = run_cli(
            ["solve", "adelic", "--t", "0.5", "--alpha", "2", "--beta", "2",
             "--real", "grid.csv", "--fin", str(step_file),
             "--output", "out.csv", "--tol", "1e-3"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 162
        fin = json.loads((tmp_path / "out.csv.finite.json").read_text())
        assert fin["exact"] is True

    def test_unwritable_finite_output_leaves_no_output(self, step_file,
                                                      tmp_path, capsys):
        # once out.csv was written before the finite factor's path failed
        grid = tmp_path / "grid.csv"
        grid.write_text("x,value\n" + "".join(
            "%.17g,%.17g\n" % (x, math.exp(-x * x))
            for x in (-4.0 + i * 0.05 for i in range(161))
        ))
        out, fin = tmp_path / "out.csv", str(tmp_path / "missing" / "f.json")
        assert cli.main(
            ["solve", "adelic", "--t", "0.5", "--alpha", "2", "--beta", "2",
             "--real", str(grid), "--fin", str(step_file), "--output",
             str(out), "--finite-output", fin, "--tol", "1e-3"]
        ) == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: cannot write {fin}: "
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "grid.csv", "step.json"
        ]

    @pytest.mark.parametrize("sample,code,message", [
        ("nan", 2, "invalid parameters: sample 160 must be finite, got nan"),
        ("1e308", 3,
         "tolerance failure: real grid samples overflow the convolution"),
    ])
    def test_non_finite_real_grid_refused(self, step_file, tmp_path,
                                          monkeypatch, capsys, sample, code,
                                          message):
        # once exit 0 with an all-nan or inf out.csv: a nan estimate
        # passed the tolerance test. nan at the centre sample; 1e308 at
        # every sample, whose convolution overflows
        rows = ["x,value"] + [
            f"{-8.0 + i * 0.05:.17g},"
            f"{sample if sample == '1e308' or i == 160 else '0.5'}"
            for i in range(321)
        ]
        (tmp_path / "g.csv").write_text("\n".join(rows) + "\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(
            ["solve", "adelic", "--t", "0.5", "--alpha", "2", "--beta", "2",
             "--real", "g.csv", "--fin", str(step_file), "--output", "o.csv",
             "--tol", "1e-4"]
        ) == code
        assert capsys.readouterr() == ("", message + "\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.csv", "step.json"
        ]

    def test_requires_output(self, step_file, tmp_path):
        (tmp_path / "g.csv").write_text("x,value\n0,1\n1,0.5\n")
        proc = run_cli(
            ["solve", "adelic", "--t", "0.1", "--alpha", "2", "--beta", "2",
             "--real", "g.csv", "--fin", str(step_file)],
            tmp_path,
        )
        assert proc.returncode == 2

    def test_requires_real(self, step_file, tmp_path):
        # once a TypeError traceback and exit 1
        proc = run_cli(
            ["solve", "adelic", "--t", "0.1", "--alpha", "2", "--beta", "2",
             "--fin", str(step_file), "--output", "out.csv"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == b"usage error: solve adelic requires --real\n"


class TestVerify:
    def test_verify_suite_passes(self, tmp_path):
        proc = run_cli(["verify", "volumes"], tmp_path)
        assert proc.returncode == 0
        out = proc.stdout.decode()
        assert "PASS criterion-2-volume-telescoping" in out
        # deterministic stdout: no timings outside the sidecar
        assert run_cli(["verify", "volumes"], tmp_path).stdout == proc.stdout



class TestNonFiniteInputs:
    @pytest.mark.parametrize("args,message", [
        (["kernel", "eval", "--radius", "2", "--t", "inf", "--alpha", "2"],
         "t must be finite, got inf"),
        (["kernel", "normalize", "--t", "inf", "--alpha", "2"],
         "t must be finite, got inf"),
        (["transition", "--t", "inf", "--alpha", "2", "--x", "0",
          "--center", "0", "--eps", "2"], "t must be finite, got inf"),
        (["simulate", "--t-step", "inf", "--steps", "3", "--alpha", "2",
          "--seed", "1", "--output", "x.csv"], "t must be finite, got inf"),
        (["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "inf"],
         "alpha must be finite, got inf"),
        (["solve", "homogeneous", "--t", "1", "--alpha", "inf"],
         "alpha must be finite, got inf"),
        (["solve", "homogeneous", "--t", "inf", "--alpha", "2"],
         "t must be finite, got inf"),
        (["solve", "homogeneous", "--t", "nan", "--alpha", "2"],
         "t must be finite, got nan"),
    ])
    def test_non_finite_time_or_exponent_refused(self, step_file, tmp_path,
                                                 args, message):
        if args[0] == "solve":
            args = args + ["--input", str(step_file)]
        start = time.perf_counter()
        proc = run_cli(args, tmp_path, timeout=20)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"invalid parameters: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    @pytest.mark.parametrize("args", [
        ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2"],
        ["kernel", "normalize", "--t", "1", "--alpha", "2"],
        ["solve", "homogeneous", "--t", "1", "--alpha", "2"],
    ])
    def test_tol_must_be_positive_and_finite(self, step_file, tmp_path,
                                             args, tol):
        if args[0] == "solve":
            args = args + ["--input", str(step_file)]
        start = time.perf_counter()
        proc = run_cli(args + ["--tol", tol], tmp_path, timeout=20)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode == 2
        assert proc.stderr == (
            b"usage error: tol must be a positive finite number\n"
        )


class TestStartup:
    def test_cli_import_loads_no_numpy(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, adelic.cli; print('numpy' in sys.modules)"],
            capture_output=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=_PACKAGE_ROOT),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False\n"


# sha256 of `adelic --help` and of each command's --help at COLUMNS=80,
# frozen before the parser was built from the option table. argparse lays
# out help differently across Python versions (3.10 heads the options
# "optional arguments:"), so the texts are checked on 3.11 only; the
# actions behind them are pinned on every version below. The solve digest
# and FROZEN_ACTIONS were re-pinned when --input, --u0 and --fin came to
# say that they default to stdin.
FROZEN_HELP = {
    "adelic":
        "7be3246fc5e9e60f717ba2418e6c5d1fc0fd7090a897496c40760e0bc8fc6916",
    "phi":
        "46f46b5bcc9a839a4e4447fb9bab2c9f9c53560e9679980290a49f24e9f72905",
    "ppow":
        "d7e7ab4fb65abacfb525f815d24069aeebbb05df983fbede9de44ef3d5f6e864",
    "norm":
        "594095cad55cd57aaf00a0845ccfc9d31006649cf86dc0c252803f067761f0f9",
    "volume":
        "934669f1f0fa1cff83b2ac7a900884690f63a8190f048e4e2665e6b6cf49c3f6",
    "ft":
        "dcbb79588daf71ed1f4edf594fd83e5c87ec24a5477aa3ad0e35ae27d507b658",
    "kernel":
        "e6dfe5d5cd65938518612edaf4b6b051f2818063dc587742a1275ff7cb65b583",
    "simulate":
        "4a0c408e8e270b64c7899868d1cd6b0ee060dc9013e0e0297d4a7f25af9c243e",
    "transition":
        "60c263d0d499bc24f51cbb3f5b9ea51eed7c086a8be6af965c0a809012234f5b",
    "solve":
        "90130ca0f66422fa0f8d181f3af21f87b8385cc0103cd88625e9ad7a186fe0d0",
    "verify":
        "7c8215a462e50b734ed719944dfbf2884c29330cb86f85cff6f1e99e5b57ea89",
}

# sha256 of the JSON of every action's (option strings, dest, metavar,
# help, choices, nargs), the subcommands' help and each subparser's actions
FROZEN_ACTIONS = (
    "967a7e1f35a6478ca36febe7280202da922130a9c5d020293170ed56ef97263b"
)

# sha256 of the sidecar's config block (command, resolved params, output,
# seed) of each determinism battery command run with --meta
FROZEN_SIDECAR_CONFIG = {
    "phi 10":
        "ace16a71347453dcf98953c280410d2d9eea43aae67d98bff45cde1214af10e3",
    "phi 1/4":
        "1345b5f6a11eaf78f4adb3dff8a2d5f61802300a8811e3f106cd93934817cc56",
    "ppow next 8":
        "870202e8588ac25a174cda22497e9d9e6892abb52dfaa7ccdd0b3462b0c42a3c",
    "ppow prev 1/4":
        "4eab53967c734497f880f253ef9d5ad20582d7cc41f7ec8ba07612678b9ae510",
    "ppow range 1 12":
        "6c3ea8675a828ce9a0d149eb5ddc23617b15aec4972cf194c6a9c2487befd949",
    "norm 2:-1:1":
        "1b52c9805cae444176da197427fdf4c3455eef1a28d9e5728e1d0e34af17bdfb",
    "volume ball 4":
        "2c6ad459a4aa3b034d186313672aca780c31d74af29f89aa11b3ecb6cd0ae467",
    "volume sphere 1/2":
        "c397cf58ccbe3b213b21b953756853409aaeeead7a2be7b2c1080f2da1fbba38",
    "ft --input step.json":
        "5ff059ac74f0921bbd3ce8e398c3febe3e0b82b5ee255e5ccea7960bb09f1fbb",
    "kernel eval --radius 2 --t 1 --alpha 2":
        "eda5ffa1e64a10374f16eb3c1886a42589ba25f6aead20a7337f34fa3024f929",
    "kernel normalize --t 1 --alpha 2 --tol 1e-6":
        "7955bbb26f8954e251ab41cc397f6ea1d0b75904bf7f05e416f2cf0099ddb3c7",
    "kernel tail --epsilon 2 --t 0.01 --alpha 2":
        "1b17bf5538323d65244ff1a4633420cffc781ca33f15dd711d6109df924b5e5b",
    "simulate --t-step 0.1 --steps 1000 --alpha 2 --seed 7 --output path.csv":
        "6b4a3281d73cc69be1611df36cd53eb1797696eedeb07d3f288b387cc8499bdc",
    "transition --t 0.5 --alpha 2 --x 0 --center 0 --eps 2":
        "819adaca561cced9211fb230e5214b5b9216cace2069a15b8f866a79012bfb43",
    "solve homogeneous --t 1 --alpha 2 --input step.json":
        "fdc3ca775b128fd752ef78a37a9449b5c7cbead1f8795ea2aa4fb5a6db96b5a6",
    "solve duhamel --t 1 --alpha 2 --u0 zero.json --forcing forcing.json --steps 16":
        "0f7893af79509d2fd3c2ca98d319a182d67156302919c82bb4c4b68bd2e16fb1",
    "solve adelic --t 0.5 --alpha 2 --beta 2 --real grid.csv --fin step.json --output out.csv --tol 1e-4":
        "9c36f18cfcf376d25ea3faac61440b61594e760e2fd27603e53942a30133eeb5",
    "verify volumes":
        "ff26a65555824f6fc944f0751becad482529db836c831039439fe6d265966a9e",
}


def _actions(parser):
    # argparse lays out optionals and positionals apart, whatever order
    # they were added in
    out = []
    for action in sorted(parser._actions, key=lambda a: not a.option_strings):
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = [(c.dest, c.help) for c in action._choices_actions]
        out.append([action.option_strings, action.dest, action.metavar,
                    action.help, choices, action.nargs])
        if isinstance(action, argparse._SubParsersAction):
            out += [_actions(sp) for sp in action.choices.values()]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestSurfaceFrozen:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse's help layout varies by version")
    def test_help_texts_frozen(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        got = {}
        for command in ["", "phi", "ppow", "norm", "volume", "ft", "kernel",
                        "simulate", "transition", "solve", "verify"]:
            assert cli.main([*command.split(), "--help"]) == 0
            got[command or "adelic"] = _sha(capsys.readouterr().out)
        assert got == FROZEN_HELP

    def test_parser_actions_frozen(self):
        got = _sha(json.dumps(_actions(cli.build_parser())))
        assert got == FROZEN_ACTIONS

    def test_battery_sidecar_config_frozen(self, tmp_path):
        # each in a fresh interpreter: in process, under pytest's deeper
        # stack, the 1000-step path exhausts the recursion limit
        got = {}
        for args, _ in _battery(str(tmp_path)):
            proc = run_cli([*args, "--meta", "m.json"], tmp_path)
            assert proc.returncode == 0, args
            meta = json.loads((tmp_path / "m.json").read_text())
            got[" ".join(args)] = _sha(json.dumps(meta["config"],
                                                  sort_keys=True))
        assert got == FROZEN_SIDECAR_CONFIG


# (plausible, hostile) values for each converter of the CLI's option
# table. A new option is fuzzed with no edit here, and a new converter
# fails with a KeyError until it has pools. Left out: the slow inputs
# ROADMAP Direction 4 lists (radii near the table cap, hostile times) and
# long paths.
FUZZ_POOLS = {
    cli._float: (["0.5", "1", "1.5", "2", "2"],
                 ["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "x",
                  ""]),
    cli._tol: (["1e-6", "1e-3", "1e-10"],
               ["1e-17", "0", "-1", "nan", "inf", "x"]),
    cli._fraction: (["2", "1/2", "4", "1/4", "1021"],
                    ["5/3", "0", "-2", "1/0", "x", "2305843009213693951"]),
    cli._int: (["0", "1", "4", "16"], ["-1", "2.5", "x", "", "0x10"]),
    str: (["0", "2:-1:1", "3:0:2", "Simpson", "Trapezoid"],
          ["2:-1", "2:z:12", "3:-100000000:1", "Gauss", ""]),
}
# A None converter marks what the handler reads itself: the file an option
# expects (inline JSON for --json, an output file for an option not named
# here) is plausible, and any other file is hostile.
FUZZ_PLAUSIBLE = {
    "input": "step.json", "u0": "step.json", "fin": "step.json",
    "forcing": "forcing.json", "real": "grid.csv", "config": "cfg.json",
    "json": RadialStep.ball_indicator(F(2)).to_json(),
}
FUZZ_FILES = ["step.json", "zero.json", "forcing.json", "grid.csv",
              "cfg.json", "cfg_frac.json", "cfg_huge.json", "bad.json",
              "missing.json"]


def _fuzz_files() -> dict:
    w = RadialStep.sphere_indicator(F(2)).ft()
    config = ('{"t": 1, "alpha": 2, "beta": null, "radius": "2", '
              '"epsilon": 2, "eps": "1/2", "t-step": 0.1, "steps": %s}')
    return {
        "step.json": w.to_json(),
        "zero.json": RadialStep.zero().to_json(),
        "forcing.json": json.dumps({"times": [0.0, 1.0],
                                    "steps": [w.to_dict()] * 2}),
        "grid.csv": "x,value\n" + "".join(
            f"{x / 10},{math.exp(-x * x / 100)}\n" for x in range(-10, 11)
        ),
        "cfg.json": config % 4,
        # integer options read from a config by the flags' rules
        "cfg_frac.json": config % 2.7,
        "cfg_huge.json": config % "1e400",
        "bad.json": "[1, 2]",
    }


def fuzz_argvs(seed, count):
    """count argvs of the table's commands: each option present with
    probability 0.8, and one value in six hostile."""
    rng = random.Random(seed)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    commands = list(cli._OPTIONS)
    for _ in range(count):
        command = rng.choice(commands)
        argv = [command] + [
            rng.choice(action.choices)
            for action in subparsers.choices[command]._actions
            if action.choices
        ]
        for name, conv, *_ in (*cli._OPTIONS[command], *cli._COMMON):
            if rng.random() < 0.8:
                if conv is None:
                    plausible = [FUZZ_PLAUSIBLE.get(name, f"{name}.out")]
                    hostile = FUZZ_FILES
                else:
                    plausible, hostile = FUZZ_POOLS[conv]
                pool = hostile if rng.random() < 1 / 6 else plausible
                argv += [f"--{name}", rng.choice(pool)]
        yield argv


class _ArgvTimeout(BaseException):
    pass


class TestFuzz:
    def test_table_argvs_exit_cleanly(self, tmp_path, monkeypatch, capsys):
        # in process with an empty stdin: a missing step file reads stdin
        monkeypatch.chdir(tmp_path)
        files = _fuzz_files()

        def on_alarm(signum, frame):
            raise _ArgvTimeout

        previous = signal.signal(signal.SIGALRM, on_alarm)
        codes = collections.Counter()
        try:
            for argv in fuzz_argvs(25, 300):
                for name, text in files.items():
                    (tmp_path / name).write_text(text)
                monkeypatch.setattr(sys, "stdin", io.StringIO(""))
                signal.alarm(10)
                try:
                    code = cli.main(argv)
                except _ArgvTimeout:
                    pytest.fail(f"{' '.join(argv)} ran past 10 s")
                except Exception as exc:
                    pytest.fail(f"{' '.join(argv)} raised {exc!r}")
                finally:
                    signal.alarm(0)
                err = capsys.readouterr().err
                assert code in (0, 2, 3, 4), (argv, err)
                assert "Traceback" not in err, argv
                codes[code] += 1
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert codes[0] >= 50  # past validation into the solvers


# plausible values of a positional that its converter's pool lacks
FUZZ_POSITIONAL_PLAUSIBLE = {"suite": ["volumes"]}
# a path no command can write: its directory does not exist
FUZZ_UNWRITABLE = "missing/out"


def fuzz_command_argvs(seed, count):
    """count argvs of all ten commands from the positional and option
    tables: an optional positional or an option present with probability
    0.8, one value in six hostile, and an unwritable path among the
    hostile files."""
    rng = random.Random(seed)
    commands = sorted({*cli._POSITIONALS, *cli._OPTIONS})
    for _ in range(count):
        command = rng.choice(commands)
        argv = [command]
        for name, conv, choices, nargs in cli._POSITIONALS.get(command, ()):
            if nargs == "?" and rng.random() >= 0.8:
                continue
            if choices:
                argv.append(rng.choice(choices))
                continue
            plausible, hostile = FUZZ_POOLS[conv]
            plausible = FUZZ_POSITIONAL_PLAUSIBLE.get(name, plausible)
            argv.append(rng.choice(hostile if rng.random() < 1 / 6
                                   else plausible))
        for name, conv, *_ in (*cli._OPTIONS.get(command, ()), *cli._COMMON):
            if rng.random() < 0.8:
                if conv is None:
                    plausible = [FUZZ_PLAUSIBLE.get(name, f"{name}.out")]
                    hostile = FUZZ_FILES + [FUZZ_UNWRITABLE]
                else:
                    plausible, hostile = FUZZ_POOLS[conv]
                pool = hostile if rng.random() < 1 / 6 else plausible
                argv += [f"--{name}", rng.choice(pool)]
        yield argv


class TestCommandFuzz:
    def test_command_argvs_exit_cleanly(self, tmp_path, monkeypatch, capsys):
        # in process with an empty stdin: a missing step file reads stdin
        monkeypatch.chdir(tmp_path)
        files = _fuzz_files()

        def on_alarm(signum, frame):
            raise _ArgvTimeout

        previous = signal.signal(signal.SIGALRM, on_alarm)
        codes, unwritable = collections.Counter(), 0
        try:
            for argv in fuzz_command_argvs(28, 300):
                for name, text in files.items():
                    (tmp_path / name).write_text(text)
                monkeypatch.setattr(sys, "stdin", io.StringIO(""))
                signal.alarm(10)
                try:
                    code = cli.main(argv)
                except _ArgvTimeout:
                    pytest.fail(f"{' '.join(argv)} ran past 10 s")
                except Exception as exc:
                    pytest.fail(f"{' '.join(argv)} raised {exc!r}")
                finally:
                    signal.alarm(0)
                err = capsys.readouterr().err
                assert code in (0, 2, 3, 4), (argv, err)
                assert "Traceback" not in err, argv
                codes[code] += 1
                unwritable += err.startswith("usage error: cannot write ")
        finally:
            signal.signal(signal.SIGALRM, previous)
        # 135 exits 0 and 5 unwritable paths when this floor was set
        assert codes[0] >= 100  # past validation into the handlers
        assert unwritable >= 1
