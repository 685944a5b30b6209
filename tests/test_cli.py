"""End-to-end CLI tests: output conventions, exit codes, determinism,
config-file merging, and the metadata sidecar."""
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

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
# depend on libm and numpy.
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

    def test_requires_output(self, step_file, tmp_path):
        (tmp_path / "g.csv").write_text("x,value\n0,1\n1,0.5\n")
        proc = run_cli(
            ["solve", "adelic", "--t", "0.1", "--alpha", "2", "--beta", "2",
             "--real", "g.csv", "--fin", str(step_file)],
            tmp_path,
        )
        assert proc.returncode == 2


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
