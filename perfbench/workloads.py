"""The four benchmark workloads.

Each workload makes its inputs from the seed, round by round (round r
always gets the same inputs for the same seed), runs one op per input
through the library, and checks every output against values it derives
without the code path under test. The harness in run.py times the ops;
checks run outside the timed spans.

A workload does not import `adelic` until setup(), so that set-up time
covers the import.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
import refclock

CHI2_MIN_P = 1e-3


@dataclass(frozen=True)
class Spec:
    """One op's input. `name` groups ops for per-command figures."""

    name: str
    args: tuple


def chisquare_p(observed: dict, entries, tail_mass: float,
                min_expected: float = 5.0) -> tuple[float, int]:
    """Pearson chi-square of radius counts against a radius law.

    `entries` are (radius, mass) in ascending radius; adjacent radii are
    pooled until each bin expects at least `min_expected` counts, and the
    leftover radii, the law's tail mass and every observed radius outside
    the window share the last bin. Returns (p-value, degrees of freedom).
    """
    from scipy.stats import chi2

    n = sum(observed.values())
    bins: list[list[float]] = []  # [observed, expected]
    window = set()
    cur_obs = cur_exp = 0.0
    for radius, mass in entries:
        window.add(radius)
        cur_obs += observed.get(radius, 0)
        cur_exp += n * mass
        if cur_exp >= min_expected:
            bins.append([cur_obs, cur_exp])
            cur_obs = cur_exp = 0.0
    cur_obs += sum(c for r, c in observed.items() if r not in window)
    cur_exp += n * tail_mass
    if bins and cur_exp < min_expected:
        bins[-1][0] += cur_obs
        bins[-1][1] += cur_exp
    else:
        bins.append([cur_obs, cur_exp])
    stat = math.fsum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    if dof < 1:
        return math.nan, dof
    return float(chi2.sf(stat, dof)), dof


class Workload:
    name = ""
    chunk_ops = 1  # ops timed between two reference slices

    def __init__(self, seed: int):
        self.seed = seed
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}

    def rng(self, *keys) -> random.Random:
        return random.Random(":".join(str(k) for k in (self.seed, self.name) + keys))

    def fail(self, message: str):
        if len(self.failures) < 20:
            self.failures.append(message)

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def clock(self) -> refclock.RefClock:
        """Reference for this workload's ops (see refclock)."""
        return refclock.RefClock()

    def expected_failure(self, spec: Spec, exc: BaseException) -> bool:
        return False

    def finish(self):
        """Checks over the whole run."""


# --------------------------------------------------------------------------


class Semigroup(Workload):
    """Sum of a t-increment and an s-increment has the (t+s) radius law."""

    name = "mc_semigroup"
    SPLITS = ((0.5, 0.5), (0.2, 0.8))
    WINDOW = (Fraction(1, 128), Fraction(128))
    ALPHA = 2.0
    DEPTH = 10
    CUTOFF = 131

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.per_split = 300 if tiny else 50
        self.chunk_ops = 2 * self.per_split
        self.observed = {split: {} for split in self.SPLITS}

    def setup(self):
        import adelic

        self.A = adelic
        times = sorted({x for split in self.SPLITS for x in split} | {1.0})
        self.laws = {
            t: adelic.radius_distribution(
                adelic.KernelParams(t=t, alpha=self.ALPHA), *self.WINDOW)
            for t in times
        }
        warm = random.Random(f"{self.seed}:warm")
        for split in self.SPLITS:
            for _ in range(20):
                self._draw(split, warm)

    def round(self, r):
        rng = self.rng(r)
        return [Spec("draw", (split, rng))
                for split in self.SPLITS for _ in range(self.per_split)]

    def _draw(self, split, rng):
        A = self.A
        law_t, law_s = self.laws[split[0]], self.laws[split[1]]
        while True:
            r1, r2 = law_t.sample(rng), law_s.sample(rng)
            if r1 is None or r2 is None:
                self.count("tail")
                continue
            x1 = A.sample_uniform(A.sphere(r1), depth=self.DEPTH, rng=rng,
                                  prime_cutoff=self.CUTOFF)
            x2 = A.sample_uniform(A.sphere(r2), depth=self.DEPTH, rng=rng,
                                  prime_cutoff=self.CUTOFF)
            try:
                return r1, x1, r2, x2, A.norm(A.add(x1, x2))
            except A.IndeterminateCancellation:
                self.count("cancel")

    def op(self, spec):
        return self._draw(*spec.args)

    def check(self, spec, out):
        r1, x1, r2, x2, radius = out
        for r, x in ((r1, x1), (r2, x2)):
            got = self.A.norm(x)
            if got != r:
                self.fail(f"sphere sample of radius {r} has norm {got}")
        self.count("units")
        seen = self.observed[spec.args[0]]
        seen[radius] = seen.get(radius, 0) + 1

    def finish(self):
        law = self.laws[1.0]
        for split, seen in self.observed.items():
            p, dof = chisquare_p(seen, law.entries, law.tail_mass)
            if not p > CHI2_MIN_P:
                self.fail(f"split {split}: chi-square p={p:.2e} ({dof} dof) "
                          "against the t+s law")


# --------------------------------------------------------------------------


class Paths(Workload):
    """sample_path ensembles: short paths, long paths, and the 1500-step
    path that overflows the recursion limit (ROADMAP "Fix first")."""

    name = "paths"
    ALPHA = 2.0
    DT = 0.1
    SHORT_STEPS = 25
    # Below the ~990 steps at which the nested sum tails can exceed
    # Python's recursion limit on some seeds.
    LONG_STEPS = 800
    REPRO = Spec("repro", (1500, 7, 0))

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.n_short, self.n_long = (4, 1) if tiny else (16, 3)
        self.long_steps = 100 if tiny else self.LONG_STEPS
        self.observed: dict = {}
        self.replay = None  # (spec, csv) of the first long path

    def setup(self):
        import adelic

        self.A = adelic
        self.params = adelic.KernelParams(t=self.DT, alpha=self.ALPHA)
        trunc = adelic.Truncation()
        self.law = adelic.radius_distribution(self.params, trunc.r_min,
                                              trunc.r_max)
        adelic.sample_path(self.params, self.SHORT_STEPS, self.DT,
                           seed=self.seed, path_index=-1)

    def round(self, r):
        specs = [Spec("short", (self.SHORT_STEPS, self.seed, r * self.n_short + i))
                 for i in range(self.n_short)]
        specs += [Spec("long", (self.long_steps, self.seed,
                                10 ** 6 + r * self.n_long + j))
                  for j in range(self.n_long)]
        return specs + [self.REPRO]

    def op(self, spec):
        steps, seed, index = spec.args
        return self.A.sample_path(self.params, steps, self.DT, seed=seed,
                                  path_index=index)

    def expected_failure(self, spec, exc):
        return spec == self.REPRO and isinstance(exc, RecursionError)

    def check(self, spec, path):
        steps = spec.args[0]
        if len(path.radii) != steps or len(path.times) != steps + 1:
            self.fail(f"{spec.name} path has {len(path.radii)} steps, "
                      f"expected {steps}")
        if any(tm != i * self.DT for i, tm in enumerate(path.times)):
            self.fail(f"{spec.name} path times are not i*dt")
        for r in path.radii:
            self.observed[r] = self.observed.get(r, 0) + 1
        self.count("units", len(path.radii))
        self.count("tail", path.tail_resamples)
        self.count("cancel", path.cancel_resamples)
        if self.replay is None and spec.name == "long":
            self.replay = (spec, path.to_csv())

    def finish(self):
        p, dof = chisquare_p(self.observed, self.law.entries, self.law.tail_mass)
        if not p > CHI2_MIN_P:
            self.fail(f"increment radii: chi-square p={p:.2e} ({dof} dof) "
                      "against the dt law")
        if self.replay is not None:
            spec, csv = self.replay
            if self.op(spec).to_csv() != csv:
                self.fail(f"rerun of path {spec.args} gives a different CSV")


# --------------------------------------------------------------------------


class Analytic(Workload):
    """Deterministic kernel, law, transition and solver evaluations at one
    seeded (t, alpha) point per op."""

    name = "analytic"
    ALPHAS = (1.5, 2.0, 3.0)
    T_RANGE = (0.05, 5.0)
    Z_RADII = tuple(Fraction(r) for r in ("1/4", "1/2", "2", "3", "8"))
    ORACLE_RADII = (Fraction(1, 4), Fraction(3))
    LAW_WINDOW = (Fraction(1, 128), Fraction(128))
    # points of norm 1/2, 2 and 4 for the non-Lizorkin homogeneous solve
    HOM_POINTS = ((Fraction(1, 2), "2:0:1"), (Fraction(2), "2:-1:1"),
                  (Fraction(4), "2:-2:1"))
    DUHAMEL_STEPS = 32

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.strata = 1 if tiny else 4
        self.kernel = oracle.KernelSeries()

    def setup(self):
        import adelic

        A = self.A = adelic
        self.w = A.RadialStep.sphere_indicator(Fraction(2)).ft()  # eigenfunction
        self.u0 = A.RadialStep.ball_indicator(Fraction(1, 2))  # not Lizorkin
        self.zero = A.AdelePoint.zero()
        self.far = A.parse_point("2:-2:1")  # norm 4
        self.points = [(s, A.parse_point(text)) for s, text in self.HOM_POINTS]
        self.op(self._spec(1.0, 2.0))

    def _spec(self, t, alpha):
        A = self.A
        lam = 2.0 ** alpha  # eigenvalue of w
        m = self.DUHAMEL_STEPS
        times = tuple(t * i / m for i in range(m + 1))
        forcing = A.ForcingGrid(times=times, steps=tuple(
            self.w * Fraction(math.cos(tau) + lam * math.sin(tau))
            for tau in times))
        return Spec("point", (t, alpha, forcing))

    def round(self, r):
        # log t is stratified, and within each stratum the rounds follow a
        # golden-ratio sequence from a seeded start: every seed covers the
        # range evenly, so the mix of cheap and costly points (and the
        # op-time percentiles) hardly depends on the seed
        start = self.rng().random()
        u = (start + r * 0.6180339887498949) % 1.0
        lo, hi = (math.log(x) for x in self.T_RANGE)
        width = (hi - lo) / self.strata
        return [self._spec(math.exp(lo + width * (k + u)), alpha)
                for alpha in self.ALPHAS for k in range(self.strata)]

    def op(self, spec):
        A = self.A
        t, alpha, forcing = spec.args
        params = A.KernelParams(t=t, alpha=alpha)
        symbol = A.SymbolSpec(alpha=alpha)
        hom = A.solve_homogeneous(self.u0, t, symbol)
        return {
            "normalization": A.normalization(params),
            "z": {r: A.z_finite(r, params) for r in self.Z_RADII},
            "law": A.radius_distribution(params, *self.LAW_WINDOW),
            "p_far": A.transition_prob_ball(params, self.zero, self.far,
                                            Fraction(1, 2)),
            "p_near": A.transition_prob_ball(params, self.zero, self.zero,
                                             Fraction(2)),
            "hom": [hom.value_with_bound(s) for s, _ in self.points],
            "eigen": A.solve_homogeneous(self.w, t, symbol),
            "duhamel": A.solve_nonhomogeneous(
                A.RadialStep.zero(), forcing, t, symbol,
                quadrature="Simpson", steps=self.DUHAMEL_STEPS),
        }

    def _multiple_of_w(self, step):
        """c with step == c * w exactly, else None."""
        if not isinstance(step, self.A.RadialStep) or set(step.coeffs) != set(self.w.coeffs):
            return None
        ratios = {step.coeffs[r] / c for r, c in self.w.coeffs.items()}
        return ratios.pop() if len(ratios) == 1 else None

    def check(self, spec, out):
        A = self.A
        t, alpha, _ = spec.args
        where = f"t={t:.6g} alpha={alpha}"
        lam = 2.0 ** alpha
        if not abs(out["normalization"] - 1.0) <= 1e-6:
            self.fail(f"normalization {out['normalization']!r} at {where}")
        for r in self.ORACLE_RADII:
            want = self.kernel.z(r, t, alpha)
            if not abs(out["z"][r] - want) <= 1e-8:
                self.fail(f"z_finite({r}) = {out['z'][r]!r}, series {want!r} at {where}")
        # P(t, 0, B(1/2) around a point of norm 4) = phi(1/2) Z(4, t), and
        # P(t, 0, B(2)) = phi(2) Z(2, t) + e^(-t 2^-alpha) (heatkernel's
        # cumulative-mass identity), both against the series
        for key, want in (
            ("p_far", float(oracle.phi(Fraction(1, 2)))
             * self.kernel.z(Fraction(4), t, alpha)),
            ("p_near", float(oracle.phi(Fraction(2)))
             * self.kernel.z(Fraction(2), t, alpha) + math.exp(-t * 0.5 ** alpha)),
        ):
            if not abs(out[key] - want) <= 1e-8:
                self.fail(f"transition {key} = {out[key]!r}, series {want!r} at {where}")
        params = A.KernelParams(t=t, alpha=alpha)
        for (s, point), (value, bound) in zip(self.points, out["hom"]):
            want = A.transition_prob_ball(params, point, self.zero, Fraction(1, 2))
            if not abs(value - want) <= bound + 1e-9:
                self.fail(f"heat flow of 1_B(1/2) at norm {s}: {value!r} vs "
                          f"P(t, x, B(1/2)) {want!r} at {where}")
        c = self._multiple_of_w(out["eigen"])
        decay = math.exp(-t * lam)
        if c is None or not abs(float(c) - decay) <= 1e-14 * decay:
            self.fail(f"eigen-decay not an exact multiple e^(-t lam) at {where}")
        duhamel = out["duhamel"]
        c = None if duhamel.pieces else self._multiple_of_w(duhamel.step)
        gap = math.inf if c is None else abs(float(c) - math.sin(t))
        if not gap <= oracle.simpson_error_bound(t, lam, self.DUHAMEL_STEPS) + 1e-12:
            self.fail(f"Duhamel solution off sin(t) w by {gap:.3e} at {where}")
        elif gap > duhamel.error_bound:
            self.count("duhamel_bound_exceeded")
        self.count("units")


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int
    csv_rows: int | None = None


CHILD_TIMEOUT_S = 60.0


def run_child(argv, src: Path, work: Path) -> tuple[float, CliResult]:
    """Run `python <argv>` in `work` with `src` first on PYTHONPATH and
    wait for it; returns (wall seconds, result)."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([inherited] if inherited else [])))
    out_path, err_path = work / "child.out", work / "child.err"
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], cwd=work, env=env,
                                stdout=out, stderr=err)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, CliResult(proc.returncode, out_path.read_bytes(),
                           err_path.read_bytes(), usage.ru_maxrss)

# The CLI determinism battery (adelic.checks), each command named by a
# slug usable in metric names.
CLI_COMMANDS = (
    ("phi-10", ["phi", "10"]),
    ("phi-1_4", ["phi", "1/4"]),
    ("ppow-next-8", ["ppow", "next", "8"]),
    ("ppow-prev-1_4", ["ppow", "prev", "1/4"]),
    ("ppow-range-1-12", ["ppow", "range", "1", "12"]),
    ("norm", ["norm", "2:-1:1"]),
    ("volume-ball-4", ["volume", "ball", "4"]),
    ("volume-sphere-1_2", ["volume", "sphere", "1/2"]),
    ("ft", ["ft", "--input", "step.json"]),
    ("kernel-eval", ["kernel", "eval", "--radius", "2", "--t", "1",
                     "--alpha", "2"]),
    ("kernel-normalize", ["kernel", "normalize", "--t", "1", "--alpha", "2",
                          "--tol", "1e-6"]),
    ("kernel-tail", ["kernel", "tail", "--epsilon", "2", "--t", "0.01",
                     "--alpha", "2"]),
    ("simulate", ["simulate", "--t-step", "0.1", "--steps", "1000",
                  "--alpha", "2", "--seed", "7", "--output", "path.csv"]),
    ("transition", ["transition", "--t", "0.5", "--alpha", "2", "--x", "0",
                    "--center", "0", "--eps", "2"]),
    ("solve-homogeneous", ["solve", "homogeneous", "--t", "1", "--alpha", "2",
                           "--input", "step.json"]),
    ("solve-duhamel", ["solve", "duhamel", "--t", "1", "--alpha", "2",
                       "--u0", "zero.json", "--forcing", "forcing.json",
                       "--steps", "16"]),
    ("solve-adelic", ["solve", "adelic", "--t", "0.5", "--alpha", "2",
                      "--beta", "2", "--real", "grid.csv", "--fin",
                      "step.json", "--output", "out.csv", "--tol", "1e-4"]),
    ("verify-volumes", ["verify", "volumes"]),
)
# Cold prime-power queries near 1e6: building the table dominates them.
PPOW_COLD = "ppow-next-1e6"
PPOW_RANGE = (990_000, 1_010_000)


class CliCold(Workload):
    """Each command in a fresh interpreter, one child at a time."""

    name = "cli_cold"

    def __init__(self, seed, tiny=False, src: Path = None, work: Path = None):
        super().__init__(seed)
        self.queries = 1 if tiny else 4
        self.src = src
        self.work = work
        self.peak_kb = 0
        self._next_pp: dict[int, int] = {}

    def setup(self):
        from adelic import RadialStep

        w = RadialStep.sphere_indicator(Fraction(2)).ft()
        (self.work / "step.json").write_text(w.to_json())
        (self.work / "zero.json").write_text(RadialStep.zero().to_json())
        taus = (0.0, 0.5, 1.0)
        (self.work / "forcing.json").write_text(json.dumps({
            "times": list(taus),
            "steps": [(w * Fraction(math.cos(tau) + 4 * math.sin(tau))).to_dict()
                      for tau in taus],
            "interpolation": "linear",
        }))
        rows = ["x,value"] + [f"{-8.0 + i * 0.05:.17g},{math.exp(-(-8.0 + i * 0.05) ** 2):.17g}"
                              for i in range(321)]
        (self.work / "grid.csv").write_text("\n".join(rows) + "\n")

    def clock(self):
        def bare_child():
            return run_child(["-c", "pass"], self.src, self.work)[0]

        return refclock.RefClock(bare_child, refclock.REF_CHILD_S)

    def round(self, r):
        rng = self.rng(r)
        queries = [Spec(PPOW_COLD, ("ppow", "next", str(rng.randint(*PPOW_RANGE))))
                   for _ in range(self.queries)]
        specs = []
        every = len(CLI_COMMANDS) // self.queries
        for i, (slug, args) in enumerate(CLI_COMMANDS):
            specs.append(Spec(slug, tuple(args)))
            if i % every == every - 1 and queries:
                specs.append(queries.pop())
        return specs + queries

    def op(self, spec):
        _, res = run_child(["-m", "adelic.cli", *spec.args], self.src, self.work)
        if res.code != 0:
            lines = res.stderr.decode(errors="replace").strip().splitlines()
            raise RuntimeError(f"exit {res.code}: {lines[-1] if lines else ''}")
        if spec.name == "simulate":
            with open(self.work / "path.csv") as fh:
                res = CliResult(res.code, res.stdout, res.stderr, res.maxrss_kb,
                                sum(1 for _ in fh) - 1)
        return res

    def check(self, spec, res):
        self.peak_kb = max(self.peak_kb, res.maxrss_kb)
        text = res.stdout.decode(errors="replace")
        if spec.name == "phi-10" and text != f"{oracle.lcm_upto(10)}\n":
            self.fail(f"phi 10 printed {text!r}")
        elif spec.name == PPOW_COLD:
            n = int(spec.args[-1])
            if n not in self._next_pp:
                self._next_pp[n] = oracle.next_prime_power(n)
            if text != f"{self._next_pp[n]}\n":
                self.fail(f"ppow next {n} printed {text!r}")
        elif spec.name == "kernel-normalize":
            fields = text.split()
            if not fields or not abs(float(fields[0]) - 1.0) <= 1e-6:
                self.fail(f"kernel normalize printed {text!r}")
        elif spec.name == "simulate":
            steps = int(spec.args[spec.args.index("--steps") + 1])
            if res.csv_rows != steps + 1:
                self.fail(f"simulate wrote {res.csv_rows} rows, expected {steps + 1}")


WORKLOADS = {cls.name: cls for cls in (Semigroup, Paths, Analytic, CliCold)}
