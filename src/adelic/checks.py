"""Acceptance suites: property checks at desk scale with time budgets.

Each check returns a CheckResult and is intentionally self-contained:
expected values come from closed forms, exact telescoping identities, an
independent high-precision series oracle, or goodness-of-fit statistics,
never from the code path under test. The CLI `verify` subcommand and the
acceptance tests both dispatch through run_suite.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import IndeterminateCancellation
from .util import record

if TYPE_CHECKING:
    import subprocess

    from .radial import RadialStep

_SEED = 20260825  # master seed for every stochastic check


@record(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + ("" if self.passed else f": {self.detail}")


def _finish(name, budget, start, failures, note=""):
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds budget {budget:.0f}s")
    detail = "; ".join(failures) if failures else note
    return CheckResult(
        name=name, passed=not failures, detail=detail,
        elapsed=elapsed, budget=budget,
    )


# --------------------------------------------------------------------------
# 1. order algebra of phi on prime powers


def check_phi_order() -> CheckResult:
    from .primepow import next_pp, phi, pp_range, prev_pp, prime_power_pairs

    start = time.perf_counter()
    failures = []
    pps = [q.value for q in pp_range(1, 10**4)]
    cache: dict[Fraction, Fraction] = {}

    def ph(x):
        if x not in cache:
            cache[x] = phi(x)
        return cache[x]

    for n in pps:
        p, _ = prime_power_pairs(n)
        m = 1 / n
        if ph(m) * ph(n) != p:
            failures.append(f"phi(1/{n})*phi({n}) != {p}")
        if ph(prev_pp(n).value) != ph(n) / p:
            failures.append(f"phi(prev({n})) != phi({n})/{p}")
        if ph(prev_pp(m).value) != ph(m) / p:
            failures.append(f"phi(prev(1/{n})) != phi(1/{n})/{p}")
        if next_pp(prev_pp(n).value).value != n or prev_pp(next_pp(n).value).value != n:
            failures.append(f"next/prev not inverse at {n}")
        if next_pp(prev_pp(m).value).value != m or prev_pp(next_pp(m).value).value != m:
            failures.append(f"next/prev not inverse at 1/{n}")
        if ph(n) * ph(prev_pp(m).value) != 1:
            failures.append(f"duality fails at {n}")
        if ph(m) * ph(prev_pp(n).value) != 1:
            failures.append(f"duality fails at 1/{n}")
        if failures:
            break
    return _finish(
        "criterion-1-phi-order-algebra", 5.0, start, failures,
        f"all identities exact on {len(pps)} prime powers and reciprocals",
    )


# --------------------------------------------------------------------------
# 2. sphere volumes telescope to ball volumes


def check_volume_telescoping() -> CheckResult:
    from .adele import haar_volume, sphere
    from .primepow import phi, pp_range, prev_pp

    start = time.perf_counter()
    failures = []
    radii = [q.value for q in pp_range(Fraction(1, 32), 32)]
    anchor = prev_pp(Fraction(1, 32)).value
    for r in radii:
        total = sum(
            (haar_volume(sphere(q.value)) for q in pp_range(anchor, r)),
            Fraction(0),
        )
        if phi(anchor) + total != phi(r):
            failures.append(f"telescoping fails at radius {r}")
    return _finish(
        "criterion-2-volume-telescoping", 1.0, start, failures,
        f"exact on {len(radii)} radii spanning both branches",
    )


# --------------------------------------------------------------------------
# 3. radial transforms: closed forms, involution, Parseval


def _random_step(rng) -> RadialStep:
    from .primepow import pp_range
    from .radial import RadialStep

    pool = [q.value for q in pp_range(Fraction(1, 16), 16)]
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        r = pool[rng.randrange(len(pool))]
        coeffs[r] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return RadialStep(coeffs)


def check_radial_ft() -> CheckResult:
    from .primepow import phi, prev_pp
    from .radial import RadialStep
    from .util import derive_rng

    start = time.perf_counter()
    failures = []
    ints = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]
    radii = [Fraction(n) for n in ints] + [Fraction(1, n) for n in ints]
    for rho in radii:
        got = RadialStep.ball_indicator(rho).ft()
        want = RadialStep({prev_pp(1 / rho).value: phi(rho)})
        if got != want:
            failures.append(f"ball transform wrong at {rho}")
        got_s = RadialStep.sphere_indicator(rho).ft()
        below = prev_pp(rho).value
        want_s = RadialStep(
            {prev_pp(1 / rho).value: phi(rho)}
        ) - RadialStep({prev_pp(1 / below).value: phi(below)})
        if got_s != want_s:
            failures.append(f"sphere transform wrong at {rho}")
    rng = derive_rng(_SEED, "radial-ft")
    steps = [_random_step(rng) for _ in range(50)]
    for i, f in enumerate(steps):
        if f.ft().ft() != f:
            failures.append(f"double transform fails on sample {i}")
        if f.ft().l2_norm_sq() != f.l2_norm_sq():
            failures.append(f"Parseval norm fails on sample {i}")
        g = steps[(i + 1) % len(steps)]
        if f.ft().inner_product(g.ft()) != f.inner_product(g):
            failures.append(f"Parseval product fails on sample {i}")
    return _finish(
        "criterion-3-radial-transforms", 10.0, start, failures,
        f"{len(radii)} closed forms and 50 random steps, all exact",
    )


# --------------------------------------------------------------------------
# 4. finite heat kernel: normalization, positivity, bound, slow oracle


def _oracle_phi(x: Fraction) -> Fraction:
    from .primepow import is_prime

    # independent product over primes; exponent counts p^j <= x (x >= 1)
    # or -#{j : p^j < 1/x} (x < 1, the bracket convention)
    if x >= 1:
        out = Fraction(1)
        p = 2
        while p <= x:
            if is_prime(p):
                pj = p
                while pj <= x:
                    out *= p
                    pj *= p
            p += 1
        return out
    y = 1 / x
    out = Fraction(1)
    p = 2
    while p <= y:
        if is_prime(p):
            pj = p
            while pj < y:
                out /= p
                pj *= p
        p += 1
    return out


def _oracle_z(radius: Fraction, t: float, alpha: float) -> float:
    """Slow direct series at 60 significant digits."""
    from mpmath import mp

    from .primepow import next_pp, prev_pp

    mp.dps = 60

    def expterm(q: Fraction):
        qm = mp.mpf(q.numerator) / mp.mpf(q.denominator)
        return mp.exp(-mp.mpf(t) * qm ** mp.mpf(alpha))

    def phim(q: Fraction):
        v = _oracle_phi(q)
        return mp.mpf(v.numerator) / mp.mpf(v.denominator)

    q = prev_pp(1 / radius).value
    total = mp.mpf(0)
    while True:
        total += phim(q) * (expterm(q) - expterm(next_pp(q).value))
        down = prev_pp(q).value
        # remaining terms telescope below phi(down) * (1 - e^{-t q^alpha})
        if phim(down) * (1 - expterm(down)) < mp.mpf(10) ** (-40):
            break
        q = down
    return float(total)


_ORACLE_SPOTS = [
    (Fraction(2), 1.0, 2.0),
    (Fraction(1, 2), 1.0, 2.0),
    (Fraction(1), 1.0, 2.0),
    (Fraction(4), 0.5, 1.5),
    (Fraction(1, 4), 0.5, 1.5),
    (Fraction(8), 3.0, 1.2),
    (Fraction(1, 8), 2.0, 2.5),
    (Fraction(3), 0.25, 2.0),
    (Fraction(1, 3), 0.1, 3.0),
    (Fraction(9), 0.7, 1.7),
]


def check_heat_kernel() -> CheckResult:
    from .heatkernel import KernelParams, normalization, z_finite
    from .primepow import phi, pp_range, prev_pp

    start = time.perf_counter()
    failures = []
    ts = (0.1, 0.5, 1.0, 2.0, 5.0)
    alphas = (1.5, 2.0, 3.0)
    sweep = [q.value for q in pp_range(Fraction(1, 8), 8)]
    sweep.insert(0, Fraction(1, 8))
    for t in ts:
        for alpha in alphas:
            params = KernelParams(t=t, alpha=alpha)
            total = normalization(params)
            if abs(total - 1.0) > 1e-6:
                failures.append(f"normalization off at t={t} alpha={alpha}")
            for r in sweep:
                z = z_finite(r, params)
                if z < 0:
                    failures.append(f"negative kernel at {r}, t={t}")
                cap = (
                    2.0 * t * float(r) ** (-alpha)
                    * float(phi(prev_pp(1 / r).value))
                )
                if z > cap * (1 + 1e-12):
                    failures.append(
                        f"pointwise bound fails at {r}, t={t}, alpha={alpha}"
                    )
    for r, t, alpha in _ORACLE_SPOTS:
        got = z_finite(r, KernelParams(t=t, alpha=alpha))
        want = _oracle_z(r, t, alpha)
        if abs(got - want) > 1e-8:
            failures.append(
                f"oracle mismatch at r={r}, t={t}: {got} vs {want}"
            )
    return _finish(
        "criterion-4-heat-kernel", 60.0, start, failures,
        "normalization grid, positivity, pointwise bound, 10 oracle spots",
    )


# --------------------------------------------------------------------------
# 5. Monte Carlo semigroup property of the increment law


def check_semigroup_mc() -> CheckResult:
    from .adele import add, norm, sample_uniform, sphere
    from .heatkernel import KernelParams
    from .markov import radius_distribution, radius_law_chisquare
    from .util import derive_rng

    start = time.perf_counter()
    failures = []
    n = 10**5
    lo, hi = Fraction(1, 128), Fraction(128)
    alpha = 2.0
    for t, s in ((0.5, 0.5), (0.2, 0.8)):
        dist_t = radius_distribution(KernelParams(t=t, alpha=alpha), lo, hi)
        dist_s = radius_distribution(KernelParams(t=s, alpha=alpha), lo, hi)
        dist_sum = radius_distribution(
            KernelParams(t=t + s, alpha=alpha), lo, hi
        )
        window = {r for r, _ in dist_sum.entries}
        rng = derive_rng(_SEED, "semigroup", f"{t}+{s}")
        observed: dict = {}
        draws = 0
        while draws < n:
            r1 = dist_t.sample(rng)
            r2 = dist_s.sample(rng)
            if r1 is None or r2 is None:
                continue
            x1 = sample_uniform(sphere(r1), depth=10, rng=rng, prime_cutoff=131)
            x2 = sample_uniform(sphere(r2), depth=10, rng=rng, prime_cutoff=131)
            try:
                rad = norm(add(x1, x2))
            except IndeterminateCancellation:
                continue
            key = rad if rad in window else None
            observed[key] = observed.get(key, 0) + 1
            draws += 1
        stat, p, dof = radius_law_chisquare(observed, dist_sum)
        if not p > 1e-3:
            failures.append(f"chi-square p={p:.2e} at (t,s)=({t},{s})")
    return _finish(
        "criterion-5-semigroup-monte-carlo", 120.0, start, failures,
        "summed increments match the t+s radius law at both splits",
    )


# --------------------------------------------------------------------------
# 6. sampler law and exact sphere norms


def check_sampler_law() -> CheckResult:
    from .adele import norm, sample_uniform, sphere
    from .heatkernel import KernelParams
    from .markov import radius_distribution, radius_law_chisquare
    from .util import derive_rng

    start = time.perf_counter()
    failures = []
    dist = radius_distribution(
        KernelParams(t=0.5, alpha=2.0), Fraction(1, 128), Fraction(1024)
    )
    rng = derive_rng(_SEED, "sampler")
    observed: dict = {}
    for _ in range(10**5):
        key = dist.sample(rng)
        observed[key] = observed.get(key, 0) + 1
    stat, p, dof = radius_law_chisquare(observed, dist)
    if not p > 1e-3:
        failures.append(f"radius law chi-square p={p:.2e}")
    radii = [
        Fraction(2), Fraction(1, 2), Fraction(9), Fraction(1, 7),
        Fraction(16), Fraction(1, 16), Fraction(5), Fraction(1, 3),
        Fraction(27), Fraction(8),
    ]
    for r in radii:
        for _ in range(50):
            pt = sample_uniform(sphere(r), depth=10, rng=rng, prime_cutoff=37)
            if norm(pt) != r:
                failures.append(f"sphere sample norm != {r}")
                break
    return _finish(
        "criterion-6-sampler-law", 60.0, start, failures,
        "radius histogram fits; 500 sphere samples all at exact norm",
    )


# --------------------------------------------------------------------------
# 7. transition-function conditions M, N, L


def check_markov_conditions() -> CheckResult:
    from .adele import AdelePoint, sample_uniform, sphere
    from .heatkernel import KernelParams, tail_mass_bound
    from .markov import transition_prob_ball
    from .util import derive_rng

    start = time.perf_counter()
    failures = []
    alpha = 2.0
    origin = AdelePoint.zero()
    times = (0.1, 0.01, 0.001)
    for eps in (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(8)):
        for t in times:
            params = KernelParams(t=t, alpha=alpha)
            escape = 1.0 - transition_prob_ball(params, origin, origin, eps)
            if escape > tail_mass_bound(eps, params) * (1 + 1e-12):
                failures.append(f"M-bound fails at eps={eps}, t={t}")
    lower = (3.0**alpha - 2.0**alpha) / 3.0 - 1e-3
    for t in times:
        params = KernelParams(t=t, alpha=alpha)
        ratio = (
            1.0 - transition_prob_ball(params, origin, origin, Fraction(1, 4))
        ) / t
        if not ratio >= lower:
            failures.append(f"N-failure ratio {ratio:.3f} < {lower:.3f} at t={t}")
    rng = derive_rng(_SEED, "markov-L")
    for t in (1.0, 0.5, 0.1, 0.01):
        params = KernelParams(t=t, alpha=alpha)
        probs = []
        for d in (2, 4, 8, 16, 32):
            x = sample_uniform(sphere(Fraction(d)), depth=12, rng=rng)
            probs.append(transition_prob_ball(params, x, origin, Fraction(1)))
        if any(a <= b for a, b in zip(probs, probs[1:])):
            failures.append(f"L-decay not monotone at t={t}")
        if not probs[-1] < 1e-4:
            failures.append(f"L-decay too slow at t={t}: {probs[-1]:.2e}")
    return _finish(
        "criterion-7-markov-conditions", 30.0, start, failures,
        "M bounded by explicit C(eps); N-failure ratio persists; L decays",
    )


# --------------------------------------------------------------------------
# 8. solvers: spectral exactness and Duhamel convergence


def check_solvers() -> CheckResult:
    from .cauchy import (
        ForcingGrid,
        SymbolSpec,
        solve_homogeneous,
        solve_nonhomogeneous,
    )
    from .radial import RadialStep

    start = time.perf_counter()
    failures = []
    sym = SymbolSpec(alpha=2.0)
    radii = [
        Fraction(2), Fraction(4), Fraction(8), Fraction(3), Fraction(9),
        Fraction(5), Fraction(7), Fraction(1, 2), Fraction(1, 4),
        Fraction(1, 3),
    ]
    for r in radii:
        w = RadialStep.sphere_indicator(r).ft()
        got = solve_homogeneous(w, 1.0, sym)
        want = w * Fraction(math.exp(-float(r) ** 2.0))
        if not (isinstance(got, RadialStep) and got == want):
            failures.append(f"eigen decay not exact at sphere {r}")
    w = RadialStep.sphere_indicator(Fraction(2)).ft() * Fraction(5, 3) \
        + RadialStep.sphere_indicator(Fraction(1, 2)).ft() * Fraction(-7)
    composed = solve_homogeneous(solve_homogeneous(w, 1.0, sym), 2.0, sym)
    if composed != solve_homogeneous(w, 3.0, sym):
        failures.append("semigroup composition not exact on Lizorkin input")
    norms = [
        float(solve_homogeneous(w, t, sym).l2_norm_sq())
        for t in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    ]
    if any(a < b for a, b in zip(norms, norms[1:])):
        failures.append("L2 norm not monotone along the flow")

    lam = 4.0
    base = RadialStep.sphere_indicator(Fraction(2)).ft()
    times = tuple(i / 64 for i in range(65))
    forcing = ForcingGrid(
        times=times,
        steps=tuple(
            base * Fraction(math.cos(tau) + lam * math.sin(tau))
            for tau in times
        ),
    )
    exact = base * Fraction(math.sin(1.0))

    def duhamel_err(m: int) -> float:
        got = solve_nonhomogeneous(
            RadialStep.zero(), forcing, 1.0, sym,
            quadrature="Simpson", steps=m,
        )
        return math.sqrt(float((got.step - exact).l2_norm_sq()))

    e16, e32, e64 = duhamel_err(16), duhamel_err(32), duhamel_err(64)
    if not e64 < 1e-4:
        failures.append(f"Duhamel error {e64:.2e} at 64 Simpson steps")
    order = math.log2(e16 / e32)
    if not order >= 3.5:
        failures.append(f"observed Duhamel order {order:.2f} < 3.5")
    return _finish(
        "criterion-8-solvers", 60.0, start, failures,
        "eigen decay and composition exact; contraction; Duhamel order 4",
    )


# --------------------------------------------------------------------------
# 9. real factor and the product space


def check_real_adelic() -> CheckResult:
    from scipy.integrate import quad

    from .cauchy import (
        RealGridFunction,
        SymbolSpec,
        apply_adelic_operator,
        apply_operator,
        real_fractional_operator,
    )
    from .heatkernel import KernelParams, normalization, z_real
    from .radial import RadialStep

    start = time.perf_counter()
    failures = []
    for beta in (1.0, 2.0):
        for x, t in ((0.0, 0.7), (0.3, 0.7), (1.0, 2.0)):
            params = KernelParams(t=t, alpha=2.0, beta=beta)
            closed = z_real(x, params)
            f = lambda xi: math.exp(-t * xi**beta)
            if x == 0.0:
                ref = 2.0 * quad(f, 0, math.inf, epsabs=1e-12, epsrel=1e-12)[0]
            else:
                ref = 2.0 * quad(
                    f, 0, math.inf, weight="cos", wvar=2 * math.pi * x,
                    epsabs=1e-12, epsrel=1e-12, limit=400,
                )[0]
            if abs(closed - ref) > 1e-8:
                failures.append(f"z_real off at beta={beta}, x={x}, t={t}")
    for beta, t, alpha in ((2.0, 0.7, 2.0), (1.0, 2.0, 1.5)):
        params = KernelParams(t=t, alpha=alpha, beta=beta)
        real_mass = quad(
            lambda x: z_real(x, params), -math.inf, math.inf
        )[0]
        total = real_mass * normalization(params)
        if abs(total - 1.0) > 1e-5:
            failures.append(
                f"product normalization {total:.8f} at beta={beta}"
            )

    # operator factorization on a factorized state, combined vs split
    half, dx = 12.0, 0.02
    n = int(round(2 * half / dx)) + 1
    vals = tuple(math.exp(-((-half + i * dx) ** 2)) for i in range(n))
    h_real = RealGridFunction(x0=-half, dx=dx, values=vals)
    h_fin = RadialStep.sphere_indicator(Fraction(2)).ft() \
        + RadialStep.sphere_indicator(Fraction(1, 3)).ft() * Fraction(2, 7)
    sym = SymbolSpec(alpha=2.0, beta=1.3)
    radii = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(4)]
    lhs = apply_adelic_operator(h_real, h_fin, sym, radii)
    d_beta = real_fractional_operator(h_real, sym.beta)
    d_alpha = apply_operator(h_fin, sym.alpha)
    worst = 0.0
    for s in radii:
        hf = float(h_fin.value(s))
        da = float(d_alpha.value(s))
        for i in range(0, n, 40):
            rhs = hf * d_beta.values[i] + h_real.values[i] * da
            worst = max(worst, abs(lhs[s][i] - rhs))
    if worst > 1e-8:
        failures.append(f"factorization identity off by {worst:.2e}")
    return _finish(
        "criterion-9-real-adelic-factor", 60.0, start, failures,
        "closed forms vs quadrature; product mass 1; factorization identity",
    )


# --------------------------------------------------------------------------
# 10. CLI determinism


_PACKAGE_ROOT = str(Path(__file__).resolve().parents[1])


def run_cli(args, cwd, timeout=None) -> subprocess.CompletedProcess:
    """Run `python -m adelic.cli *args` in a fresh interpreter in `cwd`.

    The child's PYTHONPATH starts with the absolute root of the package
    this module was imported from, so it runs this same copy of adelic
    (a source checkout or an installed build) whatever `cwd` is and
    whether or not an inherited PYTHONPATH entry is relative. A child
    still running after `timeout` seconds is killed (TimeoutExpired).
    """
    import subprocess

    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_PACKAGE_ROOT] + ([inherited] if inherited else [])
    ))
    return subprocess.run(
        [sys.executable, "-m", "adelic.cli", *args],
        capture_output=True, cwd=cwd, env=env, timeout=timeout,
    )


def _exit_failure(args, proc) -> str:
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    last = lines[-1] if lines else "(no stderr)"
    return f"{' '.join(args)} exited {proc.returncode}: {last}"


def _battery(tmp):
    from .radial import RadialStep

    w = RadialStep.sphere_indicator(Fraction(2)).ft()
    with open(os.path.join(tmp, "step.json"), "w") as fh:
        fh.write(w.to_json())
    with open(os.path.join(tmp, "zero.json"), "w") as fh:
        fh.write(RadialStep.zero().to_json())
    forcing = {
        "times": [0.0, 0.5, 1.0],
        "steps": [
            (w * Fraction(math.cos(tau) + 4 * math.sin(tau))).to_dict()
            for tau in (0.0, 0.5, 1.0)
        ],
        "interpolation": "linear",
    }
    with open(os.path.join(tmp, "forcing.json"), "w") as fh:
        json.dump(forcing, fh)
    lines = ["x,value"]
    n = 321
    for i in range(n):
        x = -8.0 + i * 0.05
        lines.append(f"{x:.17g},{math.exp(-x * x):.17g}")
    with open(os.path.join(tmp, "grid.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return [
        (["phi", "10"], []),
        (["phi", "1/4"], []),
        (["ppow", "next", "8"], []),
        (["ppow", "prev", "1/4"], []),
        (["ppow", "range", "1", "12"], []),
        (["norm", "2:-1:1"], []),
        (["volume", "ball", "4"], []),
        (["volume", "sphere", "1/2"], []),
        (["ft", "--input", "step.json"], []),
        (["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2"], []),
        (["kernel", "normalize", "--t", "1", "--alpha", "2", "--tol", "1e-6"], []),
        (["kernel", "tail", "--epsilon", "2", "--t", "0.01", "--alpha", "2"], []),
        (
            ["simulate", "--t-step", "0.1", "--steps", "1000", "--alpha", "2",
             "--seed", "7", "--output", "path.csv"],
            ["path.csv"],
        ),
        (
            ["transition", "--t", "0.5", "--alpha", "2", "--x", "0",
             "--center", "0", "--eps", "2"],
            [],
        ),
        (["solve", "homogeneous", "--t", "1", "--alpha", "2",
          "--input", "step.json"], []),
        (["solve", "duhamel", "--t", "1", "--alpha", "2", "--u0", "zero.json",
          "--forcing", "forcing.json", "--steps", "16"], []),
        (
            ["solve", "adelic", "--t", "0.5", "--alpha", "2", "--beta", "2",
             "--real", "grid.csv", "--fin", "step.json",
             "--output", "out.csv", "--tol", "1e-4"],
            ["out.csv", "out.csv.finite.json"],
        ),
        (["verify", "volumes"], []),
    ]


def check_cli_determinism() -> CheckResult:
    import tempfile

    start = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        battery = _battery(tmp)
        for args, outputs in battery:
            first = run_cli(args, tmp)
            if first.returncode != 0:
                failures.append(_exit_failure(args, first))
                continue
            contents = {}
            for name in outputs:
                with open(os.path.join(tmp, name), "rb") as fh:
                    contents[name] = fh.read()
            second = run_cli(args, tmp)
            if second.returncode != 0:
                failures.append(_exit_failure(args, second))
                continue
            if first.stdout != second.stdout:
                failures.append(f"stdout differs for {' '.join(args)}")
            for name in outputs:
                with open(os.path.join(tmp, name), "rb") as fh:
                    if fh.read() != contents[name]:
                        failures.append(f"{name} differs for {' '.join(args)}")
        if not failures:
            args = ["phi", "10"]
            out = run_cli(args, tmp)
            if out.returncode != 0:
                failures.append(_exit_failure(args, out))
            elif out.stdout != b"2520\n":
                failures.append(f"phi 10 printed {out.stdout!r}")
            args = ["kernel", "normalize", "--t", "1", "--alpha", "2",
                    "--tol", "1e-6"]
            out = run_cli(args, tmp)
            if out.returncode != 0:
                failures.append(_exit_failure(args, out))
            elif abs(float(out.stdout.split()[0]) - 1.0) > 1e-6:
                failures.append("kernel normalize outside 1 +/- 1e-6")
            for args, code in (
                (["phi"], 2),
                (["volume", "cube", "2"], 2),
                (["kernel", "eval", "--radius", "5/3", "--t", "1",
                  "--alpha", "2"], 2),
                (["norm", "2:z:12"], 4),
            ):
                got = run_cli(args, tmp).returncode
                if got != code:
                    failures.append(
                        f"{' '.join(args)} exited {got}, expected {code}"
                    )
    return _finish(
        "criterion-10-cli-determinism", 120.0, start, failures,
        "all commands byte-identical across reruns; exit codes stable",
    )


# --------------------------------------------------------------------------
# suites


CHECKS = {
    "phi-order": check_phi_order,
    "volumes": check_volume_telescoping,
    "radial-ft": check_radial_ft,
    "kernel": check_heat_kernel,
    "semigroup": check_semigroup_mc,
    "sampler": check_sampler_law,
    "markov": check_markov_conditions,
    "solvers": check_solvers,
    "real-adelic": check_real_adelic,
    "determinism": check_cli_determinism,
}

SUITES = dict(
    {name: [fn] for name, fn in CHECKS.items()},
    all=list(CHECKS.values()),
)


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
        )
    return [fn() for fn in SUITES[name]]
