"""Spectral solvers for parabolic problems driven by radial multipliers.

Every solve applies a radial symbol on the Fourier side: the operator
r^gamma, the flow e^{-t r^alpha} and the Duhamel integral's weighted sum
of flows all go through one routine. A walk up the ranks of a step (a
running sum of exact integer pairs c_k phi(k)) splits the transform's
inner ball off as a lazy piece, where the symbol takes infinitely many
values (evaluated on demand by a certified series; a flow's piece is the
transition function of heatkernel._ball_flow), and adds symbol(q) *
value on each frequency sphere q that carries a value into a per-rank
sum of integer pairs (numerator, denominator) over least common
denominators; float weights enter through their exact as_integer_ratio.
Each sum becomes Fractions once and is transformed back once; inputs
whose transform vanishes near zero stay exact steps.

For integer times the decay factor is an exact rational e^{-lambda}
raised to the t-th power, so evolutions over integer times compose
exactly (the floating-point error enters once, in the base). Such a power
is refused past _DECAY_BITS_CAP bits, before it is built, on a sphere
that carries a value. Fractional times use a fresh exponential per call
and compose only to machine precision.

The non-homogeneous solution is the flow of u0 plus the Duhamel
integral, by composite Trapezoid/Simpson quadrature in the forcing time.
The nodes tau < t fall into at most four classes by their (fine, coarse)
pair of rule weights; each adds the flow of f(tau) for t - tau once,
unweighted, into its class's sum, and each rule is the exact combination
of the class sums, each weight entering once per class as its integer
ratio (the node tau = t adds f(t) itself, weighted). The flow of u0
joins the fine sum. The arithmetic is exact and linear, so the sums are
the same rationals as evolving every node and summing the results with
each rule's weights. The reported error bound is the whole step-halving
difference |fine - coarse| (L2), plus the kernel tolerance. It is not
divided by 2^order - 1 as a Richardson estimate would be: at practical
step counts the asymptotic h^order regime has not set in, and the
divided estimate fell below the true error. The difference is taken on
the Fourier side, where the rules are summed: by Parseval its norm is
that of the sphere sums' difference plus the transform of the tau = t
steps' difference, the same rational as the norm of the transformed-back
difference, so the coarse rule is never transformed back.
"""
from __future__ import annotations

import io
import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import ToleranceError
from .heatkernel import KernelParams, _ball_flow, z_real
from .primepow import _TABLE, RationalLike, as_fraction, phi
from .radial import RadialStep, ft_ball_eval
from .util import record, require_finite


@record(frozen=True)
class SymbolSpec:
    """Multiplier exponents: r^alpha on the finite part, |xi|^beta on the
    real part when present."""

    alpha: float
    beta: Optional[float] = None

    def __post_init__(self):
        require_finite(alpha=self.alpha)
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.beta is not None and not 0 < self.beta <= 2:
            raise ValueError("beta must lie in (0, 2]")

    def require_solver_range(self):
        if not self.alpha > 1:
            raise ValueError("solvers require alpha > 1")


@record(frozen=True)
class InnerPiece:
    """scale * inverse transform of (profile * 1_B(rho)), evaluated lazily:
    "power" by ft_ball_eval; "heat" (exponent > 1) as scale / phi(r) times
    P(time, x, B(r)), whose data 1_B(r) transforms to phi(r) 1_B(rho)."""

    scale: float
    rho: Fraction
    kind: str          # "power": q^exponent; "heat": e^{-time q^exponent}
    exponent: float
    time: float = 0.0

    def value(self, s: RationalLike, tol: float) -> tuple[float, float]:
        if self.kind == "power":
            val, bound = ft_ball_eval(lambda q: float(q) ** self.exponent,
                                      self.rho, s, 0.0, tol=tol)
        elif self.kind == "heat":
            k, params, ln_scale = self._heat_flow_args
            val, bound = _ball_flow(k, s, params, ln_scale)
        else:
            raise ValueError(f"unknown piece kind {self.kind!r}")
        return self.scale * val, abs(self.scale) * bound

    @cached_property
    def _heat_flow_args(self) -> tuple[int, KernelParams, float]:
        """The rank of r, the kernel parameters and -log phi(r) of a heat
        piece, for _ball_flow: made at the piece's first read."""
        k = -2 - _TABLE.rank_floor(as_fraction(self.rho))  # rank of r
        return k, KernelParams(self.time, self.exponent), -_TABLE.log_phi_at(k)

    def l2_cap(self) -> float:
        """|scale| * sup |profile| on B(rho) * sqrt(vol B(rho)): a bound on
        the L2 norm of the piece."""
        peak = float(self.rho) ** self.exponent if self.kind == "power" else 1.0
        return abs(self.scale) * peak * math.sqrt(float(phi(self.rho)))


@record(frozen=True)
class EvaluableRadial:
    """Exact step part plus lazily evaluated inner pieces."""

    step: RadialStep
    pieces: tuple[InnerPiece, ...] = ()
    tol: float = 1e-10
    error_bound: float = 0.0

    def value(self, s: RationalLike) -> float:
        return self.value_with_bound(s)[0]

    def value_with_bound(self, s: RationalLike) -> tuple[float, float]:
        total = float(self.step.value(s))
        bound = self.error_bound
        for piece in self.pieces:
            v, b = piece.value(s, self.tol)
            total += v
            bound += b
        return total, bound


RadialResult = Union[RadialStep, EvaluableRadial]


class _SpectralSum:
    """A sum of radial multipliers applied to steps, kept on the Fourier
    side: weighted, multiplied sphere values by frequency rank, each an
    exact [numerator, denominator] pair of ints, the inner pieces' scales
    by shape (rho, kind, exponent, time), and a step added as it is (the
    Duhamel node tau = t)."""

    __slots__ = ("spheres", "pieces", "step")

    def __init__(self):
        self.spheres: dict[int, list[int]] = {}
        self.pieces: dict = {}
        self.step = RadialStep.zero()

    def add(self, k: int, num: int, den: int) -> None:
        """Add num/den (den > 0) to the sum on the sphere of rank k, over
        the least common denominator; nothing is reduced until the end."""
        pair = self.spheres.get(k)
        if pair is None:
            self.spheres[k] = [num, den]
            return
        lcd = math.lcm(pair[1], den)
        pair[0] = pair[0] * (lcd // pair[1]) + num * (lcd // den)
        pair[1] = lcd

    def add_weighted(self, other: "_SpectralSum", weight: float) -> None:
        """Add weight times other's sphere sums, the weight entering once
        through its exact as_integer_ratio."""
        wn, wd = weight.as_integer_ratio()
        for k, (num, den) in other.spheres.items():
            self.add(k, wn * num, wd * den)

    def total_step(self) -> RadialStep:
        """The inverse transform of the sphere sums, each ball coefficient
        one Fraction made from integer pairs, plus the step."""
        if not self.spheres:
            return self.step
        step = RadialStep._trusted({
            k: Fraction(num, den)
            for k, num, den in reversed(_sphere_drops(self.spheres))
        })
        return step.ft() + self.step

    def result(self, tol: float) -> RadialResult:
        """The exact step, with the inner pieces when there are any."""
        pieces = tuple(InnerPiece(s, *sh) for sh, s in self.pieces.items())
        step = self.total_step()
        return EvaluableRadial(step, pieces, tol, 0.0) if pieces else step


def _sphere_drops(spheres: dict) -> list[tuple[int, int, int]]:
    """(k, num, den), num/den unreduced and nonzero, for each ball
    coefficient of the step whose value on the sphere of rank k is the
    integer pair spheres[k] (0 on the ranks between, above and below): the
    drop in value from sphere k to sphere k + 1, k descending from the
    largest rank to one below the smallest."""
    out = []
    n1, d1 = 0, 1  # the value on the sphere above
    for k in range(max(spheres), min(spheres) - 2, -1):
        n, d = spheres.get(k, (0, 1))
        num = n * d1 - n1 * d
        if num:
            out.append((k, num, d * d1))
        n1, d1 = n, d
    return out


def _step_halving_gap(fine: _SpectralSum, coarse: _SpectralSum) -> float:
    """The L2 norm of the difference of the two rules' total steps, taken
    on the Fourier side: by Parseval (the transform is an isometric
    involution on steps) it is the norm of the sphere sums' difference
    plus the transform of the steps' difference, the same rational. Its
    ball coefficients stay unreduced integer pairs through the sum
    c_k phi(k) (c_k + 2 * the coefficients above rank k) of
    RadialStep.l2_norm_sq, and int true division rounds the quotient as
    float(Fraction) does."""
    phi_pair = _TABLE.phi_pair_at
    spheres = {}
    for k in fine.spheres.keys() | coarse.spheres.keys():
        fn, fd = fine.spheres.get(k, (0, 1))
        cn, cd = coarse.spheres.get(k, (0, 1))
        spheres[k] = (fn * cd - cn * fd, fd * cd)
    coeffs = {k: (n, d) for k, n, d in _sphere_drops(spheres)} if spheres else {}
    # the transform maps rank j to -2-j with weight phi(j)
    for step, sign in ((fine.step, 1), (coarse.step, -1)):
        for j, c in step._by_rank.items():
            a, b = phi_pair(j)
            n, d = sign * c.numerator * a, c.denominator * b
            m, e = coeffs.get(-2 - j, (0, 1))
            coeffs[-2 - j] = (m * d + n * e, e * d)
    total_n, total_d, above_n, above_d = 0, 1, 0, 1
    for k in sorted(coeffs, reverse=True):
        n, d = coeffs[k]
        if not n:
            continue
        a, b = phi_pair(k)
        tn = n * a * (n * above_d + 2 * above_n * d)
        td = d * b * d * above_d
        total_n, total_d = total_n * td + tn * total_d, total_d * td
        above_n, above_d = above_n * d + n * above_d, above_d * d
    return math.sqrt(total_n / total_d)


def _add_multiplied(
    acc: _SpectralSum,
    g: RadialStep,
    kind: str,
    exponent: float,
    time: float,
    powers: dict[int, float],
    scales: Optional[tuple[tuple[_SpectralSum, float], ...]] = None,
) -> None:
    """Add the symbol applied to g into acc's sphere sums: the symbol is
    q^exponent ("power") or e^{-time q^exponent} ("heat"), and powers
    memoizes q^exponent by rank. The inner ball's c0, times weight, goes
    to the piece of its shape in each (sum, weight) of scales, by default
    acc's own with weight 1; c0 is the quotient of its integer pair, which
    int true division rounds correctly, as float(Fraction) does."""
    (cn, cd), rho, k0, values = g._ft_sphere_pairs()
    if cn:
        shape = (rho, kind, exponent, time)
        c0 = cn / cd
        for target, weight in scales or ((acc, 1.0),):
            s = weight * c0
            prev = target.pieces.get(shape)
            target.pieces[shape] = s if prev is None else prev + s
    heat = kind == "heat"
    for k, (vn, vd) in enumerate(values, k0):
        if not vn:
            continue
        lam = powers.get(k)
        if lam is None:
            lam = powers[k] = _TABLE.float_at(k) ** exponent
        fn, fd = _decay_factor(time, lam) if heat else lam.as_integer_ratio()
        acc.add(k, fn * vn, fd * vd)


def apply_operator(
    f: RadialStep, gamma: float, tol: float = 1e-10
) -> RadialResult:
    """Fourier multiplier r^gamma. Exact step when the transform of f has
    zero inner value; otherwise the inner ball is split off into a lazily
    evaluated piece."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    acc = _SpectralSum()
    _add_multiplied(acc, f, "power", gamma, 0.0, {})
    return acc.result(tol)


# An exact integer-time decay factor e^{-lambda}^t holding more bits than
# this (numerator and denominator together, about 315,000 decimal digits)
# is refused: the power and every product with it grow without bound in t.
_DECAY_BITS_CAP = 1 << 20


def _decay_factor(t: float, lam: float) -> tuple[int, int]:
    """e^{-t lam} as the integer pair (numerator, denominator) in lowest
    terms: for integer times the exact power of the single rational base
    e^{-lam}, so factors compose exactly; for fractional times one fresh
    exponential."""
    if t == int(t):
        num, den = math.exp(-lam).as_integer_ratio()
        n = int(t)
        # bits per factor, at most: the numerator's unless it is 0 or 1,
        # and log2 of the power-of-two denominator
        size = (num.bit_length() if num > 1 else 0) + den.bit_length() - 1
        if n * size > _DECAY_BITS_CAP:
            raise ValueError(
                f"the exact decay factor at integer time {n} would hold up "
                f"to {n * size} bits, past the cap of 2^20 bits"
            )
        return num ** n, den ** n
    return math.exp(-t * lam).as_integer_ratio()


def _require_time(t: float) -> None:
    require_finite(t=t)
    if t < 0:
        raise ValueError("time must be nonnegative")


def solve_homogeneous(
    u0: RadialStep,
    t: float,
    symbol: SymbolSpec,
    tol: float = 1e-10,
) -> RadialResult:
    """Evolve u0 for time t under the flow with symbol r^alpha."""
    symbol.require_solver_range()
    _require_time(t)
    if t == 0:
        return u0
    acc = _SpectralSum()
    _add_multiplied(acc, u0, "heat", symbol.alpha, t, {})
    return acc.result(tol)


@record(frozen=True)
class ForcingGrid:
    """Forcing sampled at increasing time nodes starting at 0; between
    nodes the radial steps interpolate linearly coefficient-wise."""

    times: tuple[float, ...]
    steps: tuple[RadialStep, ...]

    def __post_init__(self):
        if len(self.times) != len(self.steps) or not self.times:
            raise ValueError("times and steps must align and be nonempty")
        if self.times[0] != 0.0:
            raise ValueError("forcing must start at time 0")
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    def at(self, tau: float) -> RadialStep:
        if tau < self.times[0] or tau > self.times[-1]:
            raise ValueError("requested time outside the forcing nodes")
        idx = bisect_right(self.times, tau) - 1
        if idx >= len(self.times) - 1:
            return self.steps[-1]
        if self.times[idx] == tau:
            return self.steps[idx]
        w = (tau - self.times[idx]) / (self.times[idx + 1] - self.times[idx])
        return self.steps[idx] * Fraction(1 - w) + self.steps[idx + 1] * Fraction(w)


def _weights(quadrature: str, m: int, t: float) -> list[float]:
    h = t / m
    if quadrature == "Trapezoid":
        w = [h] * (m + 1)
        w[0] = w[-1] = h / 2
        return w
    w = [h / 3 * (4 if i % 2 else 2) for i in range(m + 1)]
    w[0] = w[-1] = h / 3
    return w


def _duhamel(
    f: ForcingGrid, t: float, symbol: SymbolSpec, quadrature: str, m: int,
    powers: dict[int, float],
) -> tuple[_SpectralSum, _SpectralSum]:
    """Quadrature sums of the Duhamel integral with m (fine) and m/2
    (coarse) steps. A node tau < t adds the flow of f(tau) for time
    t - tau, which is diagonal on the frequency spheres, so each rule sums
    weighted sphere values by rank and is transformed back once. Coarse
    node j is fine node 2j -- t*(2j)/m equals t*j/(m/2) exactly in binary
    floating point -- so each node's flow is walked once and added once,
    unweighted, into the sum of its class: its (fine weight, coarse
    weight) pair, None off the coarse grid, of which there are at most
    four. Each rule is then the exact combination of the class sums with
    its weights, while the inner pieces take weight * c0 per node, in node
    order. A node at tau = t adds its weighted step to each rule. powers
    memoizes q^alpha by rank."""
    alpha = symbol.alpha
    # t * m / m can miss t by an ulp either way: the last node is t
    taus = [t * i / m for i in range(m)]
    taus.append(t)
    # the times grow with i, so every dt = t - tau that f.at admits is
    # nonnegative unless the largest one below t exceeds t
    if t < taus[-2] <= f.times[-1]:
        raise ValueError("time must be nonnegative")
    fine, coarse = _SpectralSum(), _SpectralSum()
    fine_w = _weights(quadrature, m, t)
    coarse_w = _weights(quadrature, m // 2, t)
    classes: dict[tuple[float, Optional[float]], _SpectralSum] = {}
    for i, (tau, w) in enumerate(zip(taus, fine_w)):
        cw = None if i % 2 else coarse_w[i // 2]
        g = f.at(tau)
        if tau == t:
            fine.step = fine.step + g * w
            if cw is not None:
                coarse.step = coarse.step + g * cw
            continue
        acc = classes.get((w, cw))
        if acc is None:
            acc = classes[w, cw] = _SpectralSum()
        scales = ((fine, w),) if cw is None else ((fine, w), (coarse, cw))
        _add_multiplied(acc, g, "heat", alpha, t - tau, powers, scales)
    for (w, cw), acc in classes.items():
        fine.add_weighted(acc, w)
        if cw is not None:
            coarse.add_weighted(acc, cw)
    return fine, coarse


def solve_nonhomogeneous(
    u0: RadialStep,
    f: ForcingGrid,
    t: float,
    symbol: SymbolSpec,
    quadrature: str = "Simpson",
    tol: float = 1e-10,
    steps: int = 64,
) -> EvaluableRadial:
    """Homogeneous flow of u0 plus the Duhamel integral of the forcing,
    by composite quadrature in the forcing time. error_bound carries the
    step-halving difference (undivided) plus the kernel tolerance. steps
    is rounded up to a multiple of 4 for Simpson and of 2 for
    Trapezoid."""
    symbol.require_solver_range()
    if quadrature not in ("Trapezoid", "Simpson"):
        raise ValueError("quadrature must be Trapezoid or Simpson")
    _require_time(t)
    if f.times[-1] < t:
        raise ValueError("forcing nodes do not cover [0, t]")
    if steps < 4:
        raise ValueError("need at least 4 quadrature steps")
    # the coarse step-halving pass halves the count; Simpson needs an even
    # count on both grids
    steps += -steps % (4 if quadrature == "Simpson" else 2)

    if t == 0:
        return EvaluableRadial(u0, (), tol, 0.0)
    powers: dict[int, float] = {}  # q^alpha by rank, for this solve
    fine, coarse = _duhamel(f, t, symbol, quadrature, steps, powers)
    # the whole fine - coarse difference, undivided (module docstring)
    est = _step_halving_gap(fine, coarse)
    # every coarse node is a fine node, so fine.pieces holds every shape;
    # its insertion order fixes the float summation order across processes
    for shape, scale in fine.pieces.items():
        gap = scale - coarse.pieces.get(shape, 0.0)
        est += InnerPiece(gap, *shape).l2_cap()

    if not u0.is_zero():
        _add_multiplied(fine, u0, "heat", symbol.alpha, t, powers)
    assembled = tuple(
        InnerPiece(s, *shape) for shape, s in fine.pieces.items() if s != 0.0
    )
    return EvaluableRadial(fine.total_step(), assembled, tol, est + tol)


# --------------------------------------------------------------------------
# real line factor and the product space


@record(frozen=True)
class RealGridFunction:
    """Samples on a uniform grid x0 + i*dx."""

    x0: float
    dx: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.dx > 0 or not self.values:
            raise ValueError("need a positive spacing and some samples")

    def __len__(self):
        return len(self.values)

    def xs(self) -> list[float]:
        return [self.x0 + i * self.dx for i in range(len(self.values))]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,value\n")
        for x, v in zip(self.xs(), self.values):
            buf.write(f"{x:.17g},{v:.17g}\n")
        return buf.getvalue()


def real_fractional_operator(
    grid: RealGridFunction, beta: float
) -> RealGridFunction:
    """Fourier multiplier |xi|^beta on the grid (periodic spectral rule;
    accurate for windows wide enough that the samples decay to ~0)."""
    import numpy as np

    v = np.asarray(grid.values, dtype=float)
    xi = np.fft.fftfreq(len(v), d=grid.dx)
    out = np.fft.ifft(np.fft.fft(v) * np.abs(xi) ** beta).real
    return RealGridFunction(grid.x0, grid.dx, tuple(float(x) for x in out))


def _convolve_samples(
    values: tuple[float, ...], kernel: list[float], dx: float
) -> list[float]:
    # kernel[k] = z(k*dx) for k >= 0, mirrored for k < 0; zero extension
    # of the data outside its window
    import numpy as np

    v = np.asarray(values, dtype=float)
    full = np.concatenate((np.asarray(kernel[:0:-1]), np.asarray(kernel)))
    n = len(v)
    out = np.convolve(v, full, mode="full")[n - 1: 2 * n - 1] * dx
    return [float(x) for x in out]


def _real_evolution(
    grid: RealGridFunction, params: KernelParams, tol: float
) -> RealGridFunction:
    n = len(grid.values)
    kernel = [z_real(k * grid.dx, params) for k in range(n)]
    # window adequacy: the kernel mass inside the sampled window must
    # account for ~all of the unit integral
    mass = grid.dx * (kernel[0] + 2.0 * math.fsum(kernel[1:]))
    window_leak = abs(1.0 - mass)
    fine = _convolve_samples(grid.values, kernel, grid.dx)
    coarse_vals = grid.values[::2]
    coarse_kernel = kernel[::2][: len(coarse_vals)]
    coarse = _convolve_samples(coarse_vals, coarse_kernel, 2 * grid.dx)
    disc = max(
        abs(a - b) for a, b in zip(fine[::2], coarse)
    ) / 3.0 if len(coarse) > 1 else 0.0
    peak = max(abs(v) for v in grid.values)
    est = window_leak * peak + disc
    if est > tol:
        raise ToleranceError(
            f"real grid too coarse or narrow: error estimate {est:.2e} "
            f"exceeds tol {tol:.2e}"
        )
    return RealGridFunction(grid.x0, grid.dx, tuple(fine))


def solve_adelic(
    u_real: RealGridFunction,
    u_fin: RadialStep,
    t: float,
    symbol: SymbolSpec,
    tol: float = 1e-8,
) -> tuple[RealGridFunction, RadialResult]:
    """Evolve factorized data on the product space: the real factor by
    grid convolution with the real kernel, the finite factor spectrally.
    The solution is the product of the two returned factors."""
    symbol.require_solver_range()
    if symbol.beta is None:
        raise ValueError("symbol.beta is required on the product space")
    _require_time(t)
    if t == 0:
        return u_real, u_fin
    params = KernelParams(t=t, alpha=symbol.alpha, beta=symbol.beta)
    real_part = _real_evolution(u_real, params, tol)
    fin_part = solve_homogeneous(u_fin, t, symbol, tol)
    return real_part, fin_part


def apply_adelic_operator(
    u_real: RealGridFunction,
    u_fin: RadialStep,
    symbol: SymbolSpec,
    radii: list[Fraction],
) -> dict[Fraction, tuple[float, ...]]:
    """Combined operator |xi|^beta + r^alpha applied to factorized data,
    computed through the frequency-sphere decomposition of the finite
    factor: for each frequency sphere the combined symbol adds a constant
    r^alpha to the real multiplier. Requires a Lizorkin-type finite factor
    (transform vanishing near zero). Returns grid values per finite
    radius."""
    if symbol.beta is None:
        raise ValueError("symbol.beta is required")
    uhat = u_fin.ft()
    if not uhat.has_zero_inner_value():
        raise ValueError("finite factor must have zero integral")
    d_beta = real_fractional_operator(u_real, symbol.beta)
    spheres = [(r, v) for r, v in uhat.sphere_values() if v != 0]
    out: dict[Fraction, tuple[float, ...]] = {}
    for s in radii:
        acc = [0.0] * len(u_real.values)
        for rho, v in spheres:
            w_s = float(v) * float(
                RadialStep.sphere_indicator(rho).ft().value(s)
            )
            if w_s == 0.0:
                continue
            lam = float(rho) ** symbol.alpha
            for i, (db, u) in enumerate(zip(d_beta.values, u_real.values)):
                acc[i] += w_s * (db + lam * u)
        out[s] = tuple(acc)
    return out
