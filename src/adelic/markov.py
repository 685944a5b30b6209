"""Jump-process simulation driven by the finite-adele heat semigroup.

The kernel is radial, so a time-dt increment factors into two draws: a
radius r with probability Z(r,dt) vol(S_r) (the sphere masses), then a
Haar-uniform point on S_r. Increments accumulate by ultrametric addition;
with a real exponent beta present, an independent real coordinate moves by
a matching stable increment (Gaussian for beta=2, Cauchy for beta=1).

Radii are drawn from a finite window [r_min, r_max] of prime powers; the
leftover tail mass is certified small and triggers a logged resample, so
the sampled law is biased by at most the tail mass per step. Stored points
are truncated (prime cutoff and digit depth); the radii sequence is the
authoritative statistical record of the path.
"""
from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Optional

from .adele import (
    AdelePoint,
    Region,
    add,
    distance,
    format_point,
    sample_uniform,
    sphere,
)
from .errors import IndeterminateCancellation, ToleranceError
from .heatkernel import (
    KernelParams,
    _ball_flow,
    _radius_rank,
    sphere_masses,
    tail_mass_bound,
)
from .primepow import _TABLE, RationalLike, as_fraction
from .util import derive_rng, record


@record(frozen=True)
class RadiusDistribution:
    """Increment-radius law on a prime-power window plus combined tail."""

    entries: tuple[tuple[Fraction, float], ...]
    tail_mass: float
    params: KernelParams

    def __post_init__(self):
        total = math.fsum(m for _, m in self.entries) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise ToleranceError(
                f"radius masses sum to {total!r}, not 1 within 1e-9"
            )
        if self.tail_mass < 0 or any(m < 0 for _, m in self.entries):
            raise ToleranceError("negative probability mass")

    @cached_property
    def _cumulative(self) -> tuple[float, ...]:
        return tuple(accumulate(m for _, m in self.entries))

    @cached_property
    def _spheres(self) -> list[Optional[Region]]:
        """The sphere about 0 of each radius, in the order of entries, made
        by sample_path on the radius's first draw (None until then)."""
        return [None] * len(self.entries)

    def sample(self, rng) -> Optional[Fraction]:
        """One radius draw; None signals a tail hit (caller resamples)."""
        u = rng.random()
        idx = bisect_right(self._cumulative, u)
        if idx >= len(self.entries):
            return None
        return self.entries[idx][0]


def radius_distribution(
    params: KernelParams,
    r_min: RationalLike,
    r_max: RationalLike,
) -> RadiusDistribution:
    params.require_positive_time()
    lo, hi = as_fraction(r_min), as_fraction(r_max)
    if lo > hi:
        raise ValueError("r_min must not exceed r_max")
    table = sphere_masses(params, lo, hi)
    if table.up_tail > tail_mass_bound(hi, params) * (1 + 1e-9) + 1e-15:
        raise ToleranceError("upper tail exceeds its certified bound")
    return RadiusDistribution(
        tuple(zip(table.radii, table.masses)),
        table.low_tail + table.up_tail,
        params,
    )


# Increment laws kept for sample_path, one per (step params, window). Paths
# of one ensemble share a single law; a law holds a few hundred radii.
_LAW_CACHE_SIZE = 16


@lru_cache(maxsize=_LAW_CACHE_SIZE)
def _increment_law(
    step_params: KernelParams, r_min: Fraction, r_max: Fraction
) -> RadiusDistribution:
    return radius_distribution(step_params, r_min, r_max)


# Largest digit depth of a stored component. Every increment draws a
# depth-digit unit per constrained prime and every sum works modulo p^depth,
# so the cost of a step grows with the depth; the default is 12.
_DEPTH_CAP = 1024


@record(frozen=True)
class Truncation:
    """Path truncation: radius window, stored-prime cutoff, digit depth."""

    r_min: Fraction = Fraction(1, 128)
    r_max: Fraction = Fraction(1024)
    prime_cutoff: int = 131
    depth: int = 12

    def validate(self):
        for r in (self.r_min, self.r_max):
            _TABLE.rank_of(as_fraction(r))
        if self.r_min >= 1 or self.r_max <= 1:
            raise ValueError("radius window must straddle 1")
        # dropping a zero-forced component would corrupt sphere norms,
        # so every prime constrained at the smallest radius must be kept
        if self.prime_cutoff < 1 / self.r_min:
            raise ValueError(
                "prime_cutoff must reach 1/r_min to preserve sphere norms"
            )
        if self.depth < 4:
            raise ValueError("depth < 4 leaves too little digit precision")
        if self.depth > _DEPTH_CAP:
            raise ValueError(
                f"depth {self.depth} exceeds the cap of {_DEPTH_CAP} digits "
                "per stored component"
            )


@record(frozen=True)
class PathSample:
    """One simulated path. radii[i] is the norm of the i-th increment,
    known exactly from the draw; points are truncated representations."""

    times: tuple[float, ...]
    points: tuple[AdelePoint, ...]
    radii: tuple[Fraction, ...]
    seed: int
    real_coords: Optional[tuple[float, ...]] = None
    tail_resamples: int = 0
    cancel_resamples: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["step", "time", "radius"]
        if self.real_coords is not None:
            header.append("real_coord")
        header.append("point")
        writer.writerow(header)
        for i, (tm, pt) in enumerate(zip(self.times, self.points)):
            row = [str(i), f"{tm:.10g}", str(self.radii[i - 1]) if i else ""]
            if self.real_coords is not None:
                row.append(f"{self.real_coords[i]:.17g}")
            row.append(format_point(pt))
            writer.writerow(row)
        return buf.getvalue()


def _real_increment(rng, dt: float, beta: float) -> float:
    # scales matched to the closed-form real kernels: beta=2 is Gaussian
    # with variance dt/(2 pi^2), beta=1 Cauchy with scale dt/(2 pi)
    if beta == 2.0:
        return rng.gauss(0.0, math.sqrt(dt) / (math.pi * math.sqrt(2.0)))
    if beta == 1.0:
        return dt / (2.0 * math.pi) * math.tan(math.pi * (rng.random() - 0.5))
    raise ValueError("real increments are sampled only for beta in {1, 2}")


def sample_path(
    params: KernelParams,
    n_steps: int,
    dt: float,
    trunc: Truncation = Truncation(),
    seed: int = 0,
    path_index: int = 0,
    start: Optional[AdelePoint] = None,
) -> PathSample:
    """Simulate one path of n_steps increments of duration dt each.

    Independent paths come from distinct path_index values under one master
    seed; the stream split is derive_rng(seed, "path", path_index). Tail
    hits and indeterminate cancellations are resampled and counted.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if not dt > 0:
        raise ValueError("dt must be positive")
    trunc.validate()
    step_params = KernelParams(dt, params.alpha, params.beta)
    dist = _increment_law(step_params, trunc.r_min, trunc.r_max)
    if dist.tail_mass > 1e-6:
        raise ToleranceError(
            f"truncation window leaks {dist.tail_mass:.2e} > 1e-6 of "
            "increment mass per step"
        )
    # dist.sample(rng), as the index of the drawn radius
    cumulative, spheres = dist._cumulative, dist._spheres
    rng = derive_rng(seed, "path", path_index)
    with_real = params.beta is not None
    if with_real and params.beta not in (1.0, 2.0):
        raise ValueError("real increments are sampled only for beta in {1, 2}")

    points = [start if start is not None else AdelePoint.zero()]
    times = [0.0]
    radii: list[Fraction] = []
    coords = [0.0] if with_real else None
    tails = cancels = 0
    for i in range(1, n_steps + 1):
        while True:
            idx = bisect_right(cumulative, rng.random())
            if idx >= len(spheres):
                tails += 1
                continue
            region = spheres[idx]
            if region is None:
                region = spheres[idx] = sphere(dist.entries[idx][0])
            inc = sample_uniform(
                region, depth=trunc.depth, rng=rng,
                prime_cutoff=trunc.prime_cutoff,
            )
            try:
                nxt = add(points[-1], inc)
            except IndeterminateCancellation:
                cancels += 1
                continue
            break
        points.append(nxt)
        radii.append(region.radius)
        times.append(i * dt)
        if with_real:
            coords.append(coords[-1] + _real_increment(rng, dt, params.beta))
    return PathSample(
        times=tuple(times),
        points=tuple(points),
        radii=tuple(radii),
        seed=seed,
        real_coords=tuple(coords) if with_real else None,
        tail_resamples=tails,
        cancel_resamples=cancels,
    )


def transition_prob_ball(
    params: KernelParams,
    x: AdelePoint,
    center: AdelePoint,
    eps: RationalLike,
) -> float:
    """P(t, x, B_eps(center)): probability the process started at x sits in
    the closed ball after time t, a function of ||x - center|| alone by
    space homogeneity (heatkernel._ball_flow). t = 0 gives the indicator."""
    return _transition_with_bound(params, x, center, eps)[0]


def _transition_with_bound(
    params: KernelParams,
    x: AdelePoint,
    center: AdelePoint,
    eps: RationalLike,
) -> tuple[float, float]:
    """(transition_prob_ball, bound): the bound _ball_flow returns, 0.0 for
    the exact indicator at t = 0."""
    k = _radius_rank(eps)
    d = distance(x, center)
    if params.t == 0:
        return (1.0 if d <= as_fraction(eps) else 0.0), 0.0
    return _ball_flow(k, d, params)


# the least expected count of a pooled bin in radius_law_chisquare
_MIN_EXPECTED = 5.0


def radius_law_chisquare(
    observed: dict[Optional[Fraction], int],
    dist: RadiusDistribution,
) -> tuple[float, float, int]:
    """Goodness-of-fit of observed radius counts (None key = tail/other)
    against the analytic law. Adjacent low-expectation radii are pooled
    until each bin expects _MIN_EXPECTED counts. Returns (stat, p, dof)."""
    from scipy.stats import chi2

    n = sum(observed.values())
    if n == 0:
        raise ValueError("no observations")
    bins: list[tuple[list[Optional[Fraction]], float]] = []
    cur_keys: list[Optional[Fraction]] = []
    cur_exp = 0.0
    for r, m in dist.entries:
        cur_keys.append(r)
        cur_exp += n * m
        if cur_exp >= _MIN_EXPECTED:
            bins.append((cur_keys, cur_exp))
            cur_keys, cur_exp = [], 0.0
    # leftovers and everything outside the window share the tail bin
    tail_exp = cur_exp + n * dist.tail_mass
    if bins and tail_exp < _MIN_EXPECTED:
        keys, exp = bins.pop()
        bins.append((keys + cur_keys + [None], exp + tail_exp))
    else:
        bins.append((cur_keys + [None], tail_exp))
    index = {}
    for i, (keys, _) in enumerate(bins):
        for k in keys:
            index[k] = i
    obs_counts = [0.0] * len(bins)
    for r, c in observed.items():
        obs_counts[index.get(r, index[None])] += c
    stat = math.fsum(
        (o - e) ** 2 / e for o, (_, e) in zip(obs_counts, bins)
    )
    dof = len(bins) - 1
    return stat, float(chi2.sf(stat, dof)), dof
