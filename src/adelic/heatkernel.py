"""Certified heat kernel evaluation on the finite adeles and the real line.

The finite-adele kernel with exponent alpha > 1 is radial:

    Z(r, t) = sum_{q prime power, q < 1/r} phi(q) (e^{-t q^alpha} - e^{-t (next q)^alpha})

(full sum at r = 0). All truncations carry certified remainder bounds:

  * small radii: the tail below rho telescopes to at most
    phi(prev rho) * (1 - e^{-t rho^alpha});
  * large radii (needed only at r = 0): phi(q) <= e^{1.04 q} (effective
    Chebyshev bound), so once t((n+1)^alpha - n^alpha) >= 2.08 the terms
    are dominated by a geometric series of ratio e^{-1.04}.

Sphere masses m(r) = Z(r,t) * vol(S_r) involve huge volumes against tiny
kernel values, so the mass engine works in logarithms throughout, stepping
the radius down one prime power at a time (which grows the defining sum by
exactly one term). Cumulative ball masses obey the exact identity

    sum_{r <= rho} m(r) = phi(rho) Z(rho, t) + e^{-t rho^{-alpha}},

obtained by swapping the two absolutely convergent sums and telescoping
with phi(rho) phi(prev_pp(1/rho)) = 1. The identity (validated against
slow high-precision sums) supplies both tails of the normalization
integral and the heat flows of balls P(t, x, B(r)) (_ball_flow).

Every series and sweep looks up the rank of its first prime power once
(primepow's rank index: successor is r + 1, 1/x is r -> -1-r) and then
steps integer ranks, reading values and log phi by rank from the table.

The kernel at one (t, alpha) is the fundamental solution, the transition
function and the heat flow of a ball at once, so one evaluation reads the
same series several times. Each summed series (its ln-sum and ln-terms)
is kept by (top rank, t, alpha, rel_tol), types included, in a bounded
lru_cache (_SERIES_CACHE_SIZE entries of at most _SERIES_TERMS_CAP
terms; a longer walk and a refusal are never kept). No result can
depend on what was kept: a series is a pure function of its key, since
the table's value, log p and log phi at a rank never change as it grows,
and a kept series holds the very floats a fresh walk returns. The sum of
q^-alpha in tail_mass_bound, which t only scales, is kept the same way by
(lo rank, hi rank, alpha). Only the table's growth and the time taken
depend on the call history.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ToleranceError
from .primepow import _SIEVE_CAP, _TABLE, RationalLike, as_fraction
from .util import clamp_nonnegative, record, require_finite, require_positive

_CHEB = 1.04  # effective bound: ln phi(x) <= 1.04 x for x >= 2
_LOG_GEO = -math.expm1(-_CHEB)  # 1 - e^{-1.04}
_RS_FLOOR = 2 ** 20  # theta(x) > x (1 - 1/(2 ln x)) is used for x >= this


@record(frozen=True)
class KernelParams:
    """Time/exponent bundle. t = 0 is admitted only as the degenerate
    identity element of the semigroup (transition probabilities become
    indicators); every kernel evaluation requires t > 0."""

    t: float
    alpha: float
    beta: Optional[float] = None

    def __post_init__(self):
        require_finite(t=self.t, alpha=self.alpha)
        if not self.t >= 0:
            raise ValueError("time must be nonnegative")
        if not self.alpha > 1:
            raise ValueError("finite-adele exponent must exceed 1")
        if self.beta is not None and not 0 < self.beta <= 2:
            raise ValueError("real exponent must lie in (0, 2]")

    def require_positive_time(self):
        if self.t == 0:
            raise ValueError("operation requires t > 0")


def _radius_rank(radius: RationalLike) -> int:
    """Rank of a prime-power radius. Radius 1 is also admitted, with rank
    -1 (that of 1/2): the ball of radius 1 (the integral points) is the
    ball of radius 1/2, and the series for both sums over q < 2."""
    r = as_fraction(radius)
    return -1 if r == 1 else _TABLE.rank_of(r)


def _check_peak(t: float, alpha: float):
    """Refuse parameters whose largest series term, under the e^{1.04 q}
    envelope, leaves the double range; checked before any table walk, since
    its position q* can lie far beyond any table worth sieving."""
    qstar = max(2.0, (_CHEB / (t * alpha)) ** (1.0 / (alpha - 1.0)))
    lmax = _CHEB * qstar - t * qstar ** alpha
    if lmax > 700.0:
        raise OverflowError(
            "kernel value exceeds the double range for these parameters "
            f"(peak term ~ e^{lmax:.0f}); t is too small for alpha={alpha}"
        )


def _start_rank(t: float, alpha: float) -> int:
    """Rank of the first prime power past the q where the slope
    t alpha q^(alpha-1) of the exponent reaches 2 * 1.04, or of 2 when
    that q is at most 2."""
    base = max(2.0, (2 * _CHEB / (t * alpha)) ** (1.0 / (alpha - 1.0)))
    return _TABLE.rank_floor(Fraction(base)) + 1 if base > 2 else 0


def _upper_start(t: float, alpha: float, tol: float, w: float) -> int:
    """Rank of an integer prime power M so the sum above M of q^w phi(q)
    e^{-t q^alpha} (w >= 0) is below tol: under the e^{1.04 q} envelope of
    phi, the ln-terms 1.04 q + w ln q - t q^alpha drop by at least 1.04
    per unit step past n = M + 1 once their slope there reaches 2 * 1.04,
    so a geometric series of ratio e^{-1.04} bounds the sum."""
    _check_peak(t, alpha)
    k = _start_rank(t, alpha)
    while True:
        n = _TABLE.float_at(k) + 1.0
        if t * alpha * n ** (alpha - 1.0) - w / n >= 2 * _CHEB:
            ln_tail = (
                _CHEB * n + w * math.log(n) - t * n ** alpha
                - math.log(_LOG_GEO)
            )
            if ln_tail < math.log(tol):
                return k
        k += 1


def _top_rank(radius, t: float, alpha: float, rel_tol: float) -> int:
    """Rank of the first (largest) series index: the largest prime power
    below 1/radius, or the certified upper start for the full sum at 0."""
    if radius:
        # prev_pp(1/r), with 1/x as r -> -1-r on ranks
        return -2 - _radius_rank(radius)
    return _upper_start(t, alpha, rel_tol * 0.25, 0.0)


def _check_reach(top: int, t: float, alpha: float, rel_tol: float):
    """Refuse a series from rank top whose truncation rule cannot stop
    at any rank the sieve cap lets the table hold, before walking down.

    Proof. Let C = 2^26. A rank k the walk can test has q_{k-1} = 1/n with
    n <= C, or q_{k-1} >= 1/2. The rule of _walk stops at k when
    rem_k < acc_k rel_tol / 2, with rem_k = phi(q_{k-1})(1 - e^{-t q_k^alpha})
    and acc_k the sum of the terms of ranks k..top. Bound both uniformly:

    * rem_k >= e^{-1.04 C - 1}: phi(1/n) = e^{-psi(n-1)} >= e^{-1.04 n}
      (the envelope of _check_peak) and phi grows, so phi(q_{k-1}) >=
      e^{-1.04 C}; q_k > 1/C, so 1 - e^{-t q_k^alpha} >= 1 - e^{-1} once
      t C^-alpha >= 1, which the refusal requires.
    * acc_k <= N e^{h}: there are N <= top + C + 2 ranks from the lowest
      the table holds to top, and each term is at most phi(q) e^{-t q^alpha}.
      For q >= 1/L (L = 2^20) that is at most e^{1.04 q_top - t L^-alpha}.
      For q = 1/n with L < n <= C, the Rosser-Schoenfeld (1962) bound
      theta(x) > x (1 - 1/(2 ln x)) for x >= 563, psi >= theta and
      n - 1 >= L give phi(1/n) < e^{-c (n - 1)}, c = 1 - 1/(2 ln L), so
      the term is at most e^{c - c n - t n^-alpha} <= e^{c - c x - t
      x^-alpha}, where x = min(C, (alpha t / c)^(1/(alpha+1))) minimizes
      c n + t n^-alpha over n <= C. h is the larger of the two exponents.

    When ln N + h + ln(rel_tol / 2) <= -1.04 C - 1, every rank the table
    can hold has rem_k >= acc_k rel_tol / 2, so none meets the rule: each
    refused series would have walked to the cap and raised there. At
    alpha = 2 this refuses from t = 5.42e22; by estimate (psi(x) ~ x) the
    walk reaches the cap from about t = 4.5e22."""
    cap = float(_SIEVE_CAP)
    if t * cap ** -alpha < 1.0:
        return
    c = 1.0 - 0.5 / math.log(_RS_FLOOR)
    x = min(cap, (alpha * t / c) ** (1.0 / (alpha + 1.0)))
    h = max(
        _CHEB * _TABLE.float_at(top) - t * float(_RS_FLOOR) ** -alpha,
        c - c * x - t * x ** -alpha,
    )
    ln_acc = math.log(top + _SIEVE_CAP + 2) + h
    if ln_acc + math.log(rel_tol * 0.5) <= -_CHEB * cap - 1.0:
        raise ValueError(
            f"t = {t:g} is too large for alpha = {alpha:g}: the kernel "
            "series reaches below radius 2^-26, the smallest the "
            "prime-power table holds"
        )


def _walk(top: int, t: float, alpha: float, rel_tol: float,
          terms: Optional[list] = None) -> float:
    """ln of the defining series summed down from rank top, truncated at
    relative accuracy rel_tol; appends each ln-term to terms when given.

    Term k is ln phi(q) + ln(e^{-t q^alpha} - e^{-t (next q)^alpha}) for q
    of rank k, the difference taken stably. The walk stops once the bound
    ln phi(prev q) + ln(1 - e^{-t q^alpha}) on the sum below rank k falls
    under the running sum times rel_tol / 2. Each rank's q^alpha is
    computed once: it is the next q's power of the rank below, and each
    row's log p is the table's."""
    _check_reach(top, t, alpha, rel_tol)
    log, log1p, exp, expm1 = math.log, math.log1p, math.exp, math.expm1
    ninf = -math.inf
    table = _TABLE
    table._index(top)
    table._index(top + 1)
    values, _, _, logphi, logp = table._snapshot
    ln_half_tol = math.log(rel_tol * 0.5)
    k = top
    i = k if k >= 0 else -1 - k
    lp = logphi[i] if k >= 0 else logp[i] - logphi[i]
    a = (float(values[i]) if k >= 0 else 1 / values[i]) ** alpha
    b = (float(values[k + 1]) if k >= -1 else 1 / values[-2 - k]) ** alpha
    acc = ninf
    while True:
        gap = -expm1(-t * (b - a))
        term = lp + (-t * a + log(gap)) if gap > 0.0 else ninf
        if terms is not None:
            terms.append(term)
        if acc == ninf:
            acc = term
        elif term != ninf:
            if acc >= term:
                acc += log1p(exp(term - acc))
            else:
                acc = term + log1p(exp(acc - term))
        gap = -expm1(-t * a)
        if gap <= 0.0:
            return acc
        k -= 1
        if k >= 0:
            i = k
            lp = logphi[i]
        else:
            i = -1 - k
            if i >= len(values):  # a walk down past the last row
                table._index(k)
                values, _, _, logphi, logp = table._snapshot
            lp = logp[i] - logphi[i]
        if lp + log(gap) < acc + ln_half_tol:
            return acc
        b = a
        a = (float(values[i]) if k >= 0 else 1 / values[i]) ** alpha


# The memo of summed series (module docstring): entries, and ln-terms of a
# kept walk at most.
_SERIES_CACHE_SIZE = 64
_SERIES_TERMS_CAP = 4096


class _LongWalk(Exception):
    """A walk of more than _SERIES_TERMS_CAP terms, which _series does not
    keep; carries its ln-sum and its ln-terms."""


@lru_cache(maxsize=_SERIES_CACHE_SIZE, typed=True)
def _series(top: int, t: float, alpha: float,
            rel_tol: float) -> tuple[float, tuple[float, ...]]:
    """(ln-sum, ln-terms) of _walk, for walks of at most _SERIES_TERMS_CAP
    terms; a longer walk raises _LongWalk, so neither it nor a refusal is
    kept."""
    terms: list[float] = []
    ln_z = _walk(top, t, alpha, rel_tol, terms)
    if len(terms) > _SERIES_TERMS_CAP:
        raise _LongWalk(ln_z, terms)
    return ln_z, tuple(terms)


def _ln_z(top: int, t: float, alpha: float, rel_tol: float) -> float:
    """ln of the series from rank top (_walk), through the memo. A top past
    rank _SERIES_TERMS_CAP starts a walk at least that long unless its
    first terms dominate, so it is walked without the memo, collecting no
    terms (a tail about 1/67108859 walks four million of them)."""
    if top > _SERIES_TERMS_CAP:
        return _walk(top, t, alpha, rel_tol)
    try:
        return _series(top, t, alpha, rel_tol)[0]
    except _LongWalk as walk:
        return walk.args[0]


def _ln_terms(top: int, t: float, alpha: float,
              rel_tol: float) -> Sequence[float]:
    """The descending ln-terms that _ln_z sums, through the memo."""
    try:
        return _series(top, t, alpha, rel_tol)[1]
    except _LongWalk as walk:
        return walk.args[1]


def ln_z_finite(radius: RationalLike, params: KernelParams,
                rel_tol: float = 1e-13) -> float:
    """ln Z(radius, t); usable even where Z itself over/underflows floats."""
    require_positive(rel_tol=rel_tol)
    params.require_positive_time()
    t, alpha = params.t, params.alpha
    top = _top_rank(radius, t, alpha, rel_tol)
    return _ln_z(top, t, alpha, rel_tol)


def z_finite(radius: RationalLike, params: KernelParams,
             tol: float = 1e-12) -> float:
    """Kernel value at any point of the given norm, within tol (relative
    for the dominant part, with the certified series remainders added on
    both ends). Always nonnegative: the series has positive terms."""
    require_positive(tol=tol)
    params.require_positive_time()
    t, alpha, rel_tol = params.t, params.alpha, min(tol, 1e-13)
    return _scaled_z(_top_rank(radius, t, alpha, rel_tol), t, alpha, rel_tol,
                     0.0)


def _scaled_z(top: int, t: float, alpha: float, rel_tol: float,
              ln_scale: float) -> float:
    """e^ln_scale times the series from rank top (_top_rank), summed as
    z_finite sums it: each ln-term is shifted by ln_scale before it is
    exponentiated, so a scale past the double range times a tiny kernel
    value stays finite."""
    terms = _ln_terms(top, t, alpha, rel_tol)
    if ln_scale:  # 0.0 + l is l, up to the sign of a zero, which exp drops
        terms = [ln_scale + l for l in terms]
    if max(terms) > 709.0:
        raise OverflowError(
            "kernel value exceeds the double range; use ln_z_finite"
        )
    return math.fsum(map(math.exp, terms))


# --------------------------------------------------------------------------
# sphere masses and the normalization integral


@record(frozen=True)
class SphereMasses:
    """Masses m(r) = Z(r,t) vol(S_r) on a window of prime-power radii,
    ascending from the radius of rank k_lo, with the two exact tail sums
    (identity above)."""

    k_lo: int
    masses: tuple[float, ...]
    low_tail: float   # sum over radii < radii[0]
    up_tail: float    # sum over radii > radii[-1]

    @property
    def radii(self) -> tuple[Fraction, ...]:
        k_lo = self.k_lo
        return tuple(
            map(_TABLE.fraction_at, range(k_lo, k_lo + len(self.masses)))
        )

    def total(self) -> float:
        return self.low_tail + math.fsum(self.masses) + self.up_tail


def sphere_masses(
    params: KernelParams,
    r_min: RationalLike,
    r_max: RationalLike,
    rel_tol: float = 1e-13,
) -> SphereMasses:
    require_positive(rel_tol=rel_tol)
    params.require_positive_time()
    t, alpha = params.t, params.alpha
    k_lo, k_hi = (_TABLE.rank_of(as_fraction(r)) for r in (r_min, r_max))
    if k_lo > k_hi:
        raise ValueError("empty radius window")
    ln_z_hi = _ln_z(-2 - k_hi, t, alpha, rel_tol)
    # descending sweep: stepping the radius down one prime power adds the
    # single series term q = 1/r (rank -1-k for r of rank k), since
    # prev_pp(1/prev_pp(r)) = 1/r. r and q share table row i, and the
    # next q is 1/prev_pp(r), whose power is the following step's q^alpha.
    # ln vol(S_r) = ln(phi(r) - phi(prev r)) = ln phi(r) + ln(1 - 1/p),
    # with log p and log phi read from the table's snapshot and
    # log1p(-1/p) computed for the window's rows only.
    log, log1p, exp, expm1 = math.log, math.log1p, math.exp, math.expm1
    _TABLE._index(max(k_hi, -k_lo))
    values, bases, _, logphi, logp = _TABLE._snapshot
    ninf = -math.inf
    ln_masses = []
    acc = ln_z_hi
    a = (1 / values[k_hi] if k_hi >= 0 else float(values[-1 - k_hi])) ** alpha
    for k in range(k_hi, k_lo - 1, -1):
        if k >= 0:
            lp_r = logphi[k]
            lp_q = logp[k] - lp_r
            ln_masses.append(lp_r + log1p(-1.0 / bases[k]) + acc)
            b = (1 / values[k - 1] if k else float(values[0])) ** alpha
        else:
            i = -1 - k
            lp_q = logphi[i]
            lp_r = logp[i] - lp_q
            ln_masses.append(lp_r + log1p(-1.0 / bases[i]) + acc)
            b = float(values[-k]) ** alpha
        gap = -expm1(-t * (b - a))
        if gap > 0.0:
            term = lp_q + (-t * a + log(gap))
            if acc == ninf:
                acc = term
            elif acc >= term:
                acc += log1p(exp(term - acc))
            else:
                acc = term + log1p(exp(acc - term))
        a = b
    ln_z_below = acc  # ln Z(prev_pp(lo), t)
    low_tail = math.exp(_TABLE.log_phi_at(k_lo - 1) + ln_z_below) + math.exp(
        -t * _TABLE.float_at(k_lo - 1) ** -alpha
    )
    up_tail = -math.expm1(-t * _TABLE.float_at(k_hi) ** -alpha) - math.exp(
        _TABLE.log_phi_at(k_hi) + ln_z_hi
    )
    up_tail = clamp_nonnegative(up_tail, scale=max(1.0, t))
    masses = tuple(map(math.exp, reversed(ln_masses)))
    return SphereMasses(k_lo, masses, low_tail, up_tail)


def _ball_identity(k: int, params: KernelParams, rel_tol: float,
                   ln_scale: float = 0.0) -> tuple[float, float]:
    """(e^ln_scale phi(r) Z(r, t), t q0^alpha) for the closed ball of
    radius r of rank k (see _radius_rank): the cumulative mass is phi(r)
    Z(r, t) plus e^{-t q0^alpha}, where q0 = 1/r (2 for r = 1), the first
    prime power >= 1/r, has rank -1 - k."""
    require_positive(rel_tol=rel_tol)
    params.require_positive_time()
    ln_z = _ln_z(-2 - k, params.t, params.alpha, rel_tol)
    inside = math.exp(ln_scale + _TABLE.log_phi_at(k) + ln_z)
    return inside, params.t * _TABLE.float_at(-1 - k) ** params.alpha


def ball_mass(radius: RationalLike, params: KernelParams,
              rel_tol: float = 1e-13) -> float:
    """Exact-identity cumulative mass: integral of Z over the closed ball."""
    inside, boundary = _ball_identity(_radius_rank(radius), params, rel_tol)
    return inside + math.exp(-boundary)


def _ball_flow(k: int, s: RationalLike, params: KernelParams,
               ln_scale: float = 0.0) -> tuple[float, float]:
    """(e^ln_scale P(t, x, B(r)), bound), ||x|| = s read as the largest prime
    power <= s, r of rank k, t > 0: phi(r) Z(s, t) outside the ball, its
    mass inside, ln-terms shifted by ln_scale. Series stop at relative
    1e-13/2; underflows (< 2^-1075 each, < 2^46 terms) sum below 2^-1022."""
    j = _TABLE.rank_floor(as_fraction(s)) if s else k
    if j > k:
        ln_scale += _TABLE.log_phi_at(k)
        # Z(r_j, t) sums from prev_pp(1/r_j), of rank -2 - j (_top_rank)
        value = _scaled_z(-2 - j, params.t, params.alpha, 1e-13, ln_scale)
    else:
        inside, boundary = _ball_identity(k, params, 1e-13, ln_scale)
        value = inside + math.exp(ln_scale - boundary)
    return value, 1e-13 * value + 2.0 ** -1022


def upper_tail_mass(radius: RationalLike, params: KernelParams,
                    rel_tol: float = 1e-13) -> float:
    """Mass outside the closed ball, via the same identity (stable form)."""
    inside, boundary = _ball_identity(_radius_rank(radius), params, rel_tol)
    value = -math.expm1(-boundary) - inside
    return clamp_nonnegative(value, scale=max(1.0, params.t))


_NORM_WINDOW = (Fraction(1, 64), Fraction(1024))


def normalization(params: KernelParams, tol: float = 1e-6) -> float:
    """Windowed sphere-mass sum plus the two exact tails; the kernel
    integrates to 1, so the return value checks the whole numeric pipeline
    (window sums and identity tails come from independent evaluations)."""
    require_positive(tol=tol)
    table = sphere_masses(params, *_NORM_WINDOW, rel_tol=min(tol, 1e-10))
    total = table.total()
    if not math.isfinite(total):
        raise ToleranceError("normalization sum did not converge")
    return total


def moment_integral(params: KernelParams, beta_weight: float,
                    tol: float = 1e-10) -> float:
    """integral of ||y||^w e^{-t ||y||^alpha} over the finite adeles,
    as a certified sphere sum (w = beta_weight >= 0)."""
    require_positive(tol=tol)
    params.require_positive_time()
    if beta_weight < 0:
        raise ValueError("weight must be nonnegative")
    t, alpha, w = params.t, params.alpha, float(beta_weight)
    k = _upper_start(t, alpha, tol * 0.5, w)
    terms = []
    while True:
        q = _TABLE.float_at(k)
        lt = (
            _TABLE.log_phi_at(k) + math.log1p(-1.0 / _TABLE.base_at(k))
            + (w * math.log(q) if w else 0.0) - t * q ** alpha
        )
        if lt > 709.0:
            raise OverflowError("moment integral exceeds the double range")
        terms.append(math.exp(lt))
        # remaining lower radii: integrand <= down^w there, volumes
        # telescope to phi(down)
        k -= 1
        down = _TABLE.float_at(k)
        ln_rem = (w * math.log(down) if w else 0.0) + _TABLE.log_phi_at(k)
        if ln_rem < math.log(tol * 0.5):
            break
    return math.fsum(terms)


def tail_mass_bound(epsilon: RationalLike, params: KernelParams) -> float:
    """Certified upper bound min(2t * sum_{prime powers q > eps}
    q^{-alpha}, 1) for the kernel mass outside the closed ball of radius
    eps: a mass is at most 1. The prime power sum is taken exactly to a
    cutoff and majorized beyond it by the integer integral test."""
    lo = _radius_rank(epsilon)
    eps = as_fraction(epsilon)
    t, alpha = params.t, params.alpha
    cutoff = max(Fraction(64), 4 * (eps if eps >= 1 else Fraction(1)))
    hi = _TABLE.rank_floor(cutoff)
    integral_tail = float(cutoff) ** (1.0 - alpha) / (alpha - 1.0)
    return min(2.0 * t * (_inverse_power_sum(lo, hi, alpha) + integral_tail),
               1.0)


@lru_cache(maxsize=_SERIES_CACHE_SIZE, typed=True)
def _inverse_power_sum(lo: int, hi: int, alpha: float) -> float:
    """fsum of q^-alpha over the prime powers q of ranks lo + 1 to hi, a
    pure function of its key (module docstring). float_at by rank, read
    from one snapshot: the caller has ranked lo and hi, and so sieved the
    rows of every rank between."""
    values = _TABLE._snapshot[0]
    return math.fsum(
        (float(values[k]) if k >= 0 else 1 / values[-1 - k]) ** -alpha
        for k in range(lo + 1, hi + 1)
    )


# --------------------------------------------------------------------------
# real line and product kernels


def z_real(x: float, params: KernelParams, tol: float = 1e-10) -> float:
    """Real stable kernel under the character e^{2 pi i x xi}:
    the inverse transform of e^{-t |xi|^beta}. Closed forms for beta in
    {1, 2}; adaptive cosine quadrature otherwise (reduced precision)."""
    return _z_real_and_error(x, params, tol)[0]


def _z_real_and_error(
    x: float, params: KernelParams, tol: float
) -> tuple[float, float]:
    """(z_real, quad_err): quad_err is the quadrature's own error estimate
    of the half-line integral, so the value is within 2 * quad_err; it is
    0.0 for the closed forms and at x = 0."""
    require_positive(tol=tol)
    params.require_positive_time()
    if params.beta is None:
        raise ValueError("params.beta is required for the real kernel")
    t, beta = params.t, params.beta
    x = float(x)
    if beta == 2.0:
        return math.sqrt(math.pi / t) * math.exp(
            -math.pi ** 2 * x * x / t
        ), 0.0
    if beta == 1.0:
        return 2.0 * t / (t * t + 4.0 * math.pi ** 2 * x * x), 0.0
    if x == 0.0:
        return 2.0 * math.gamma(1.0 + 1.0 / beta) / t ** (1.0 / beta), 0.0
    from scipy.integrate import quad

    val, err = quad(
        lambda xi: math.exp(-t * xi ** beta),
        0.0,
        math.inf,
        weight="cos",
        wvar=2.0 * math.pi * x,
        limit=400,
    )
    if err > max(tol, 1e-6) * max(1.0, abs(val)):
        raise ToleranceError(
            f"oscillatory quadrature error {err:.2e} above tolerance"
        )
    return clamp_nonnegative(2.0 * val, scale=1.0 + abs(2.0 * val)), err


def z_adelic(
    x_real: float,
    x_fin_radius: RationalLike,
    params: KernelParams,
    tol: float = 1e-10,
) -> float:
    """Product kernel on R x A_f: z_real(x_real) * z_finite(radius)."""
    return z_real(x_real, params, tol) * z_finite(x_fin_radius, params, tol)
