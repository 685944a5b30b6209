"""Reference values the benchmark computes without the library.

Prime powers come from trial division, phi from its definition as a
product over primes, and the finite-adele heat kernel from its defining
series summed in mpmath at 50 digits. None of this calls `adelic`.
"""
from __future__ import annotations

import math
from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def is_prime_power(n: int) -> bool:
    """n = p^k with p prime and k >= 1, by trial division."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            while n % f == 0:
                n //= f
            return n == 1
        f += 1
    return True


def next_prime_power(n: int) -> int:
    """Smallest integer prime power strictly greater than n."""
    m = n + 1
    while not is_prime_power(m):
        m += 1
    return m


def _int_prime_powers(limit: int) -> list[int]:
    return [m for m in range(2, limit + 1) if is_prime_power(m)]


def _bracket_log(p: int, x: Fraction) -> int:
    """[[log_p x]]: floor for x >= 1, floor + 1 below 1, by exact
    comparison of powers."""
    if x >= 1:
        a = 0
        while p ** (a + 1) <= x:
            a += 1
        return a
    j = 1
    while p ** j * x < 1:
        j += 1
    return 1 - j


def phi(x: Fraction) -> Fraction:
    """prod_p p^[[log_p x]] over the primes p <= max(x, 1/x)."""
    top = int(max(x, 1 / x))
    out = Fraction(1)
    for p in range(2, top + 1):
        if is_prime(p):
            out *= Fraction(p) ** _bracket_log(p, x)
    return out


class KernelSeries:
    """Z(r, t) = sum over prime powers q < 1/r of
    phi(q) (exp(-t q^alpha) - exp(-t next(q)^alpha)),
    with the ordered set of prime powers (and their reciprocals) listed
    up to `limit`; phi(1/m) < e^{-m/2} makes the omitted terms negligible
    far below 1e-30 for the default limit."""

    def __init__(self, limit: int = 200):
        ints = _int_prime_powers(limit)
        self.order = [Fraction(1, m) for m in reversed(ints)]
        self.order += [Fraction(m) for m in ints]
        self.phis = [phi(q) for q in self.order]

    def z(self, radius: Fraction, t: float, alpha: float) -> float:
        from mpmath import mp, mpf

        with mp.workdps(50):
            t_, a_ = mpf(t), mpf(alpha)

            def decay(q: Fraction):
                return mp.exp(-t_ * (mpf(q.numerator) / q.denominator) ** a_)

            total = mpf(0)
            bound = 1 / radius
            for i in range(len(self.order) - 1):
                q, up = self.order[i], self.order[i + 1]
                if q >= bound:
                    break
                ph = self.phis[i]
                total += mpf(ph.numerator) / ph.denominator * (
                    decay(q) - decay(up)
                )
            return float(total)


def simpson_error_bound(t: float, lam: float, steps: int) -> float:
    """A priori bound on the composite Simpson error of
    int_0^t e^{-lam (t - tau)} (cos tau + lam sin tau) d tau.

    The integrand is Re((1 - i lam) e^{-lam t} e^{(lam + i) tau}), so its
    fourth derivative is at most (1 + lam^2)^{5/2} e^{-lam (t - tau)};
    Simpson's Peano kernel is bounded by h^4 / 72, which gives
    |error| <= h^4 / 72 * (1 + lam^2)^{5/2} * min(t, 1 / lam).
    """
    h = t / steps
    return h ** 4 / 72 * (1 + lam * lam) ** 2.5 * min(t, 1 / lam)


def lcm_upto(n: int) -> int:
    return math.lcm(*range(1, n + 1))
