"""Exact radial step functions on the finite adeles and their Fourier
transforms.

A compactly supported radial step function is a finite linear combination
of closed-ball indicators with prime-power radii:

    f = sum_j c_j 1_{B(rho_j)},    f(x) = sum_{rho_j >= ||x||} c_j.

This basis is closed under the Fourier transform, which acts exactly:

    FT(1_{B(rho)}) = phi(rho) * 1_{B(prev_pp(1/rho))}.

Since phi(rho) * phi(prev_pp(1/rho)) = 1 and prev_pp(next_pp(rho)) = rho,
the transform is an exact involution on this space, Parseval holds as an
identity of rationals, and no numerical error enters until a function
leaves the step class (see ft_ball_eval for that case).

Coefficients are Fractions throughout; floats passed in are converted via
Fraction(float), which is lossless for binary floats.

Radii are Fractions at the API, but a step stores its coefficients by
primepow's rank index: the public constructor checks each radius once, the
transform maps rank k to -2-k with weight phi(k), ball volumes are phi(k),
and spheres between two radii are consecutive ranks.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from .primepow import _SIEVE_CAP, _TABLE, RationalLike, as_fraction

_NumberLike = (int, float, Fraction)


class RadialStep:
    """Finite combination of ball indicators; exact radial step function.

    Coefficients are held as {rank: nonzero Fraction} in ascending rank
    (that is, ascending radius) order; `coeffs` shows them by radius."""

    __slots__ = ("_by_rank",)

    def __init__(self, coeffs: Mapping[Fraction, RationalLike] | None = None):
        canon: dict[int, Fraction] = {}
        for r, c in (coeffs or {}).items():
            k = _TABLE.rank_of(as_fraction(r))  # radii must be prime powers
            c = Fraction(c)
            if c:
                canon[k] = canon.get(k, Fraction(0)) + c
        self._by_rank = _canonical(canon)

    @classmethod
    def _trusted(cls, by_rank: dict[int, Fraction]) -> "RadialStep":
        """Step over coefficients already canonical: nonzero Fractions
        keyed by rank, in ascending rank order."""
        step = object.__new__(cls)
        step._by_rank = by_rank
        return step

    @property
    def coeffs(self) -> dict[Fraction, Fraction]:
        """{radius: coefficient} in ascending radius order (a fresh dict)."""
        return {_TABLE.fraction_at(k): c for k, c in self._by_rank.items()}

    # ---- constructors

    @classmethod
    def zero(cls) -> "RadialStep":
        return cls({})

    @classmethod
    def ball_indicator(cls, radius: RationalLike) -> "RadialStep":
        return cls({as_fraction(radius): 1})

    @classmethod
    def sphere_indicator(cls, radius: RationalLike) -> "RadialStep":
        k = _TABLE.rank_of(as_fraction(radius))
        return cls._trusted({k - 1: Fraction(-1), k: Fraction(1)})

    @classmethod
    def from_sphere_values(
        cls,
        values: Mapping[Fraction, RationalLike],
        inner: RationalLike = 0,
    ) -> "RadialStep":
        """Step with given values on the listed spheres, `inner` on all
        smaller norms (including 0) and 0 beyond the largest radius. Radii
        must be consecutive prime powers."""
        if not values:
            raise ValueError("need at least one sphere value")
        radii = sorted(as_fraction(r) for r in values)
        vals = {as_fraction(r): Fraction(v) for r, v in values.items()}
        k0 = _TABLE.rank_floor(radii[0])
        for i, r in enumerate(radii):
            if _TABLE.fraction_at(k0 + i) != r:
                raise ValueError("radii must be consecutive prime powers")
        return cls._from_sphere_ranks(k0, [vals[r] for r in radii], inner)

    @classmethod
    def _from_sphere_ranks(
        cls, k0: int, values: list[Fraction], inner: RationalLike
    ) -> "RadialStep":
        """from_sphere_values for the values on the spheres of ranks k0,
        k0 + 1, ...: the coefficient at rank k is the drop in value from
        sphere k to sphere k + 1 (`inner` below k0, 0 above the last)."""
        w = [Fraction(inner), *values, 0]
        drops = {k0 - 1 + i: w[i] - w[i + 1] for i in range(len(w) - 1)}
        return cls._trusted({k: c for k, c in drops.items() if c})

    # ---- basic queries

    def is_zero(self) -> bool:
        return not self._by_rank

    def value(self, s: RationalLike) -> Fraction:
        """Value at any point of norm s (s = 0 gives the value at zero):
        the sum of the coefficients from the first rank whose radius is
        >= s. s is ranked only inside the coefficient envelope, so the
        table is never extended past it."""
        if not s:
            return self.value_at_zero()
        s = as_fraction(s)
        by_rank = self._by_rank
        if not by_rank or s <= _TABLE.fraction_at(next(iter(by_rank))):
            return self.value_at_zero()
        if s > _TABLE.fraction_at(next(reversed(by_rank))):
            return Fraction(0)
        k = _TABLE.rank_floor(s)
        if _TABLE.fraction_at(k) != s:
            k += 1
        return sum(
            (c for r, c in by_rank.items() if r >= k), Fraction(0)
        )

    def value_at_zero(self) -> Fraction:
        return sum(self._by_rank.values(), Fraction(0))

    def sphere_values(self) -> list[tuple[Fraction, Fraction]]:
        """(radius, value) on every sphere in the coefficient envelope."""
        k0, values = self._rank_values()
        return [(_TABLE.fraction_at(k), v) for k, v in enumerate(values, k0)]

    def _ft_sphere_pairs(
        self,
    ) -> tuple[tuple[int, int], Fraction | None, int,
               list[tuple[int, int]]]:
        """ft().split_inner() followed by the remainder's _rank_values(),
        from one walk up the ranks: (c0, rho, k0, values), c0 and each
        values[i] (the remainder's value on the sphere of rank k0 + i)
        being an integer pair (numerator, denominator > 0), not reduced.

        FT maps rank k to -2-k with weight phi(k), so the running sum of
        c_k phi(k) through rank k is the transform's value on the sphere
        of rank -2-k and on the gap spheres below it, down to the next
        coefficient's; the final sum is c0, and rho has rank -3 - max k.
        """
        by_rank = self._by_rank
        if not by_rank:
            return (0, 1), None, 0, []
        phi_pair, lcm = _TABLE.phi_pair_at, math.lcm
        num, den = 0, 1
        running: list[tuple[int, int]] = []
        last = next(iter(by_rank))
        for k, c in by_rank.items():
            if k - last > 1:
                running += [(num, den)] * (k - last - 1)
            a, b = phi_pair(k)
            n, d = c.as_integer_ratio()
            n, d = n * a, d * b
            lcd = lcm(den, d)
            num = num * (lcd // den) + n * (lcd // d)
            den = lcd
            running.append((num, den))
            last = k
        running.reverse()
        if not num:
            return (0, den), None, -2 - last, running
        # FT - c0 1_{B(rho)} is 0 on the sphere of rho and FT above it
        return ((num, den), _TABLE.fraction_at(-3 - last), -3 - last,
                [(0, 1), *running])

    def _rank_values(self) -> tuple[int, list[Fraction]]:
        """(k0, values): the value on the sphere of each rank k0, k0 + 1,
        ... through the largest rank, k0 being the smallest rank; (0, [])
        for the zero map."""
        by_rank = self._by_rank
        if not by_rank:
            return 0, []
        # walking down, the value on S_k sums the coefficients at ranks >= k
        out, value = [], Fraction(0)
        k0 = min(by_rank)
        for k in range(max(by_rank), k0 - 1, -1):
            if k in by_rank:
                value += by_rank[k]
            out.append(value)
        out.reverse()
        return k0, out

    def has_zero_inner_value(self) -> bool:
        """True when the function vanishes on a ball around 0."""
        return self.value_at_zero() == 0

    # ---- exact calculus

    def integral(self) -> Fraction:
        return sum(
            (c * _TABLE.phi_at(k) for k, c in self._by_rank.items()),
            Fraction(0),
        )

    def inner_product(self, other: "RadialStep") -> Fraction:
        """integral of f * g: sum c_i d_j phi(min(rho_i, rho_j))."""
        total = Fraction(0)
        for k1, c1 in self._by_rank.items():
            for k2, c2 in other._by_rank.items():
                total += c1 * c2 * _TABLE.phi_at(min(k1, k2))
        return total

    def l2_norm_sq(self) -> Fraction:
        """inner_product(self), one term per rank by symmetry:
        sum c_k phi(k) (c_k + 2 * the coefficients above rank k)."""
        total = above = Fraction(0)
        for k, c in reversed(self._by_rank.items()):
            total += c * _TABLE.phi_at(k) * (c + 2 * above)
            above += c
        return total

    def ft(self) -> "RadialStep":
        """Exact Fourier transform (an involution on radial steps)."""
        # rank k -> -2-k (prev_pp(1/r)) reverses the order of the radii
        return RadialStep._trusted({
            -2 - k: c * _TABLE.phi_at(k)
            for k, c in reversed(self._by_rank.items())
        })

    def apply_multiplier(
        self, multiplier: Callable[[Fraction], RationalLike]
    ) -> "RadialStep":
        """Multiply by a radial factor, sphere by sphere. Only valid when
        the function vanishes near 0: otherwise infinitely many spheres
        carry distinct values and the result is not a finite step."""
        if not self.has_zero_inner_value():
            raise ValueError(
                "multiplier would produce infinitely many sphere values; "
                "split off the inner ball first"
            )
        k0, values = self._rank_values()
        values = [
            Fraction(multiplier(_TABLE.fraction_at(k))) * v
            for k, v in enumerate(values, k0)
        ]
        return RadialStep._from_sphere_ranks(k0, values, 0)

    def split_inner(self) -> tuple[Fraction, Fraction | None, "RadialStep"]:
        """(c0, rho, remainder): f = c0 * 1_{B(rho)} + remainder, where the
        remainder vanishes near 0. rho is None when f is zero near 0."""
        c0 = self.value_at_zero()
        if c0 == 0:
            return Fraction(0), None, self
        k = min(self._by_rank) - 1  # prev_pp of the smallest radius
        rest = self - RadialStep._trusted({k: c0})
        return c0, _TABLE.fraction_at(k), rest

    # ---- algebra

    def _combined(self, other: "RadialStep", sign: int) -> "RadialStep":
        if not self._by_rank and sign == 1:
            return other
        merged = dict(self._by_rank)
        for k, c in other._by_rank.items():
            if sign != 1:
                c = -c
            prev = merged.get(k)
            merged[k] = c if prev is None else prev + c
        return RadialStep._trusted(_canonical(merged))

    def __add__(self, other):
        if not isinstance(other, RadialStep):
            return NotImplemented
        return self._combined(other, 1)

    def __sub__(self, other):
        if not isinstance(other, RadialStep):
            return NotImplemented
        return self._combined(other, -1)

    def __neg__(self):
        return RadialStep._trusted({k: -c for k, c in self._by_rank.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, _NumberLike):
            return NotImplemented
        s = Fraction(scalar)
        if not s:
            return RadialStep.zero()
        return RadialStep._trusted({k: c * s for k, c in self._by_rank.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RadialStep):
            return NotImplemented
        return self._by_rank == other._by_rank

    def __hash__(self):
        return hash(tuple(self._by_rank.items()))

    def __repr__(self):
        inside = ", ".join(f"{r}: {c}" for r, c in self.coeffs.items())
        return f"RadialStep({{{inside}}})"

    # ---- serialization

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        coeffs = {_radius_key(k): str(c) for k, c in self._by_rank.items()}
        return {"ball_coefficients": coeffs}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialStep":
        coeffs = isinstance(data, dict) and data.get("ball_coefficients")
        if not isinstance(coeffs, dict):
            raise ValueError(
                "expected a JSON object with a 'ball_coefficients' object"
            )
        try:
            parsed = {
                _radius_from_key(k): Fraction(v) for k, v in coeffs.items()
            }
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"bad ball coefficient: {exc}") from None
        return cls(parsed)

    @classmethod
    def from_json(cls, text: str) -> "RadialStep":
        import json

        return cls.from_dict(json.loads(text))


def _canonical(by_rank: dict[int, Fraction]) -> dict[int, Fraction]:
    return {k: c for k, c in sorted(by_rank.items()) if c}


def _radius_key(rank: int) -> str:
    p, k = _TABLE.base_exp_at(rank)
    return f"{p}^{k}"


def _radius_from_key(key: str) -> Fraction:
    """The radius p^k of a "p^k" key. p^|k| >= 2^(|k| (bits(p) - 1)), so
    a key past the table's cap is refused before the power is built."""
    p, k = (int(part) for part in key.split("^"))
    if p < 2:
        raise ValueError(f"radius {key}: {p} is not prime")
    if abs(k) * (p.bit_length() - 1) > _SIEVE_CAP.bit_length() - 1:
        raise ValueError(
            f"radius {key} lies past the prime-power table: sieve bounds "
            "are capped at 2^26"
        )
    return Fraction(p) ** k


# --------------------------------------------------------------------------
# numeric radial integration and transform evaluation


def integrate_radial(
    fn: Callable[[Fraction], RationalLike],
    lo: RationalLike,
    hi: RationalLike,
):
    """sum of fn(r) * vol(S_r) over prime powers r in (lo, hi]. Exact when
    fn returns Fractions/ints, compensated float summation otherwise."""
    terms = []
    exact = True
    k_lo = _TABLE.rank_floor(as_fraction(lo))
    k_hi = _TABLE.rank_floor(as_fraction(hi))
    for k in range(k_lo + 1, k_hi + 1):
        vol = _TABLE.phi_at(k) - _TABLE.phi_at(k - 1)
        val = fn(_TABLE.fraction_at(k))
        if isinstance(val, float):
            exact = False
        terms.append(val * vol)
    if exact:
        return sum(terms, Fraction(0))
    return math.fsum(float(t) for t in terms)


# ft_ball_eval gives up after this many series terms
_FT_MAX_TERMS = 100000


def ft_ball_eval(
    profile: Callable[[Fraction], float],
    rho: RationalLike,
    s: RationalLike,
    profile_at_zero: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Transform of profile(||xi||) * 1_{B(rho)}(xi) evaluated at norm s.

    Sums phi(q) * (f(q) - f(next q)) over prime powers q < 1/s descending
    until the truncation bound phi(q) * |profile(q) - profile_at_zero|
    drops below tol. The bound is certified for profiles monotone on
    (0, rho]. The ball B(rho) is the ball of the largest prime power
    <= rho, and the profile is read only at prime powers.
    Returns (value, remainder_bound).
    """
    k_rho = _TABLE.rank_floor(as_fraction(rho))
    s = as_fraction(s) if s else Fraction(0)
    # the largest q < 1/s is prev_pp(1/s), rank -2 - rank(s)
    k = min(k_rho, -2 - _TABLE.rank_floor(s)) if s > 0 else k_rho

    def f_at(rank: int) -> float:
        if rank > k_rho:
            return 0.0
        return float(profile(_TABLE.fraction_at(rank)))

    phi_float = _TABLE.phi_float_at
    terms = []
    f_up = f_at(k + 1)
    phi_q = phi_float(k)
    bound = math.inf
    for _ in range(_FT_MAX_TERMS):
        f_q = f_at(k)
        phi_prev = phi_float(k - 1)
        terms.append(phi_q * (f_q - f_up))
        # remainder below q telescopes: |sum| <= phi(prev q) |g(q) - g(0+)|
        bound = phi_prev * abs(f_q - profile_at_zero)
        if bound < tol:
            break
        f_up, phi_q = f_q, phi_prev
        k -= 1
    else:
        raise ValueError("transform evaluation did not reach tolerance")
    return math.fsum(terms), bound
