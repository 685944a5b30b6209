"""Exact arithmetic on the ordered set of nonzero prime powers.

The values p^k (p prime, k a nonzero integer) form a discrete totally
ordered subset of the positive rationals,

    ... 1/9, 1/8, 1/7, 1/5, 1/4, 1/3, 1/2, 2, 3, 4, 5, 7, 8, 9, 11, ...

1 = p^0 is excluded, so the gap (1/2, 2) contains no elements and the set
is closed under x -> 1/x. next_pp / prev_pp are the successor and
predecessor in this order; they satisfy the duality
(next_pp(n))^-1 = prev_pp(n^-1).

Every table query goes through one integer index, the rank: 2 -> 0,
3 -> 1, 4 -> 2, ..., 1/2 -> -1, 1/3 -> -2, .... Successor and predecessor
are r +/- 1 and x -> 1/x is r -> -1-r. next_pp and prev_pp need no rank:
past the table they test the integers next to the query in turn.

The table does each rank's work once and keeps it within fixed bounds:
the Fraction value and phi of every rank whose row value is at most 2^14
(two memos of at most 2 * 1,961 entries), the exact phi of those rows, a
checkpoint of exact phi every 256 rows up to the 2^18-bit cap (about 1 MB
in all). Each sieve's snapshot holds, beside the rows' values, bases and
exponents, two float arrays built with it from one log pass over the
bases: log phi and log p of every row. An exact phi past the cap is
refused before it is built, and phi(x) refuses such an x before the table
is sieved to it.

phi is the multiplicative bracket product

    phi(x) = prod_p p^[[log_p x]],    [[t]] = floor(t) shifted by +1 for t < 0,

an exact positive rational for every positive rational x. phi is piecewise
constant and right-continuous with jumps exactly at prime powers, phi == 1
on [1/2, 2), and log(phi(x)) equals the second Chebyshev function psi(x)
for x >= 2. Key identities used throughout the package (and re-verified in
tests):

    phi(prev_pp(p^k)) = phi(p^k) / p
    phi(p^-j) = p / phi(p^j)
    phi(x) <= exp(1.04 * x)          (effective Chebyshev bound, x > 0)

All comparisons are exact big-integer arithmetic; floats never decide
membership or order.
"""
from __future__ import annotations

import bisect
import math
import threading
from array import array
from fractions import Fraction
from itertools import accumulate, compress, count
from typing import Iterable, Union

from .util import record

RationalLike = Union["PrimePower", Fraction, int, float]

# Exact cumulative phi values are cached only up to this table value bound
# (values <= _EXACT_CACHE_LIMIT), and so are the table's per-rank memos of
# Fraction values and of phi; larger exact queries start from a checkpoint.
_EXACT_CACHE_LIMIT = 1 << 14

# Past the cache, an exact phi is the product of the bases of rows 0..i
# below _PHI_STRIDE * c, kept as checkpoint c up to the bit cap (about
# 1 MB in all), times at most _PHI_STRIDE - 1 more bases.
_PHI_STRIDE = 256

# An exact phi holding more bits than this (log phi / ln 2; phi(100000)
# holds about 144,000) is refused with ValueError before its product is
# walked. The refusal band starts near 181,000 and reaches every radius
# past it and below its reciprocal: the phi command, Haar volumes and
# radial steps (transforms, integrals) there, and a power InnerPiece's
# value at norms whose reciprocal lies past it (heat pieces read log phi).
_PHI_BITS_CAP = 1 << 18

# The table is never sieved past this bound (building it peaks near 0.4 GB);
# z_finite(0, t=1, alpha=1.04) needs exactly this much. Beyond: ValueError.
_SIEVE_CAP = 1 << 26

# Miller-Rabin on the first 13 primes is exact below the least strong
# pseudoprime to all of them (Sorenson-Webster, arXiv:1509.00864); the
# first 12 alone pass 318665857834031151167461 = 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record(frozen=True)
class PrimePower:
    """p^k with p prime and k a nonzero integer; ordered by value."""

    p: int
    k: int

    def __post_init__(self):
        if self.k == 0:
            raise ValueError("exponent 0 is excluded (1 is not a prime power)")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def value(self) -> Fraction:
        if self.k > 0:
            return Fraction(self.p ** self.k)
        return Fraction(1, self.p ** (-self.k))

    @classmethod
    def _trusted(cls, p: int, k: int) -> "PrimePower":
        """p^k without the primality test, for a base already known prime."""
        pk = object.__new__(cls)
        object.__setattr__(pk, "p", p)
        object.__setattr__(pk, "k", k)
        return pk

    def reciprocal(self) -> "PrimePower":
        return PrimePower._trusted(self.p, -self.k)

    @classmethod
    def from_value(cls, x: RationalLike) -> "PrimePower":
        frac = as_fraction(x)
        pk = _as_prime_power(frac)
        if pk is None:
            raise ValueError(f"{x} is not a nonzero prime power")
        return cls(*pk)

    def __float__(self) -> float:
        return float(self.value)

    def _cmp_value(self, other) -> Fraction:
        if isinstance(other, PrimePower):
            return other.value
        return as_fraction(other)

    def __eq__(self, other):
        if isinstance(other, PrimePower):
            return (self.p, self.k) == (other.p, other.k)
        if isinstance(other, (int, Fraction, float)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        return self.value < self._cmp_value(other)

    def __le__(self, other):
        return self.value <= self._cmp_value(other)

    def __gt__(self, other):
        return self.value > self._cmp_value(other)

    def __ge__(self, other):
        return self.value >= self._cmp_value(other)

    def __repr__(self):
        return f"PrimePower({self.p}, {self.k})"

    def __str__(self):
        return f"{self.p}^{self.k}" if self.k != 1 else str(self.p)


def as_fraction(x: RationalLike) -> Fraction:
    """Exact positive rational from any accepted radius-like input."""
    if type(x) is Fraction and x.numerator > 0:
        return x
    if isinstance(x, PrimePower):
        return x.value
    frac = Fraction(x)  # Fraction(float) is the exact binary value
    if frac <= 0:
        raise ValueError(f"expected a positive rational, got {x}")
    return frac


def _as_prime_power(x: Fraction) -> tuple[int, int] | None:
    """(p, k) if x = p^k with k != 0, else None. Exact: table lookup up to
    the table's last value, else an integer-root test."""
    if x >= 1:
        n = x.numerator
        if x.denominator != 1 or n < 2:
            return None
    else:
        if x.numerator != 1:
            return None
        n = x.denominator
    values, bases, exps, _, _ = _TABLE._snapshot
    if n > values[-1]:
        pk = _root_prime_power(n)
    else:
        i = bisect.bisect_left(values, n)
        pk = (bases[i], exps[i]) if values[i] == n else None
    if pk is None or x >= 1:
        return pk
    return pk[0], -pk[1]


def _root_prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) with p^a = n, p prime, a >= 1; None if n is no prime power.

    First divides by the witness primes: when one of them, q, divides n,
    n is a prime power exactly when stripping q leaves 1. Otherwise every
    prime factor of n passes 41, so n = r^b needs 43^b <= n. Only prime
    b are tried, smallest first: an exact root replaces n and multiplies
    the exponent, and the same b is tried again on it (a smaller prime
    would have divided n's exponent too). What is left is no perfect
    power, so n is a prime power exactly when it is prime. A composite
    verdict of is_prime is always right; a prime verdict at or above
    _MR_EXACT_BELOW would be a guess, so that raises ValueError.
    """
    if n < 2:
        return None
    for q in _MR_WITNESSES:
        if n % q == 0:
            a = 0
            while n % q == 0:
                n //= q
                a += 1
            return (q, a) if n == 1 else None
    a, b, given = 1, 2, n
    while 43 ** b <= n:
        r = _iroot(n, b)
        if r ** b == n:
            n, a = r, a * b
        else:
            b += 1
            while not is_prime(b):
                b += 1
    if not is_prime(n):
        return None
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot decide whether {given} is a prime power: primality "
            f"is exact only below {_MR_EXACT_BELOW}"
        )
    return n, a


def _iroot(n: int, a: int) -> int:
    """floor(n^(1/a)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // a)
    while True:
        s = ((a - 1) * r + n // r ** (a - 1)) // a
        if s >= r:
            return r
        r = s


def double_bracket(t) -> int:
    """[[t]]: floor(t) for t >= 0, floor(t) + 1 for t < 0.

    Integer-valued on the whole line; [[t]] = 0 exactly on (-1, 1).
    """
    if isinstance(t, float):
        t = Fraction(t)
    f = math.floor(t)
    return f if t >= 0 else f + 1


def bracket_log(p: int, x: RationalLike) -> int:
    """[[log_p x]] by exact comparison (no floating logs).

    This is the ball exponent alpha_p(x): the p-component of the ball of
    radius x is p^(-alpha_p(x)) Z_p.
    """
    frac = as_fraction(x)
    if frac >= 1:
        # floor(log_p x): largest a >= 0 with p^a <= x
        a = 0
        pw = p
        while pw <= frac:
            pw *= p
            a += 1
        return a
    # x < 1: [[log_p x]] = floor(log_p x) + 1 = 1 - min{j >= 1 : p^-j <= x}
    j = 1
    pw = p
    while pw * frac < 1:  # p^-j > x  <=>  1 > x p^j
        pw *= p
        j += 1
    return 1 - j


def _prime_powers_upto(n: int) -> tuple[tuple, tuple, tuple]:
    """(values, bases, exps) of every integer prime power in [2, n]
    (n >= 2), ascending by value.

    The sieve covers the odd numbers only (odd[j] stands for 3 + 2j).
    Each odd prime p <= sqrt(n), from the same sieve to sqrt(n), strikes
    its odd multiples from p^2 on, so p itself survives. Only those
    primes have a power p^k with k >= 2 in range; those few powers are
    merged into the prime list and their rows found by bisection.
    """
    root = math.isqrt(n)
    values, _, exps = _prime_powers_upto(root) if root >= 2 else ((), (), ())
    roots = [v for v, k in zip(values, exps) if k == 1]
    size = (n - 1) // 2  # the odd numbers 3, 5, ... up to n
    odd = bytearray([1]) * size
    for p in roots[1:]:  # roots[0] is 2
        start = (p * p - 3) >> 1
        odd[start::p] = bytes((size - 1 - start) // p + 1)
    found = [2, *compress(range(3, n + 1, 2), odd)]
    higher = []
    for k in range(2, n.bit_length()):
        # the primes p with p^k <= n
        b = bisect.bisect_right(roots, _iroot(n, k))
        higher.extend((p ** k, p, k) for p in roots[:b])
    higher.sort()
    values = found + [q for q, _, _ in higher]
    values.sort()  # two sorted runs: one linear merge
    bases = values.copy()
    exps = [1] * len(values)
    for j, (q, p, k) in enumerate(higher):
        # q's row: the primes below q plus the j higher powers below q
        i = bisect.bisect_left(found, q) + j
        bases[i] = p
        exps[i] = k
    return tuple(values), tuple(bases), tuple(exps)


def _first_prime_power(candidates: Iterable[int]) -> tuple[int, int]:
    """(p, k) of the first candidate n = p^k that _root_prime_power
    accepts; the candidates run on until one is. A candidate at or past
    _MR_EXACT_BELOW is refused with ValueError before any root test: no
    primality verdict there is exact."""
    for n in candidates:
        if n >= _MR_EXACT_BELOW:
            raise ValueError(
                "prime-power order queries reach only values below "
                f"{_MR_EXACT_BELOW}, where primality is exact"
            )
        pk = _root_prime_power(n)
        if pk is not None:
            return pk


def _refuse_past_sieve_cap(limit: int) -> None:
    """Refuse a sieve bound past _SIEVE_CAP, before anything is allocated."""
    if limit > _SIEVE_CAP:
        raise ValueError(
            f"prime-power table cannot be sieved to {limit}: sieve "
            f"bounds are capped at 2^26 = {_SIEVE_CAP}"
        )


class _PowerTable:
    """Sorted integer prime powers >= 2 with cumulative log-phi, indexed by
    rank.

    Rank i >= 0 is the i-th integer prime power and rank -1-i its
    reciprocal: 2 -> 0, 3 -> 1, 1/2 -> -1, 1/3 -> -2, so x -> 1/x is
    r -> -1-r and successor/predecessor are r +/- 1. Re-sieving to a larger
    bound only appends, so a rank never changes meaning.

    Lazily extended by re-sieving to at least a doubled bound; extension is
    serialized by a lock while readers work on immutable snapshots, so
    concurrent reads during extension are safe. rank_floor extends the
    table only to its argument; a row past the table (such as the
    successor of its last value) is sieved when _index first reads it.
    Sieve bounds are capped at _SIEVE_CAP; a larger request raises
    ValueError before allocating.

    above/below need no rank: past the table they scan the integers next
    to the query with _root_prime_power, so they neither sieve nor extend
    the table and answer up to _MR_EXACT_BELOW.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._exact_lock = threading.Lock()
        # values, bases, exps, logphi, logp
        self._snapshot: tuple = ((), (), (), (), ())
        self._limit = 1
        self._exact: list[int] = []  # cumulative exact phi, prefix of values
        self._checkpoints: list[int] = [1]  # phi below rows 0, 256, 512, ...
        self._fractions: dict[int, Fraction] = {}  # fraction_at by rank
        self._phis: dict[int, Fraction] = {}  # phi_at by rank
        self.extend_to(512)

    def extend_to(self, limit: int) -> tuple:
        limit = max(limit, 2)
        if self._limit >= limit:
            return self._snapshot
        _refuse_past_sieve_cap(limit)
        with self._lock:
            if self._limit >= limit:
                return self._snapshot
            new_limit = min(max(limit, 2 * self._limit), _SIEVE_CAP)
            values, bases, exps = _prime_powers_upto(new_limit)
            logp = array("d", map(math.log, bases))
            logphi = array("d", accumulate(logp))
            self._snapshot = (values, bases, exps, logphi, logp)
            self._limit = new_limit
            return self._snapshot

    def above(self, m: int) -> tuple[int, int]:
        """(p, k) of the least integer prime power > m: past the table the
        first of m + 1, m + 2, ... that _root_prime_power accepts."""
        values, bases, exps, _, _ = self._snapshot
        if m < values[-1]:
            i = bisect.bisect_right(values, m)
            return bases[i], exps[i]
        return _first_prime_power(count(m + 1))

    def below(self, c: int) -> tuple[int, int]:
        """(p, k) of the greatest integer prime power < c, for c >= 3:
        past the table (so c > 512) the first of c - 1, c - 2, ... that
        _root_prime_power accepts."""
        if c - 1 <= self._limit:
            values, bases, exps, _, _ = self._snapshot
            i = bisect.bisect_left(values, c) - 1
            return bases[i], exps[i]
        return _first_prime_power(count(c - 1, -1))

    def rank_floor(self, x: Fraction) -> int:
        """Rank of the largest prime power <= x (-1 on [1/2, 2)). The table
        is extended to floor(x) or ceil(1/x) only, so the rank's own row
        or the next one may lie past it; _index sieves those on demand."""
        n, d = x.numerator, x.denominator
        if n >= 2 * d:
            # an integer prime power is <= x iff it is <= floor(x)
            m = n // d
            return bisect.bisect_right(self.extend_to(m)[0], m) - 1
        if 2 * n >= d:
            return -1
        # the largest prime power <= x is 1/m for the smallest integer
        # prime power m >= 1/x, that is m >= ceil(1/x): every row below
        # it holds a value < m, so it is the table's count of those
        m = -(-d // n)
        return -1 - bisect.bisect_left(self.extend_to(m)[0], m)

    def rank_of(self, x: Fraction) -> int:
        """Rank of x if x is a prime power, else ValueError: x is one iff
        it is the value of its own rank_floor."""
        rank = self.rank_floor(x)
        i = self._index(rank)
        m = self._snapshot[0][i]
        if (x.numerator, x.denominator) != ((m, 1) if rank >= 0 else (1, m)):
            raise ValueError(f"{x} is not a prime power")
        return rank

    def _index(self, rank: int) -> int:
        """Table index of a rank (rank i >= 0 and its reciprocal -1-i both
        read row i); extends the table until that row exists, since a walk
        down through the reciprocals reads ever larger rows. Read the
        snapshot only after this returns: an extension replaces it."""
        i = rank if rank >= 0 else -1 - rank
        while i >= len(self._snapshot[0]):
            self.extend_to(self._limit + 1)
        return i

    def at(self, rank: int) -> PrimePower:
        """The prime power of the given rank."""
        return PrimePower._trusted(*self.base_exp_at(rank))

    def base_exp_at(self, rank: int) -> tuple[int, int]:
        """(p, k) of the rank's value p^k, k < 0 for the reciprocals."""
        i = self._index(rank)
        _, bases, exps, _, _ = self._snapshot
        return bases[i], exps[i] if rank >= 0 else -exps[i]

    def fraction_at(self, rank: int) -> Fraction:
        """The exact value of the given rank, memoized for values and
        reciprocals of values up to _EXACT_CACHE_LIMIT."""
        frac = self._fractions.get(rank)
        if frac is None:
            i = self._index(rank)
            m = self._snapshot[0][i]
            frac = Fraction(m) if rank >= 0 else Fraction(1, m)
            if m <= _EXACT_CACHE_LIMIT:
                self._fractions[rank] = frac
        return frac

    def float_at(self, rank: int) -> float:
        """float of the value of the given rank; 1 / m is int true division,
        bit-equal to float(Fraction(1, m))."""
        i = self._index(rank)
        m = self._snapshot[0][i]
        return float(m) if rank >= 0 else 1 / m

    def base_at(self, rank: int) -> int:
        """The prime p of the rank's value p^k."""
        i = self._index(rank)
        return self._snapshot[1][i]

    def phi_at(self, rank: int) -> Fraction:
        """phi of the value of the given rank, exactly: the product of the
        bases of ranks 0..i for rank i >= 0, and base(m)/phi(m) for the
        reciprocal of m. Memoized as fraction_at is."""
        frac = self._phis.get(rank)
        if frac is None:
            frac = Fraction(*self.phi_pair_at(rank))
            if self._snapshot[0][self._index(rank)] <= _EXACT_CACHE_LIMIT:
                self._phis[rank] = frac
        return frac

    def phi_pair_at(self, rank: int) -> tuple[int, int]:
        """phi_at as an integer pair (numerator, denominator), not reduced:
        (phi(m), 1) for rank i >= 0 and (base(m), phi(m)) for the
        reciprocal of m."""
        i = rank if rank >= 0 else -1 - rank
        exact = self._exact
        # a row of the exact cache is a row of the snapshot
        phi = exact[i] if i < len(exact) else self._exact_phi(self._index(rank))
        if rank >= 0:
            return phi, 1
        return self._snapshot[1][i], phi

    def phi_float_at(self, rank: int) -> float:
        """float(phi_at(rank)): the integer quotient of phi_pair_at, which
        int true division rounds correctly, as Fraction.__float__ does."""
        num, den = self.phi_pair_at(rank)
        return num / den

    def log_phi_at(self, rank: int) -> float:
        """log phi of the value of the given rank (log(base) - log phi(m)
        for the reciprocal of m; rank -1 gives exactly 0.0)."""
        i = self._index(rank)
        _, _, _, logphi, logp = self._snapshot
        if rank >= 0:
            return logphi[i]
        return logp[i] - logphi[i]

    def _exact_phi(self, i: int) -> int:
        """The product of the bases of rows 0..i (row i must exist). A
        cached row is read without the lock; past the cache the product
        starts from the checkpoint at or below row i."""
        exact = self._exact
        if i < len(exact):
            return exact[i]
        values, bases, _, logphi, _ = self._snapshot
        bits = logphi[i] / math.log(2)
        if bits > _PHI_BITS_CAP:
            raise ValueError(
                f"phi of {values[i]} (or of its reciprocal) would hold "
                f"about {bits:.0f} bits, past the cap of 2^18 bits"
            )
        with self._exact_lock:
            if values[i] <= _EXACT_CACHE_LIMIT:
                acc = exact[-1] if exact else 1
                for j in range(len(exact), i + 1):
                    acc *= bases[j]
                    exact.append(acc)
                return exact[i]
            # checkpoint c holds the rows below c * stride, all at most i,
            # so no checkpoint passes the bit cap
            stride, checks = _PHI_STRIDE, self._checkpoints
            c = (i + 1) // stride
            while len(checks) <= c:
                n = len(checks)
                checks.append(
                    checks[-1] * math.prod(bases[(n - 1) * stride:n * stride])
                )
            return checks[c] * math.prod(bases[c * stride:i + 1])


_TABLE = _PowerTable()


def _successor(x: Fraction) -> tuple[int, int]:
    """(p, k) of the smallest prime power strictly greater than x."""
    n, d = x.numerator, x.denominator
    if n >= 2 * d:
        # an integer prime power is > x iff it is > floor(x)
        return _TABLE.above(n // d)
    if 2 * n >= d:
        return 2, 1
    # 1/m for the greatest integer prime power m < 1/x, that is
    # m < ceil(1/x)
    p, k = _TABLE.below(-(-d // n))
    return p, -k


def next_pp(x: RationalLike) -> PrimePower:
    """Successor: the smallest prime power strictly greater than x."""
    return PrimePower._trusted(*_successor(as_fraction(x)))


def prev_pp(x: RationalLike) -> PrimePower:
    """Predecessor: the largest prime power strictly less than x."""
    # (next_pp(1/x))^-1
    p, k = _successor(1 / as_fraction(x))
    return PrimePower._trusted(p, -k)


def pp_range(a: RationalLike, b: RationalLike) -> list[PrimePower]:
    """All prime powers v with a < v <= b, ascending."""
    lo = _TABLE.rank_floor(as_fraction(a))
    hi = _TABLE.rank_floor(as_fraction(b))
    return [_TABLE.at(r) for r in range(lo + 1, hi + 1)]


def phi(x: RationalLike) -> Fraction:
    """The bracket product prod_p p^[[log_p x]], exactly.

    Piecewise constant with jumps at prime powers: phi(x) = phi(n) for the
    largest prime power n <= x, phi == 1 on [1/2, 2), and
    phi(1/m) = base(m)/phi(m) for integer prime powers m.
    """
    frac = as_fraction(x)
    _refuse_phi_past_cap(frac)
    return _TABLE.phi_at(_TABLE.rank_floor(frac))


def _refuse_phi_past_cap(x: Fraction) -> None:
    """Refuse an exact phi(x) past _PHI_BITS_CAP before the table is
    sieved to x. For x >= 2, log phi(x) = psi(n) with n = floor(x); for
    x < 1/2, phi(x) = p / phi(m) for the least prime power m >= n =
    ceil(1/x), and psi(m) >= psi(n). psi >= theta > n (1 - 1/(2 ln n))
    for n >= 563 (Rosser-Schoenfeld 1962), so a lower bound past the cap
    by a margin far above the float error of the table's log phi is
    refused by _exact_phi too. Past _SIEVE_CAP the sieve refuses, and a
    radius that is no positive rational is refused later."""
    num, den = x.numerator, x.denominator
    if num <= 0:
        return
    n = num // den if num >= 2 * den else -(-den // num)
    if not 563 <= n <= _SIEVE_CAP:
        return
    bits = n * (1.0 - 0.5 / math.log(n)) / math.log(2)
    if bits > _PHI_BITS_CAP * (1.0 + 1e-9):
        raise ValueError(
            f"phi of {x} would hold at least {bits:.0f} bits, past the cap "
            "of 2^18 bits"
        )


def log_phi(x: RationalLike) -> float:
    """log(phi(x)) as a float; equals the Chebyshev function psi(x) for
    x >= 2. Safe for arguments far beyond float overflow of phi itself."""
    return _TABLE.log_phi_at(_TABLE.rank_floor(as_fraction(x)))


def is_prime_power(x: RationalLike) -> bool:
    """Whether x is a nonzero prime power; False for inputs that are no
    positive rational. Raises ValueError where primality is undecidable."""
    try:
        frac = as_fraction(x)
    except (ValueError, ZeroDivisionError):
        return False
    return _as_prime_power(frac) is not None


def prime_power_pairs(x: RationalLike) -> tuple[int, int]:
    """(p, k) of a prime-power value; ValueError otherwise."""
    pk = _as_prime_power(as_fraction(x))
    if pk is None:
        raise ValueError(f"{x} is not a prime power")
    return pk


def iter_int_prime_powers(limit: int) -> Iterable[tuple[int, int, int]]:
    """(value, p, k) for all integer prime powers <= limit, ascending."""
    values, bases, exps, _, _ = _TABLE.extend_to(limit)
    i = bisect.bisect_right(values, limit)
    return list(zip(values[:i], bases[:i], exps[:i]))
