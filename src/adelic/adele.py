"""Truncated points of the finite adeles with exact norm and Haar sampling.

A point is a finite map prime -> truncated Q_p component plus a rule for
every other prime (the implicit part): either exactly zero, or a lazily
materialized uniform element of Z_p. A component is three integers: its
valuation v, its unit u (prime to p) and its absolute precision known_to.
The value p^v * u is known modulo p^known_to, or exactly when known_to is
None (a tail of zero digits). Base-p digits appear only in the text form.
A sampled point's implicit components form a RandomTail: the component at
p is uniform in Z_p modulo p^depth, read from one SHAKE-256 output keyed
by the tail's seed and p (RandomTail, _shake_below), while the explicit
digits are drawn from the caller's random.Random stream.
Arithmetic is exact modular arithmetic on units; when a sum cancels past
the stored precision the valuation of the result is undecidable and
IndeterminateCancellation is raised - never silent rounding.

The norm is one maximum over primes, computed from valuations only:

    ||x|| = max_p s_p,    s_p = |x_p|_p       where |x_p|_p > 1,
                          s_p = |x_p|_p / p   where |x_p|_p <= 1,

so a component in p^e Z_p has share p^(-e) for e < 0 and p^(-e-1) for
e >= 0. Values are 0 or a prime power, the induced distance is an
ultrametric, and balls/spheres of prime-power radius r have exact Haar
volumes phi(r) and phi(r) - phi(prev_pp(r)).
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator, Literal, Optional

from .errors import IndeterminateCancellation
from .primepow import (
    _TABLE,
    RationalLike,
    _as_prime_power,
    _refuse_past_sieve_cap,
    _refuse_phi_past_cap,
    as_fraction,
    is_prime,
)
from .util import derive_rng, record

DEFAULT_DEPTH = 16

# Bail out of norm resolution after this many implicit primes; reaching it
# means every materialized component vanished to stored depth, probability
# below p^(-depth) per prime.
_NORM_SCAN_CAP = 300

# Regions about 0 kept with their sampling plans. A plan holds one pair
# per prime up to max(r, 1/r); the plans of all 396 prime powers in
# 1/1024..1024 take about 2 MB together.
_PLAN_CACHE_SIZE = 512

# A parsed component p:v:... or p:z:K whose power p^|v| (p^|K|) would hold
# more bits than this is refused before the power is built. The CLI prints
# integers of up to 4300 decimal digits (about 14,300 bits), so every norm
# it can print still parses.
_POWER_BITS_CAP = 1 << 16


# --------------------------------------------------------------------------
# components


@record(frozen=True, slots=True)
class PAdicComponent:
    """One truncated Q_p coordinate.

    valuation None with known_to None: exactly zero.
    valuation None with known_to k: only known to lie in p^k Z_p.
    valuation v: value = p^v * unit, exact when known_to is None, else
    correct modulo p^known_to.
    unit is prime to p when valuation is set, and 0 when it is None.
    Slotted, since a stored path keeps every component of every point.
    """

    p: int
    valuation: Optional[int]
    unit: int
    known_to: Optional[int]  # None = exact (tail of zeros)

    def __post_init__(self):
        if self.valuation is not None and self.unit % self.p == 0:
            raise ValueError("leading digit must be nonzero")

    @property
    def exact(self) -> bool:
        return self.known_to is None

    @property
    def is_zero(self) -> bool:
        return self.valuation is None and self.exact

    @property
    def digits(self) -> tuple[int, ...]:
        """Little-endian base-p digits of the unit (the text form)."""
        out = []
        m = self.unit
        while m:
            m, d = divmod(m, self.p)
            out.append(d)
        return tuple(out)

    def value_fraction(self) -> Fraction:
        if not self.exact:
            raise ValueError("component is not exact")
        if self.valuation is None:
            return Fraction(0)
        return Fraction(self.p) ** self.valuation * self.unit


# the slot descriptors' setters, which write past the frozen __setattr__
_set_p, _set_valuation, _set_unit, _set_known_to = (
    PAdicComponent.__dict__[name].__set__
    for name in ("p", "valuation", "unit", "known_to")
)


def _trusted_component(
    p: int, valuation: Optional[int], unit: int, known_to: Optional[int]
) -> PAdicComponent:
    """PAdicComponent without the unit check, for a unit prime to p by
    construction (or 0 with no valuation)."""
    c = object.__new__(PAdicComponent)
    _set_p(c, p)
    _set_valuation(c, valuation)
    _set_unit(c, unit)
    _set_known_to(c, known_to)
    return c


def _strip_valuation(m: int, p: int) -> tuple[int, int]:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return m, v


def component_zero(p: int) -> PAdicComponent:
    return _trusted_component(p, None, 0, None)


def component_from_residue(
    p: int, value_exponent: int, residue: int, prec: int
) -> PAdicComponent:
    """Component p^value_exponent * residue with residue known mod p^prec."""
    return _reduced_component(
        p, value_exponent, residue % p ** prec, value_exponent + prec
    )


def _reduced_component(
    p: int, v: int, m: int, known_to: int
) -> PAdicComponent:
    """component_from_residue(p, v, m, known_to - v) for m already reduced,
    0 <= m < p^(known_to - v): the factors p of m move to the valuation."""
    if not m:
        return _trusted_component(p, None, 0, known_to)
    while m % p == 0:
        m //= p
        v += 1
    return _trusted_component(p, v, m, known_to)


def component_from_rational(
    p: int, x: Fraction, depth: int = DEFAULT_DEPTH
) -> PAdicComponent:
    """Truncated expansion of a rational in Q_p; exact when the expansion
    terminates within depth digits (positive, p-power denominator)."""
    x = Fraction(x)
    if x == 0:
        return component_zero(p)
    num, vn = _strip_valuation(x.numerator, p)
    den, vd = _strip_valuation(x.denominator, p)
    v = vn - vd
    if den == 1 and 0 < num < p ** depth:
        return _trusted_component(p, v, num, None)
    unit = num * pow(den, -1, p ** depth) % p ** depth
    return component_from_residue(p, v, unit, depth)


def _combine_components(
    a: PAdicComponent, b: PAdicComponent, sign: int, depth: int
) -> PAdicComponent:
    """a + sign*b with exactness tracking; raises on total cancellation.

    An exactly zero side leaves the other (negated when sign < 0); two
    exact sides add as rationals. Otherwise, the modular rule: each side
    lies in p^e Z_p (e its valuation, or its precision when it is zero to
    that precision) and is known modulo p^prec (its known_to, or e + depth
    when exact); the sum is reduced modulo the smaller prec. The common
    case, both sides inexact of known valuation, is tested first."""
    p = a.p
    assert p == b.p
    va, ka, vb, kb = a.valuation, a.known_to, b.valuation, b.known_to
    if va is not None and vb is not None and ka is not None and kb is not None:
        ea, eb, prec = va, vb, ka if ka < kb else kb
    elif va is None and ka is None:  # a is exactly zero
        return _negate_component(b, depth) if sign < 0 else b
    elif vb is None and kb is None:
        return a
    elif ka is None and kb is None:
        val = a.value_fraction() + sign * b.value_fraction()
        return component_from_rational(p, val, depth)
    else:
        ea = ka if va is None else va
        eb = kb if vb is None else vb
        prec = min(
            ea + depth if ka is None else ka, eb + depth if kb is None else kb
        )
    base = ea if ea < eb else eb
    width = prec - base
    if width <= 0:
        # both sides already vanish modulo p^prec: nothing cancelled, the
        # sum is simply still unknown past that precision
        return _trusted_component(p, None, 0, prec)
    total = (
        (0 if va is None else a.unit * p ** (va - base))
        + sign * (0 if vb is None else b.unit * p ** (vb - base))
    ) % p ** width
    if total == 0:
        raise IndeterminateCancellation(
            f"cancellation beyond stored depth at p={p}"
        )
    while total % p == 0:
        total //= p
        base += 1
    c = object.__new__(PAdicComponent)
    _set_p(c, p)
    _set_valuation(c, base)
    _set_unit(c, total)
    _set_known_to(c, prec)
    return c


def _negate_component(c: PAdicComponent, depth: int) -> PAdicComponent:
    """p-adic negation. Modular complement keeps full stored precision (the
    digit-level view: complement every digit, add 1, carries absorbed by the
    modulus - no guard digits needed). Exact nonzero components become
    inexact: a negative value has no terminating digit expansion."""
    if c.valuation is None:
        return c  # zero, exactly or to known precision: unchanged
    p = c.p
    prec = (c.known_to if c.known_to is not None else c.valuation + depth)
    width = prec - c.valuation
    if width <= 0:  # no digit known: still only known to lie in p^prec Z_p
        return _trusted_component(p, None, 0, prec)
    return component_from_residue(
        p, c.valuation, p ** width - c.unit, width
    )


# --------------------------------------------------------------------------
# implicit tails


class ZeroTail:
    """Implicit components are exactly zero."""

    def component(self, p: int, depth: int) -> PAdicComponent:
        return component_zero(p)

    def __eq__(self, other):
        return isinstance(other, ZeroTail)

    def __hash__(self):
        return hash("ZeroTail")

    def __repr__(self):
        return "ZeroTail()"


ZERO_TAIL = ZeroTail()


def _below(getrandbits, n: int) -> int:
    """Uniform integer in [0, n) for n >= 1: the draw randrange(n) makes on
    the random.Random whose getrandbits this is, by the same rejection
    loop on n.bit_length() bits (Random._randbelow_with_getrandbits)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# Chunks of SHAKE-256 output a tail read fetches at first. A chunk is
# accepted with probability n / 2^k > 1/2, so four leave at most 1/16 of
# the reads (far fewer for most p^depth) to fetch a longer prefix.
_TAIL_FETCH_CHUNKS = 4

_shake_256 = None  # hashlib.shake_256, once a tail has been read


def _shake_below(key: bytes, n: int) -> int:
    """Uniform integer in [0, n) for n >= 1, read from SHAKE-256(key).

    With k = (n - 1).bit_length() and B = ceil(k / 8), the output is read
    as consecutive B-byte big-endian chunks, each cut to its low k bits;
    the answer is the first chunk below n (for n a power of two, the
    first chunk). It depends on the key and n alone: a prefix of
    _TAIL_FETCH_CHUNKS chunks is fetched first and, only when every chunk
    of it is rejected, a prefix twice as long, of which just the new
    chunks are read. hashlib is bound on the first read, so commands that
    never sample do not load it."""
    global _shake_256
    if _shake_256 is None:
        from hashlib import shake_256 as _shake_256
    k = (n - 1).bit_length()
    size = (k + 7) >> 3
    if not size:
        return 0  # n == 1
    mask = (1 << k) - 1
    xof = _shake_256(key)
    start, stop = 0, _TAIL_FETCH_CHUNKS * size
    while True:
        out = xof.digest(stop)
        for i in range(start, stop, size):
            r = int.from_bytes(out[i:i + size], "big") & mask
            if r < n:
                return r
        start, stop = stop, 2 * stop


class RandomTail:
    """Implicit components are uniform in Z_p, materialized on demand.

    The component at prime p is the residue _shake_below(key, p^depth)
    of the SHAKE-256 output of key = "seed|'tail'|p" (the reprs of seed,
    "tail" and p joined by "|"), so the materialization order never
    matters and re-reads are consistent without any stored state. One
    read is one hash: no per-prime generator is seeded.
    """

    __slots__ = ("seed", "depth")

    def __init__(self, seed: int, depth: int = DEFAULT_DEPTH):
        self.seed = seed
        self.depth = depth

    def component(self, p: int, depth: int) -> PAdicComponent:
        d = self.depth
        key = f"{self.seed!r}|'tail'|{p!r}".encode()
        return _reduced_component(p, 0, _shake_below(key, p ** d), d)

    def __eq__(self, other):
        return (
            isinstance(other, RandomTail)
            and self.seed == other.seed
            and self.depth == other.depth
        )

    def __hash__(self):
        return hash(("RandomTail", self.seed, self.depth))

    def __repr__(self):
        return f"RandomTail(seed={self.seed})"


class SumTail:
    __slots__ = ("a", "b", "sign")

    def __init__(self, a, b, sign: int = 1):
        self.a = a
        self.b = b
        self.sign = sign

    def component(self, p: int, depth: int) -> PAdicComponent:
        return _combine_components(
            self.a.component(p, depth), self.b.component(p, depth),
            self.sign, depth,
        )

    def __eq__(self, other):
        return (
            isinstance(other, SumTail)
            and (self.a, self.b, self.sign) == (other.a, other.b, other.sign)
        )

    def __hash__(self):
        return hash(("SumTail", self.a, self.b, self.sign))


def _combine_tails(ta, tb, sign: int):
    # -tb is SumTail(ZERO_TAIL, tb, -1): adding to the zero component
    # negates (_combine_components)
    if isinstance(tb, ZeroTail):
        return ta
    if isinstance(ta, ZeroTail) and sign > 0:
        return tb
    return SumTail(ta, tb, sign)


# --------------------------------------------------------------------------
# points


class AdelePoint:
    """Explicit components plus an implicit-tail rule for all other primes."""

    __slots__ = ("explicit", "tail", "depth")

    def __init__(
        self,
        explicit: dict[int, PAdicComponent] | None = None,
        tail=ZERO_TAIL,
        depth: int = DEFAULT_DEPTH,
    ):
        self.explicit = dict(sorted((explicit or {}).items()))
        self.tail = tail
        self.depth = depth

    @classmethod
    def zero(cls, depth: int = DEFAULT_DEPTH) -> "AdelePoint":
        return cls({}, ZERO_TAIL, depth)

    def component(self, p: int) -> PAdicComponent:
        c = self.explicit.get(p)
        if c is not None:
            return c
        return self.tail.component(p, self.depth)

    def is_zero_point(self) -> bool:
        return isinstance(self.tail, ZeroTail) and all(
            c.is_zero for c in self.explicit.values()
        )

    def __eq__(self, other):
        if not isinstance(other, AdelePoint):
            return NotImplemented
        return (
            self.explicit == other.explicit
            and self.tail == other.tail
            and self.depth == other.depth
        )

    def __repr__(self):
        return f"AdelePoint({format_point(self)!r})"


def _trusted_point(
    explicit: dict[int, PAdicComponent], tail, depth: int
) -> AdelePoint:
    """AdelePoint that takes explicit as given: keys already ascending."""
    x = object.__new__(AdelePoint)
    x.explicit = explicit
    x.tail = tail
    x.depth = depth
    return x


def add(x: AdelePoint, y: AdelePoint) -> AdelePoint:
    """Componentwise sum; raises IndeterminateCancellation when any
    component cancels past its stored precision."""
    return _combine_points(x, y, 1)


def sub(x: AdelePoint, y: AdelePoint) -> AdelePoint:
    return _combine_points(x, y, -1)


def _combine_points(x: AdelePoint, y: AdelePoint, sign: int) -> AdelePoint:
    xd, yd, xt, yt = x.depth, y.depth, x.tail, y.tail
    depth = xd if xd < yd else yd
    xs, ys = x.explicit, y.explicit
    out = {}
    for p in sorted(xs.keys() | ys.keys()):
        a = xs.get(p)
        b = ys.get(p)
        out[p] = _combine_components(
            a if a is not None else xt.component(p, xd),
            b if b is not None else yt.component(p, yd),
            sign, depth,
        )
    return _trusted_point(out, _combine_tails(xt, yt, sign), depth)


def negate(x: AdelePoint) -> AdelePoint:
    return sub(AdelePoint.zero(x.depth), x)


def norm(x: AdelePoint) -> Fraction:
    """||x|| = max_p of the share p^(-e) (e < 0) or p^(-e-1) (e >= 0) of
    each component in p^e Z_p: 0 or a prime power. Raises when a component
    of unknown valuation could hold the maximum at stored depth."""
    best = Fraction(0)  # largest share of a component of known valuation
    bound = Fraction(0)  # largest share a component of unknown one may have

    def take(c: PAdicComponent) -> None:
        nonlocal best, bound
        if c.valuation is not None:
            best = max(best, _share(c.p, c.valuation))
        elif c.known_to is not None:
            bound = max(bound, _share(c.p, c.known_to))

    for c in x.explicit.values():
        take(c)
    if not isinstance(x.tail, ZeroTail):
        scanned = 0
        for q in _primes_ascending():
            if q in x.explicit:
                continue
            if Fraction(1, q) <= best:
                break
            scanned += 1
            if scanned > _NORM_SCAN_CAP:
                raise IndeterminateCancellation(
                    "implicit components vanish past stored depth"
                )
            take(x.tail.component(q, x.depth))
    if bound > best:
        raise IndeterminateCancellation(
            "norm dominated by a component with unknown valuation"
        )
    return best


def _share(p: int, e: int) -> Fraction:
    """Largest share in max_p of a component lying in p^e Z_p."""
    return Fraction(p ** -e) if e < 0 else Fraction(1, p ** (e + 1))


def _primes_ascending() -> Iterator[int]:
    for rank in itertools.count():
        p, k = _TABLE.base_exp_at(rank)
        if k == 1:
            yield p


def distance(x: AdelePoint, y: AdelePoint) -> Fraction:
    """Ultrametric distance ||x - y||.

    A point subtracted from itself cancels its own unknown tail digits
    exactly, so identity short-circuits to 0; two distinct points with
    merely identical stored prefixes have independent tails and raise.
    """
    if x is y:
        return Fraction(0)
    return norm(sub(x, y))


# --------------------------------------------------------------------------
# regions, volume, sampling


@record(frozen=True)
class Region:
    """Ball (closed, ||y - center|| <= radius) or sphere (= radius) of
    prime-power radius."""

    kind: Literal["ball", "sphere"]
    radius: Fraction
    center: Optional[AdelePoint] = None

    def __post_init__(self):
        radius = as_fraction(self.radius)
        # radii must be prime powers, checked without sieving the table:
        # the bound rank_floor would sieve to is refused past the cap
        # first, so the root test sees at most 2^26
        num, den = radius.numerator, radius.denominator
        _refuse_past_sieve_cap(num // den if num >= den else -(-den // num))
        if _as_prime_power(radius) is None:
            raise ValueError(f"{radius} is not a prime power")
        object.__setattr__(self, "radius", radius)
        if self.kind not in ("ball", "sphere"):
            raise ValueError(f"unknown region kind {self.kind!r}")

    @functools.cached_property
    def _plan(self) -> tuple[tuple[tuple[int, int], ...], Optional[int]]:
        """_radius_plan of the radius; a ball has no defining prime."""
        pairs, sphere_prime = _radius_plan(self.radius)
        return pairs, sphere_prime if self.kind == "sphere" else None


def ball(radius: RationalLike, center: AdelePoint | None = None) -> Region:
    if center is None:
        return _region_about_zero("ball", radius)
    return Region("ball", radius, center)


def sphere(radius: RationalLike, center: AdelePoint | None = None) -> Region:
    if center is None:
        return _region_about_zero("sphere", radius)
    return Region("sphere", radius, center)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _region_about_zero(kind: str, radius: RationalLike) -> Region:
    """Region about 0, validated once per radius; a failed check is not
    cached, so it raises again on the next call."""
    return Region(kind, radius)


def haar_volume(region: Region) -> Fraction:
    """Exact Haar measure: phi(r) for balls, phi(r) - phi(prev_pp(r)) for
    spheres, read at r's rank k and k - 1; independent of center by
    translation invariance. An exact phi past its bit cap is refused
    before the table is sieved to the radius."""
    _refuse_phi_past_cap(region.radius)
    k = _TABLE.rank_floor(region.radius)
    if region.kind == "ball":
        return _TABLE.phi_at(k)
    return _TABLE.phi_at(k) - _TABLE.phi_at(k - 1)


def ball_exponents(radius: RationalLike) -> dict[int, int]:
    """Nonzero alpha_p = [[log_p r]]: the ball of radius r is the product
    of p^(-alpha_p) Z_p over these primes (Z_p at every other prime)."""
    pairs, _ = _radius_plan(as_fraction(radius))
    return {p: a for p, a in pairs if a}


def _radius_plan(
    r: Fraction,
) -> tuple[tuple[tuple[int, int], ...], Optional[int]]:
    """Sampling plan of radius r: (p, [[log_p r]]) in ascending p, and the
    sphere's defining prime (None when r is not a prime power), both read
    from the table rows with k = rank_floor(r). For r >= 1, [[log_p r]]
    counts the powers p^j <= r, the rows 0..k of base p; for r < 1 it is
    minus the count of the powers p^j < 1/r, the rows 0..-2-k of base p
    (none for k = -1). r is a prime power iff it is the value of rank k,
    whose base is then the defining prime.

    The pairs are the nonzero ball exponents plus the defining prime, whose
    exponent is 0 when r = 1/p; that zero is the only one in the plan.
    """
    k = _TABLE.rank_floor(r)
    rows, sign = (k + 1, 1) if k >= 0 else (-1 - k, -1)
    alphas: dict[int, int] = {}
    for j in range(rows):
        p = _TABLE.base_at(j)
        alphas[p] = alphas.get(p, 0) + sign
    sphere_prime = None
    if _TABLE.fraction_at(k) == r:
        sphere_prime = _TABLE.base_at(k)
        alphas.setdefault(sphere_prime, 0)
    return tuple(sorted(alphas.items())), sphere_prime


def sample_uniform(
    region: Region,
    depth: int = DEFAULT_DEPTH,
    rng=None,
    seed: int | None = None,
    prime_cutoff: int | None = None,
) -> AdelePoint:
    """Haar-uniform sample from a ball or sphere.

    Ball: independent uniform draws in p^(-alpha_p) Z_p for the finitely
    many constrained primes, lazy uniform Z_p elsewhere. Sphere of radius
    p^k: the ball draw conditioned on a nonzero leading digit of the
    p-component, which is exactly the complement of the next smaller ball
    (the constraint vectors of B_r and B_prev(r) differ only at p, by 1 -
    verified exhaustively in the test suite). Sphere samples therefore have
    norm exactly r, always.

    prime_cutoff drops explicit components at primes beyond the cutoff
    (truncated representation for path storage); the defining prime of a
    sphere is always kept.
    """
    if rng is None:
        rng = derive_rng(seed if seed is not None else 0, "sample")
    pairs, sphere_prime = region._plan
    # rng.randrange(n) is _below(bits, n) and randrange(1, q) is
    # 1 + _below(bits, q - 1), draw for draw
    bits = rng.getrandbits
    comps: dict[int, PAdicComponent] = {}
    for q, a in pairs:
        if q == sphere_prime:
            lead = 1 + _below(bits, q - 1)
            rest = _below(bits, q ** (depth - 1))
            # the leading digit is nonzero, so the unit is prime to q
            comps[q] = _trusted_component(q, -a, lead + q * rest, depth - a)
        elif a != 0 and (prime_cutoff is None or q <= prime_cutoff):
            comps[q] = _reduced_component(
                q, -a, _below(bits, q ** depth), depth - a
            )
    # the plan's pairs ascend in q, so comps is already in key order
    tail = RandomTail(bits(63), depth)
    point = _trusted_point(comps, tail, depth)
    if region.center is not None:
        point = add(point, region.center)
    return point


# --------------------------------------------------------------------------
# text format


def format_point(x: AdelePoint) -> str:
    """Canonical text form: semicolon-separated `p:v:d0,d1,...` per explicit
    component (digits little-endian), `p:z` for an exact zero component,
    `p:z:K` for zero-to-precision-K, and `0` for the zero point."""
    if x.is_zero_point() and not x.explicit:
        return "0"
    parts = []
    for p, c in x.explicit.items():
        if c.valuation is None:
            parts.append(f"{p}:z" if c.exact else f"{p}:z:{c.known_to}")
        else:
            parts.append(
                f"{p}:{c.valuation}:{','.join(str(d) for d in c.digits)}"
            )
    return ";".join(parts) if parts else "0"


def parse_point(text: str, depth: int = DEFAULT_DEPTH) -> AdelePoint:
    """Inverse of format_point. Digit components parse as exact values
    (terminating expansions); implicit components are exactly zero."""
    text = text.strip()
    if text == "0":
        return AdelePoint.zero(depth)
    comps: dict[int, PAdicComponent] = {}
    for part in text.split(";"):
        fields = part.split(":")
        if not 2 <= len(fields) <= 3 or len(fields) == 2 and fields[1] != "z":
            raise ValueError(
                f"component {part!r} is not of the form p:v:digits, p:z "
                "or p:z:K"
            )
        p = int(fields[0])
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if fields[1] == "z":
            if len(fields) > 2 and fields[2]:
                known_to = _checked_exponent(p, int(fields[2]), part)
                comps[p] = PAdicComponent(p, None, 0, known_to)
            else:
                comps[p] = component_zero(p)
            continue
        v = _checked_exponent(p, int(fields[1]), part)
        digits = tuple(int(d) for d in fields[2].split(",")) if fields[2] else ()
        if not digits:
            raise ValueError(f"component {part!r} has no digits")
        if any(d < 0 or d >= p for d in digits):
            raise ValueError(f"digit out of range in {part!r}")
        unit = 0
        for d in reversed(digits):
            unit = unit * p + d
        comps[p] = PAdicComponent(p, v, unit, None)
    return AdelePoint(comps, ZERO_TAIL, depth)


def _checked_exponent(p: int, e: int, part: str) -> int:
    """e, refused when p^|e|, which holds at least |e| (bits(p) - 1)
    bits, would pass _POWER_BITS_CAP."""
    if abs(e) * (p.bit_length() - 1) > _POWER_BITS_CAP:
        raise ValueError(
            f"component {part!r}: the power {p}^{abs(e)} would hold more "
            "than 2^16 bits"
        )
    return e
