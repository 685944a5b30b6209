"""Adele point arithmetic, norm, Haar volume and sampler tests.

Expected values below are frozen from hand computation: the constraint
exponents alpha_p = [[log_p r]] come straight from the bracket definition,
volumes from the literal phi product, and sampler laws from the exact
conditional probabilities they must realize.
"""
import hashlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

from adelic import adele as ad
from adelic import primepow as pp
from adelic import IndeterminateCancellation, is_prime_power, phi, prev_pp
from adelic.adele import (
    AdelePoint,
    PAdicComponent,
    RandomTail,
    Region,
    ZeroTail,
    add,
    ball,
    ball_exponents,
    component_from_rational,
    component_from_residue,
    distance,
    format_point,
    haar_volume,
    negate,
    norm,
    parse_point,
    sample_uniform,
    sphere,
    sub,
)
from adelic.heatkernel import KernelParams
from adelic.markov import radius_distribution, sample_path
from adelic.primepow import _TABLE
from adelic.util import derive_rng

# ---- frozen expected values ----
DIST_DISJOINT_HALVES = F(3)       # ||(1/2 at 2) - (1/3 at 3)|| = max(2, 3)
NORM_UNIT_AT_3 = F(1, 3)          # integral point, unit 3-component
VOL_BALL_8 = F(840)               # 8 * 3 * 5 * 7
VOL_SPHERE_8 = F(420)             # 840 - 4*3*5*7
VOL_BALL_QUARTER = F(1, 6)
VOL_SPHERE_HALF = F(1, 2)         # 1 - 1/2
ALPHAS_8 = {2: 3, 3: 1, 5: 1, 7: 1}
ALPHAS_FIFTH = {2: -2, 3: -1}     # alpha_5(1/5) = [[-1]] = 0, so absent
# ball of radius 3: P(norm=3) = 2/3, P(norm=2) = 1/6, P(norm<=1/2) = 1/6
BALL3_LAW = {F(3): F(2, 3), F(2): F(1, 6)}

SPHERE_RADII = [
    F(2), F(3), F(4), F(5), F(7), F(8), F(9), F(16), F(25), F(27),
    F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 7), F(1, 8), F(1, 9),
    F(1, 16), F(1, 25), F(1, 32),
]


def primes_upto(n):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


def alpha_oracle(r, prime_bound=200):
    """Nonzero [[log_p r]] per definition, independent of the library."""
    r = F(r)
    out = {}
    for p in primes_upto(prime_bound):
        if r >= 1:
            a = 0
            while F(p) ** (a + 1) <= r:
                a += 1
        else:
            a = 0
            while F(p) ** a > r:
                a -= 1
            a += 1
        if a:
            out[p] = a
    return out


def pt(values, depth=16):
    return AdelePoint(
        {p: component_from_rational(p, F(v), depth)
         for p, v in values.items()},
        depth=depth,
    )


# --------------------------------------------------------------------------


class TestComponents:
    def test_from_rational_exact(self):
        c = component_from_rational(2, F(1, 2))
        assert (c.p, c.valuation, c.digits, c.known_to) == (2, -1, (1,), None)
        assert c.value_fraction() == F(1, 2)
        c = component_from_rational(5, F(75))
        assert (c.valuation, c.digits) == (2, (3,))
        assert c.value_fraction() == 75

    def test_from_rational_inexact(self):
        c = component_from_rational(2, F(1, 3))
        assert c.valuation == 0 and not c.exact and c.known_to == 16
        # 3 * residue == 1 mod 2^16
        assert 3 * c.unit % 2 ** 16 == 1
        c = component_from_rational(3, F(-1, 3), depth=4)
        assert c.valuation == -1 and c.known_to == 3
        assert (c.unit + 1) % 3 ** 4 == 0

    def test_zero_and_partial(self):
        z = component_from_rational(7, F(0))
        assert z.is_zero and norm(AdelePoint({7: z})) == 0
        u = component_from_residue(2, -1, 0, 16)
        assert u.valuation is None and u.known_to == 15
        # |u|_2 <= 2^-15 is all that is known: alone it cannot decide the
        # norm, and its share 2^-16 lies between 3^-11 and 3^-10
        with pytest.raises(IndeterminateCancellation):
            norm(AdelePoint({2: u}))
        c = component_from_rational(3, F(3 ** 9))
        assert norm(AdelePoint({2: u, 3: c})) == F(1, 3 ** 10)
        c = component_from_rational(3, F(3 ** 10))
        with pytest.raises(IndeterminateCancellation):
            norm(AdelePoint({2: u, 3: c}))

    def test_negate_round_trip(self):
        c = component_from_rational(3, F(7, 5), depth=8)
        n = ad._negate_component(c, 8)
        back = ad._negate_component(n, 8)
        assert (back.valuation, back.digits) == (c.valuation, c.digits)
        assert (c.unit + n.unit) % 3 ** 8 == 0

    def test_leading_digit_guard(self):
        with pytest.raises(ValueError):
            PAdicComponent(2, 0, 2, None)


class TestArithmetic:
    def test_distance_disjoint_primes(self):
        x = pt({2: F(1, 2)})
        y = pt({3: F(1, 3)})
        assert distance(x, y) == DIST_DISJOINT_HALVES

    def test_add_halves_gives_unit(self):
        s = add(pt({2: F(1, 2)}), pt({2: F(1, 2)}))
        c = s.component(2)
        assert c.valuation == 0 and c.exact and c.value_fraction() == 1

    def test_cancellation_beyond_depth_raises(self):
        x = pt({2: F(1, 2)})
        with pytest.raises(IndeterminateCancellation):
            add(x, negate(x))
        with pytest.raises(IndeterminateCancellation):
            add(x, pt({2: F(-1, 2)}))

    def test_exact_twins_cancel_to_zero(self):
        x = pt({2: F(1, 2), 5: F(10)})
        y = pt({2: F(1, 2), 5: F(10)})
        d = sub(x, y)
        assert d.is_zero_point()
        assert distance(x, y) == 0

    def test_identical_inexact_prefixes_raise(self):
        c = component_from_residue(2, -1, 54321, 16)
        x = AdelePoint({2: c})
        y = AdelePoint({2: c})
        assert x is not y
        with pytest.raises(IndeterminateCancellation):
            distance(x, y)

    def test_self_distance_is_zero(self):
        x = sample_uniform(ball(8), seed=42)
        assert distance(x, x) == 0

    def test_exact_subtraction_keeps_exactness(self):
        d = sub(pt({3: F(5)}), pt({3: F(2)}))
        assert d.component(3).value_fraction() == 3

    def test_mixed_precision_add(self):
        # exact 1/4 + inexact 1/3 = 7/12 at p=2: valuation -2, and the
        # result is only known to the truncated summand's precision
        s = add(pt({2: F(1, 4)}), pt({2: F(1, 3)}))
        c = s.component(2)
        assert c.valuation == -2 and c.known_to == 14
        # unit part is 7/3: multiplying back by 3 must give 7 mod 2^16
        assert 3 * c.unit % 2 ** 16 == 7


def combine_reference(a, b, sign, depth):
    """a + sign*b by the rules _combine_components documents, written out
    with Fractions: an exactly zero side leaves the other (negated when
    sign < 0), two exact sides add as rationals, and otherwise each side,
    lying in p^e Z_p and known modulo p^prec (its known_to, or e + depth
    when exact), is added exactly and reduced modulo the smaller prec."""
    p = a.p
    if a.is_zero and sign > 0:
        return b
    if b.is_zero:
        return a
    if a.exact and b.exact and not a.is_zero:
        return component_from_rational(
            p, a.value_fraction() + sign * b.value_fraction(), depth)

    def placed(c):  # (e, prec, exact value or 0)
        e = c.known_to if c.valuation is None else c.valuation
        prec = c.known_to if not c.exact else e + depth
        value = 0 if c.valuation is None else F(p) ** c.valuation * c.unit
        return e, prec, value

    if a.is_zero:  # -b: its value, negated, to b's own precision
        ea, prec, total = placed(b)
        eb, total = ea, -total
    else:
        ea, pa, xa = placed(a)
        eb, pb, xb = placed(b)
        prec = min(pa, pb)
        total = xa + sign * xb
    base = min(ea, eb, prec)
    if prec <= base:
        return PAdicComponent(p, None, 0, prec)
    scaled = total / F(p) ** base
    assert scaled.denominator == 1
    m = scaled.numerator % p ** (prec - base)
    if m == 0:
        raise IndeterminateCancellation(f"p={p}")
    v = base
    while m % p == 0:
        m //= p
        v += 1
    return PAdicComponent(p, v, m, prec)


def random_component(rng, p, depth):
    """An exactly zero, zero-to-precision, exact or inexact component; an
    inexact one may hold no digit (known_to <= valuation), which the
    public constructor accepts."""
    kind = rng.choice(("zero", "zero_to", "exact", "inexact", "inexact"))
    if kind == "zero":
        return PAdicComponent(p, None, 0, None)
    if kind == "zero_to":
        return PAdicComponent(p, None, 0, rng.randrange(-3, depth + 2))
    v = rng.randrange(-3, 4)
    width = rng.randrange(-1, depth + 1)
    unit = rng.randrange(1, p ** max(width, 1))
    while unit % p == 0:
        unit = rng.randrange(1, p ** max(width, 1))
    return PAdicComponent(p, v, unit, None if kind == "exact" else v + width)


class TestCombineComponents:
    @pytest.mark.seeded_streams
    def test_matches_the_slow_rule(self):
        rng = random.Random(26)
        outcomes = {"raise": 0, "exact": 0, "inexact": 0, "zero_to": 0}
        for _ in range(6000):
            p, depth = rng.choice(((2, 4), (3, 3), (5, 6), (7, 2), (131, 2)))
            a = random_component(rng, p, depth)
            if rng.random() < 0.25:
                # the same digits again, or their negation: cancellation
                b = a if rng.random() < 0.5 else ad._negate_component(a,
                                                                       depth)
            else:
                b = random_component(rng, p, depth)
            sign = rng.choice((1, -1))
            try:
                want = combine_reference(a, b, sign, depth)
            except IndeterminateCancellation:
                with pytest.raises(IndeterminateCancellation):
                    ad._combine_components(a, b, sign, depth)
                outcomes["raise"] += 1
                continue
            got = ad._combine_components(a, b, sign, depth)
            assert (got.p, got.valuation, got.unit, got.known_to) == (
                want.p, want.valuation, want.unit, want.known_to
            ), (a, b, sign, depth)
            outcomes["zero_to" if got.valuation is None and not got.exact
                     else "exact" if got.exact else "inexact"] += 1
        assert min(outcomes.values()) >= 100, outcomes


class TestSumChain:
    @pytest.mark.seeded_streams
    def test_fresh_prime_read_after_900_adds(self):
        # each add nests the running tail one SumTail deeper, and reading
        # a prime that no summand holds explicitly walks the whole chain:
        # one frame per level keeps 900 levels under the default limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            x = AdelePoint.zero(12)
            for i in range(900):
                inc = sample_uniform(sphere((F(1, 2), F(2), F(3))[i % 3]),
                                     depth=12, seed=i)
                x = add(x, inc)
            assert sorted(x.explicit) == [2, 3]
            c = x.component(1009)
        finally:
            sys.setrecursionlimit(limit)
        assert c.p == 1009 and c.known_to == 12


class TestNorm:
    def test_unit_three_component(self):
        assert norm(pt({3: F(2)})) == NORM_UNIT_AT_3

    def test_sup_branch(self):
        assert norm(pt({2: F(1, 4), 3: F(1, 3)})) == 4
        # 3 is a 2-adic unit: integral point, max |x_p|/p attained at p=2
        assert norm(pt({2: F(3), 3: F(9)})) == F(1, 2)

    def test_zero_point(self):
        assert norm(AdelePoint.zero()) == 0

    def test_integral_tail_scanned(self):
        x = sample_uniform(ball(F(1, 4)), seed=9)
        n = norm(x)
        assert n <= F(1, 4)
        assert n == 0 or is_prime_power(n)

    def test_undetermined_alone_raises(self):
        u = component_from_residue(3, 0, 0, 16)
        with pytest.raises(IndeterminateCancellation):
            norm(AdelePoint({3: u}))

    def test_undetermined_dominated_is_fine(self):
        u = component_from_residue(3, 0, 0, 16)
        c = component_from_rational(2, F(1, 4))
        assert norm(AdelePoint({2: c, 3: u})) == 4

    def test_norm_values_are_prime_powers(self):
        for seed in range(12):
            x = sample_uniform(ball(9), seed=seed)
            n = norm(x)
            assert n == 0 or is_prime_power(n)


class TestUltrametric:
    def test_strong_triangle(self):
        for seed in range(8):
            x = sample_uniform(ball(8), seed=3 * seed)
            y = sample_uniform(ball(8), seed=3 * seed + 1)
            z = sample_uniform(ball(8), seed=3 * seed + 2)
            dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
            assert dxz <= max(dxy, dyz)
            assert distance(y, x) == dxy

    def test_isosceles(self):
        # unequal legs force the long one to win
        for seed in range(8):
            x = sample_uniform(ball(8), seed=100 + 3 * seed)
            y = sample_uniform(ball(8), seed=101 + 3 * seed)
            z = sample_uniform(ball(8), seed=102 + 3 * seed)
            dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
            if dxy != dyz:
                assert dxz == max(dxy, dyz)


class TestVolume:
    def test_frozen(self):
        assert haar_volume(ball(8)) == VOL_BALL_8
        assert haar_volume(sphere(8)) == VOL_SPHERE_8
        assert haar_volume(ball(F(1, 4))) == VOL_BALL_QUARTER
        assert haar_volume(sphere(F(1, 2))) == VOL_SPHERE_HALF

    def test_matches_phi(self):
        for r in SPHERE_RADII:
            assert haar_volume(ball(r)) == phi(r)
            assert haar_volume(sphere(r)) == phi(r) - phi(prev_pp(r).value)

    def test_sphere_volumes_telescope(self):
        from adelic import pp_range

        total = sum(haar_volume(sphere(r.value)) for r in pp_range(F(1, 8), 8))
        assert total == phi(8) - phi(F(1, 8))

    def test_radius_must_be_prime_power(self):
        with pytest.raises(ValueError):
            ball(6)
        with pytest.raises(ValueError):
            sphere(F(3, 2))


class TestBallExponents:
    def test_frozen(self):
        assert ball_exponents(8) == ALPHAS_8
        assert ball_exponents(F(1, 5)) == ALPHAS_FIFTH

    def test_oracle(self):
        for r in SPHERE_RADII + [F(50), F(1, 50), F(100)]:
            assert ball_exponents(r) == alpha_oracle(r)

    def test_product_is_phi(self):
        for r in SPHERE_RADII:
            prod = F(1)
            for p, a in ball_exponents(r).items():
                prod *= F(p) ** a
            assert prod == phi(r)

    def test_sphere_is_one_digit_condition(self):
        # exponent vectors of B_r and B_prev(r) differ at exactly one prime,
        # by exactly 1: the sphere is a single leading-digit condition
        for r in SPHERE_RADII:
            hi = ball_exponents(r)
            lo = ball_exponents(prev_pp(r).value)
            diff = {
                p: hi.get(p, 0) - lo.get(p, 0)
                for p in set(hi) | set(lo)
                if hi.get(p, 0) != lo.get(p, 0)
            }
            assert len(diff) == 1
            (p, step), = diff.items()
            assert step == 1
            from adelic.primepow import prime_power_pairs

            assert p == prime_power_pairs(r)[0]

    def test_rank_plan_matches_the_definition(self):
        # every prime power p^j in 1/2048..2048 with its defining prime,
        # then radii that are no prime power
        bound = 2048
        defining = {}
        for p in primes_upto(bound):
            q = p
            while q <= bound:
                defining[F(q)] = defining[F(1, q)] = p
                q *= p
        assert len(defining) == 2 * 340
        others = [F(1), F(3, 2), F(10), F(1, 10), F(7, 3), F(100),
                  F(1, 100), F(5, 7)]
        for r in [*defining, *others]:
            want = alpha_oracle(r, bound)
            assert ball_exponents(r) == want, r
            pairs, sphere_prime = ad._radius_plan(r)
            assert sphere_prime == defining.get(r), r
            # the plan holds the nonzero exponents plus the defining prime
            extra = {} if sphere_prime is None else {sphere_prime: 0}
            assert pairs == tuple(sorted({**extra, **want}.items())), r


class TestSampler:
    def test_sphere_norm_exact(self):
        for r in SPHERE_RADII:
            for i in range(8):
                x = sample_uniform(sphere(r), seed=hash((r, i)) & 0xFFFF)
                assert norm(x) == r

    def test_ball_norm_bounded(self):
        for r in [F(8), F(1, 3), F(2)]:
            for i in range(20):
                x = sample_uniform(ball(r), seed=i)
                assert norm(x) <= r

    def test_ball3_law(self):
        n = 2500
        rng = derive_rng("ball3-law")
        counts = {F(3): 0, F(2): 0}
        for _ in range(n):
            v = norm(sample_uniform(ball(3), rng=rng))
            if v in counts:
                counts[v] += 1
        for val, prob in BALL3_LAW.items():
            p = float(prob)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[val] / n - p) < 3 * sigma, (val, counts)

    def test_sphere_nondefining_component_uniform(self):
        # within the sphere of radius 4 the 3-component is uniform in
        # (1/3) Z_3, so P(|x_3| = 3) = 2/3
        n = 1500
        rng = derive_rng("sphere4-law")
        hits = 0
        for _ in range(n):
            x = sample_uniform(sphere(4), rng=rng)
            c = x.component(3)
            if c.valuation == -1:
                hits += 1
        sigma = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(hits / n - 2 / 3) < 3 * sigma

    def test_centered_regions(self):
        center = sample_uniform(ball(2), seed=77)
        for i in range(10):
            x = sample_uniform(ball(F(1, 4), center=center), seed=i)
            assert distance(x, center) <= F(1, 4)
            y = sample_uniform(sphere(F(1, 4), center=center), seed=1000 + i)
            assert distance(y, center) == F(1, 4)

    def test_prime_cutoff(self):
        x = sample_uniform(ball(8), seed=5, prime_cutoff=3)
        assert set(x.explicit) <= {2, 3}
        y = sample_uniform(sphere(25), seed=5, prime_cutoff=3)
        assert 5 in y.explicit  # defining prime always kept

    def test_determinism(self):
        a = sample_uniform(sphere(9), seed=123)
        b = sample_uniform(sphere(9), seed=123)
        assert a == b and a is not b
        c = sample_uniform(sphere(9), seed=124)
        assert a != c

    def test_tail_order_independence(self):
        x = sample_uniform(ball(2), seed=55)
        after = x.component(101)
        x.component(2)
        x.component(997)
        assert x.component(101) == after


# seeded draws frozen from the sampler before plans were cached; the 1/5
# regions cover the defining prime with exponent [[log_5 1/5]] = 0
FROZEN_DRAWS = [
    (ball(F(1, 5)), dict(seed=3, depth=6), "2:6:1;3:2:1,1,1,1,1"),
    (sphere(F(1, 5)), dict(seed=3, depth=6),
     "2:6:1;3:2:1,1,1,1,1;5:0:4,4,0,1,0,1"),
    (sphere(F(8)), dict(seed=11, depth=5, prime_cutoff=3),
     "2:-3:1,0,0,0,1;3:-1:1"),
    (ball(F(9)), dict(seed=4, depth=4),
     "2:-2:1,1;3:z:2;5:-1:2,1,2,4;7:-1:1,0,2,5"),
]


class TestSamplingPlanCache:
    def test_draws_same_cold_and_warm(self):
        make = {"ball": ball, "sphere": sphere}

        def draws():
            return [
                format_point(sample_uniform(make[reg.kind](reg.radius), **kw))
                for reg, kw, _ in FROZEN_DRAWS
            ]

        ad._region_about_zero.cache_clear()
        cold = draws()
        warm = draws()
        assert cold == warm == [text for _, _, text in FROZEN_DRAWS]

    def test_returned_exponents_are_a_copy(self):
        before = format_point(sample_uniform(sphere(9), seed=21))
        alphas = ball_exponents(9)
        alphas[2] = 99
        alphas[101] = 1
        del alphas[3]
        assert ball_exponents(9) == alpha_oracle(F(9))
        assert format_point(sample_uniform(sphere(9), seed=21)) == before

    def test_bounded(self):
        size = ad._region_about_zero.cache_info().maxsize
        # a region keeps its plan, built on the first draw only
        for k in range(size + 10):
            ball(_TABLE.fraction_at(k))
        info = ad._region_about_zero.cache_info()
        assert info.currsize <= size == ad._PLAN_CACHE_SIZE


class TestTailAlgebra:
    def test_sum_then_subtract_recovers(self):
        x = sample_uniform(ball(8), seed=1)
        y = sample_uniform(ball(8), seed=2)
        w = sub(add(x, y), y)
        for p in (2, 7, 101):
            cx, cw = x.component(p), w.component(p)
            assert cw.valuation == cx.valuation
            assert cw.digits[: len(cw.digits)] == cx.digits[: len(cw.digits)]

    def test_zero_tail_simplification(self):
        x = pt({2: F(1, 2)})
        y = pt({3: F(2)})
        assert isinstance(add(x, y).tail, ZeroTail)
        assert isinstance(negate(x).tail, ZeroTail)

    def test_negated_tail_negates_each_component(self):
        x = sample_uniform(ball(8), seed=3)
        n = negate(x)
        for p in (11, 101, 997):
            want = ad._negate_component(x.tail.component(p, x.depth), x.depth)
            assert n.component(p) == want

    def test_random_tail_equality(self):
        assert RandomTail(5) == RandomTail(5)
        assert RandomTail(5) != RandomTail(6)


class TestTextFormat:
    def test_frozen_forms(self):
        assert format_point(pt({2: F(1, 2), 5: F(3)})) == "2:-1:1;5:0:3"
        assert format_point(AdelePoint.zero()) == "0"

    def test_round_trip(self):
        pts = [
            pt({2: F(1, 2), 5: F(3)}),
            pt({3: F(9, 1)}),
            AdelePoint.zero(),
            AdelePoint({7: component_from_rational(7, F(0))}),
            AdelePoint({2: component_from_residue(2, 0, 0, 16)}),
        ]
        for x in pts:
            assert parse_point(format_point(x)) == x

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_point("4:0:1")  # not prime
        with pytest.raises(ValueError):
            parse_point("3:0:5")  # digit out of range
        with pytest.raises(ValueError):
            parse_point("3:0:")  # no digits

    def test_sampled_digits_survive(self):
        x = sample_uniform(sphere(9), seed=8)
        y = parse_point(format_point(x))
        for p in x.explicit:
            assert y.component(p).digits == x.component(p).digits
            assert y.component(p).valuation == x.component(p).valuation


# sha256 of the newline-joined format_point texts of seeded draws (seeds
# 0-4 at depths 10 and 16, without and with prime_cutoff=3), frozen from
# the digit-tuple representation that preceded integer units
FROZEN_DRAW_SHA = {
    ("ball", F(1, 7)): "3aced9b5eda16f8abf122104dde702b31d594b94b3e78cb7775484a9f08216da",
    ("ball", F(1, 2)): "baae9a8f4235c830264d6c85525fe0bf8a062bee2bfc05ba0bac47d231100ea3",
    ("ball", F(2)): "6a2cbdb20b90cffea182dcbb5cc995d8e67c5f1eabd45126ea0bff6cc0df605c",
    ("ball", F(9)): "47455ae4c3b6f5c75a2e3282b34953c175627c1b7940541da22082aa59af423f",
    ("ball", F(27)): "11835bb27b32bd628fdf4c0da5b2bd89b2e327e6dc39384ca4a613b848e7a6c1",
    ("sphere", F(1, 7)): "ddec730e901cadee8760d52c4ced1f7bc43b15f58b9ee942344837df97e019cf",
    ("sphere", F(1, 2)): "0e395a6a0a8a3f5aa46e9d2a463ee7f5f15641eec401ca65b76984baf7b6f3bc",
    ("sphere", F(2)): "a887e187b4c2713ab3acc29ed90bf4662449396bf2cd7246cdc8632e368e3c28",
    ("sphere", F(9)): "4b3377ec9f4c8396aebc6e82a8c50b86a4b99ea4af5f2991368ccc082797e391",
    ("sphere", F(27)): "4bbc06b2b792755b4b10f670c0954d87fbb4e13f562f08cdc2f0f4f73d6aa053",
}
# sha256 of sample_path(t=1, alpha=2, dt=0.25, seed=9).to_csv() by steps,
# frozen from the SHAKE-256 tail rule (TestTailRule); the radii and times
# of these paths are frozen from before it (FROZEN_RADII_SHA)
FROZEN_PATH_SHA = {
    25: "08504f0c74545bd7c397158bbd4721d6c1e7934acf97e546eba8948f0bac0857",
    200: "0e7eca73660669ea9269c76fe7f8165782844e5576852e9f75069a285e5417a1",
    800: "3f5f22db9fbc730b0e53379bb2ee727902decde33f4d3a754e005f5117fb55a3",
}
# sha256 of 500 comma-joined norms of sums of two sphere draws, as in the
# semigroup check ("cancel" where the sum was undecidable), frozen from
# the SHAKE-256 tail rule
FROZEN_SUM_NORMS_SHA = (
    "d922d8b9bb44708ac2ea0adac9f086eee730b8233c21a1bc2702094426adc8bc"
)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestIntegerComponents:
    @pytest.mark.seeded_streams
    @pytest.mark.parametrize("key", sorted(FROZEN_DRAW_SHA, key=str))
    def test_seeded_draws_unchanged(self, key):
        kind, r = key
        region = ball(r) if kind == "ball" else sphere(r)
        texts = [
            format_point(sample_uniform(
                region, depth=depth, seed=seed, prime_cutoff=cutoff
            ))
            for depth in (10, 16)
            for cutoff in (None, 3)
            for seed in range(5)
        ]
        assert sha("\n".join(texts)) == FROZEN_DRAW_SHA[key]

    @pytest.mark.seeded_streams
    @pytest.mark.parametrize("steps", sorted(FROZEN_PATH_SHA))
    def test_seeded_paths_unchanged(self, steps):
        path = sample_path(KernelParams(t=1.0, alpha=2.0), steps, 0.25, seed=9)
        assert sha(path.to_csv()) == FROZEN_PATH_SHA[steps]

    @pytest.mark.seeded_streams
    def test_seeded_sum_norms_unchanged(self):
        law = radius_distribution(
            KernelParams(t=0.5, alpha=2.0), F(1, 128), F(128)
        )
        rng = derive_rng(5, "freeze-norms")
        out = []
        while len(out) < 500:
            r1, r2 = law.sample(rng), law.sample(rng)
            if r1 is None or r2 is None:
                continue
            x1 = sample_uniform(sphere(r1), depth=10, rng=rng, prime_cutoff=131)
            x2 = sample_uniform(sphere(r2), depth=10, rng=rng, prime_cutoff=131)
            try:
                out.append(str(norm(add(x1, x2))))
            except IndeterminateCancellation:
                out.append("cancel")
        assert sha(",".join(out)) == FROZEN_SUM_NORMS_SHA

    @pytest.mark.parametrize("text", ["5:z:-2;2:-1:1", "5:z:-1;2:-1:1", "2:z:12"])
    def test_undetermined_share_raises(self, text):
        # shares 25, 5 and 2^-13 of the unknown component exceed the
        # largest known share (2, 2 and 0)
        with pytest.raises(IndeterminateCancellation):
            norm(parse_point(text))

    def test_trailing_zero_digits_are_one_value(self):
        assert parse_point("2:0:1,0") == parse_point("2:0:1")
        assert parse_point("3:-1:2,0,0").component(3).unit == 2
        with pytest.raises(ValueError, match="leading digit"):
            parse_point("3:0:0,1")

    def test_unit_divisible_by_p_rejected(self):
        with pytest.raises(ValueError, match="leading digit"):
            PAdicComponent(3, 1, 6, None)
        assert PAdicComponent(3, 1, 7, None).digits == (1, 2)

    def test_primes_ascending(self):
        primes = list(itertools.islice(ad._primes_ascending(), 200))
        assert primes == primes_upto(1223)


# sha256 of the criterion-5 draw loop (1000 sums at each split: both
# radii, the sum's norm and its format_point, "tail" and "cancel" for
# redrawn pairs) and of sample_path(t=0.1, alpha=2, dt=0.1, seed=7) at
# 200 steps, frozen from the SHAKE-256 tail rule; before it, the same
# streams were checked against the sampler that built every component and
# point through the checked public constructors
FROZEN_SEMIGROUP_STREAM_SHA = (
    "e0f71d155436a2ff695a14af8c4f5b6b9e96b95dd6b494a2aa422e78732d9136"
)
FROZEN_PATH_200_SHA = (
    "bc692caf0566d574253bb5e0b7214d310fc43ee3c636b8594e0487e956880b9b"
)


def semigroup_stream(per_split):
    """(r1, r2, sum) triples of the criterion-5 loop; None for a redraw."""
    window = (F(1, 128), F(128))
    for t, s in ((0.5, 0.5), (0.2, 0.8)):
        law_t = radius_distribution(KernelParams(t=t, alpha=2.0), *window)
        law_s = radius_distribution(KernelParams(t=s, alpha=2.0), *window)
        rng = derive_rng(16, "semigroup", f"{t}+{s}")
        draws = 0
        while draws < per_split:
            r1, r2 = law_t.sample(rng), law_s.sample(rng)
            if r1 is None or r2 is None:
                yield "tail", None
                continue
            x1 = sample_uniform(sphere(r1), depth=10, rng=rng, prime_cutoff=131)
            x2 = sample_uniform(sphere(r2), depth=10, rng=rng, prime_cutoff=131)
            try:
                total = add(x1, x2)
                rad = norm(total)
            except IndeterminateCancellation:
                yield "cancel", (x1, x2)
                continue
            yield f"{r1}|{r2}|{rad}|{format_point(total)}", (x1, x2, total)
            draws += 1


def assert_canonical(x):
    assert list(x.explicit) == sorted(x.explicit)
    for p, c in x.explicit.items():
        assert c.p == p
        if c.valuation is None:
            assert c.unit == 0
        else:
            assert c.unit % p != 0, (p, c)


class TestTrustedPath:
    """Sampler and sums build components and points unchecked; these pin
    that they still meet the invariants the public constructors check."""

    @pytest.mark.seeded_streams
    def test_seeded_semigroup_stream_unchanged(self):
        h = hashlib.sha256()
        for line, _ in semigroup_stream(1000):
            h.update(f"{line}\n".encode())
        assert h.hexdigest() == FROZEN_SEMIGROUP_STREAM_SHA

    @pytest.mark.seeded_streams
    def test_seeded_path_unchanged(self):
        path = sample_path(KernelParams(t=0.1, alpha=2), 200, 0.1, seed=7)
        assert sha(path.to_csv()) == FROZEN_PATH_200_SHA

    @pytest.mark.parametrize("make,radius", [
        (sphere, 6), (sphere, F(1, 6)), (sphere, -2), (ball, 0),
    ])
    def test_invalid_radius_raises_every_time(self, make, radius):
        for _ in range(3):
            with pytest.raises(ValueError):
                make(radius)

    def test_region_about_zero_validated_once(self):
        for r in (F(1, 49), F(8), 9, 0.5):
            assert sphere(r) == Region("sphere", r)
            assert ball(r) == Region("ball", r)
            assert sphere(r) is sphere(r)
            assert sphere(r).radius == ball(r).radius == F(r)
        center = sample_uniform(ball(2), seed=1)
        assert sphere(9, center) is not sphere(9, center)
        assert sphere(9, center) == Region("sphere", F(9), center)

    def test_public_region_draws_alike(self):
        ad._region_about_zero.cache_clear()
        for reg, kw, text in FROZEN_DRAWS:
            fresh = Region(reg.kind, reg.radius)
            assert format_point(sample_uniform(fresh, **kw)) == text

    def test_sampled_and_summed_points_are_canonical(self):
        points = 0
        for _, pts in semigroup_stream(2500):
            for x in pts or ():
                assert_canonical(x)
                points += 1
        assert points >= 10**4
        rng = derive_rng(16, "trusted-balls")
        for r in (F(1, 8), F(1, 3), F(2), F(9), F(31)):
            for _ in range(40):
                x = sample_uniform(ball(r), depth=6, rng=rng)
                y = sample_uniform(sphere(F(1, 3)), depth=6, rng=rng)
                for z in (x, y):
                    assert_canonical(z)
                try:
                    assert_canonical(sub(x, y))
                    assert_canonical(add(negate(x), y))
                except IndeterminateCancellation:
                    pass

    @pytest.fixture
    def fresh_table(self, monkeypatch):
        table = pp._PowerTable()
        monkeypatch.setattr(pp, "_TABLE", table)
        monkeypatch.setattr(ad, "_TABLE", table)
        return table

    @pytest.mark.parametrize("radius", [F(10000019), F(1, 9999991)])
    def test_volume_past_the_phi_cap_refused_before_sieving(
        self, fresh_table, radius
    ):
        start = time.perf_counter()
        for kind in ("ball", "sphere", "ball"):
            with pytest.raises(ValueError, match=(
                f"^phi of {radius} would hold .* past the cap of 2\\^18 bits"
            )):
                haar_volume(Region(kind, radius))
        assert time.perf_counter() - start < 0.1
        assert fresh_table._limit == 512

    @pytest.mark.parametrize("radius,message", [
        (F(10000021), "10000021 is not a prime power"),
        (F(1, 10000021), "1/10000021 is not a prime power"),
        (F(10000021, 2), "10000021/2 is not a prime power"),
        (F(2 ** 61 - 1), "cannot be sieved to 2305843009213693951: sieve "
                         "bounds are capped at 2\\^26"),
        (F(1, 10 ** 4000 + 1), "capped at 2\\^26"),
    ])
    def test_invalid_radius_refused_before_sieving(
        self, fresh_table, radius, message
    ):
        start = time.perf_counter()
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                Region("sphere", radius)
        assert time.perf_counter() - start < 0.1
        assert fresh_table._limit == 512

    def test_public_component_still_checked(self):
        with pytest.raises(ValueError, match="leading digit"):
            PAdicComponent(2, 0, 4, None)
        with pytest.raises(ValueError, match="leading digit"):
            AdelePoint({2: PAdicComponent(2, 1, 6, 3)})
        unsorted = AdelePoint({5: component_from_rational(5, F(5)),
                               2: component_from_rational(2, F(1, 2))})
        assert list(unsorted.explicit) == [2, 5]


class TestStdlibDraws:
    """The sampler's digit draws are what the stdlib calls they replace
    would draw: the references below are random.Random and PAdicComponent
    as such."""

    def test_below_is_randrange(self):
        sizes = [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 10**6]
        sizes += [2 ** k + d for k in (31, 32, 33, 63, 64, 65, 200)
                  for d in (-1, 0, 1)]
        for seed in range(40):
            ref, fast = random.Random(seed), random.Random(seed)
            bits = fast.getrandbits
            extra = random.Random(-seed - 1)
            ns = sizes + [extra.randrange(1, 2 ** extra.randrange(1, 900))
                          for _ in range(30)]
            for n in ns:
                assert ad._below(bits, n) == ref.randrange(n), (seed, n)
                if n >= 2:
                    assert 1 + ad._below(bits, n - 1) == ref.randrange(1, n)
            # the two streams stayed in step: the same next word
            assert fast.getrandbits(64) == ref.getrandbits(64)

    def test_trusted_component_is_the_checked_one(self):
        args = [(2, None, 0, None), (3, None, 0, 7), (5, -2, 3, None),
                (7, 0, 1, 16), (8191, 4, 8190, 20), (2, -9, 2 ** 40 + 1, 3)]
        for a in args:
            fast, checked = ad._trusted_component(*a), PAdicComponent(*a)
            assert type(fast) is PAdicComponent
            assert fast == checked and hash(fast) == hash(checked), a
            assert repr(fast) == repr(checked)
            with pytest.raises(AttributeError):
                fast.unit = 0


def shake_tail_residue(seed, p, depth, chunks=64):
    """The tail rule, read from hashlib.shake_256 itself: the first chunk
    below n = p^depth of its output, cut into B-byte big-endian chunks
    (k = bits(n - 1), B = ceil(k / 8)) of which the low k bits are kept.
    Returns the residue and the index of its chunk; the output is fetched
    `chunks` chunks at a time, from the start on each fetch."""
    n = p ** depth
    k = (n - 1).bit_length()
    size = -(-k // 8)
    key = "|".join(map(repr, (seed, "tail", p))).encode()
    index = 0
    while True:
        out = hashlib.shake_256(key).digest((index + chunks) * size)
        for j in range(index, index + chunks):
            r = int.from_bytes(out[j * size:(j + 1) * size], "big") % 2 ** k
            if r < n:
                return r, j
        index += chunks


def tail_value(c):
    """The residue of a materialized tail component (value exponent 0)."""
    return 0 if c.valuation is None else c.p ** c.valuation * c.unit


# (p, depth) with p^depth just above a power of two, so that nearly half
# of all chunks are rejected
FORCED_REJECTIONS = [(3, 1), (5, 1), (17, 1), (257, 1), (3, 2), (3, 12),
                     (257, 3), (65537, 2)]


@pytest.mark.seeded_streams
class TestTailRule:
    """RandomTail.component is the residue of the SHAKE-256 rule."""

    def test_tail_read_is_the_shake_256_rule(self):
        grid = random.Random(2024)
        primes = primes_upto(8191)
        cases = [(p, d) for p in (2, 3, 8191) for d in (4, 16, 1024)]
        cases += [(grid.choice(primes), grid.choice((4, 5, 16, 64, 255, 1024)))
                  for _ in range(150)]
        cases += [case for case in FORCED_REJECTIONS for _ in range(150)]
        deepest = 0
        for p, depth in cases:
            seed = grid.getrandbits(63)
            want, index = shake_tail_residue(seed, p, depth, chunks=3)
            if p == 2:
                assert index == 0  # a power of two never rejects
            deepest = max(deepest, index)
            got = RandomTail(seed, depth).component(p, depth)
            assert got == component_from_residue(p, 0, want, depth), (
                seed, p, depth)
        # some reads rejected every chunk of the first two fetches
        assert deepest >= 2 * ad._TAIL_FETCH_CHUNKS

    @pytest.mark.parametrize("chunks", [1, 2, 3, 7])
    def test_residue_does_not_depend_on_fetch_length(self, monkeypatch,
                                                     chunks):
        monkeypatch.setattr(ad, "_TAIL_FETCH_CHUNKS", chunks)
        for p, depth in FORCED_REJECTIONS:
            for seed in range(60):
                got = RandomTail(seed, depth).component(p, depth)
                want, _ = shake_tail_residue(seed, p, depth, chunks=64)
                assert tail_value(got) == want, (chunks, seed, p, depth)

    @pytest.mark.parametrize("p,depth", [(2, 4), (3, 4), (7, 3), (31, 2),
                                         (257, 1), (3, 12), (8191, 1)])
    def test_residues_are_uniform(self, p, depth):
        # chi-square of the residue mod p and of the leading digit over
        # fixed seeds; the rule's rejection must leave both uniform
        from scipy.stats import chisquare

        n = max(4000, 20 * p)
        low, lead = [0] * p, [0] * p
        for seed in range(n):
            t = tail_value(RandomTail(seed, depth).component(p, depth))
            low[t % p] += 1
            lead[t // p ** (depth - 1)] += 1
        for counts in (low, lead):
            assert chisquare(counts).pvalue > 1e-3, counts


# sha256 of the "time radius" lines of sample_path(t=1, alpha=2, dt=0.25,
# seed=9) by steps, frozen from the MT19937 tail reads that preceded the
# SHAKE-256 rule: the radii and times come from the path streams alone,
# and no tail digit decided a resample (the battery's simulate is checked
# in test_cli.py)
FROZEN_RADII_SHA = {
    25:
        "6cd1e31571d1df70456d71e0e30ef58bb67b00c44e99d1b8fe249a6afb689e19",
    200:
        "ad8160e826abdb190689c3d41f50043601aa7ae4c410d19a33cd6165ca89ca24",
    800:
        "873e3aa3b0760411852f21c23ede1c68c90984fc9c56ea0edf021e7a27519c03",
}
# sha256 of the newline-joined "r1|r2" of the 2000 accepted draws of
# semigroup_stream(1000), frozen from the same MT19937 tail reads
FROZEN_SEMIGROUP_RADII_SHA = (
    "4f4eda371c3f79eabe649694cd4e36a6b30e17bb412dc05b277eb23a400dd7c0"
)


def radius_time_sha(path):
    return sha("\n".join(f"{t!r} {r}"
                         for t, r in zip(path.times[1:], path.radii)))


@pytest.mark.seeded_streams
class TestSeededRadii:
    """The tail rule changes tail-derived digits only: each path's radius
    and time sequences, and the semigroup stream's radius pairs, hash as
    before it."""

    @pytest.mark.parametrize("steps", sorted(FROZEN_RADII_SHA))
    def test_path_radii_unchanged(self, steps):
        path = sample_path(KernelParams(1.0, 2.0), steps, 0.25, seed=9)
        assert path.cancel_resamples == 0
        assert radius_time_sha(path) == FROZEN_RADII_SHA[steps]

    def test_semigroup_radius_pairs_unchanged(self):
        pairs = [line.rsplit("|", 2)[0] for line, _ in semigroup_stream(1000)
                 if line not in ("tail", "cancel")]
        assert len(pairs) == 2000
        assert sha("\n".join(pairs)) == FROZEN_SEMIGROUP_RADII_SHA


# RandomTail.component calls, counted at the MT19937 tail reads that
# preceded the SHAKE-256 rule. A path step and a sum read the tails of the
# primes one summand holds explicitly and the other does not, which the
# path streams alone decide. norm's scan over the implicit primes goes on
# past a prime whose tail digits leave the maximum undecided, so its count
# depends on the digits: 918 reads before the rule, 912 after it, and a
# mean of 931 with standard deviation 16 over 30 re-keyed tail streams.
TAIL_READS_PATH_800 = 1678
TAIL_READS_SEMIGROUP_SUMS = 1599
TAIL_READS_SEMIGROUP_NORMS = 918
NORM_READS_SLACK = 80


class TestTailReadCount:
    """The number of tail reads, which perfbench reports per op as
    adele.tail_materializations_per_op."""

    @pytest.fixture
    def reads(self, monkeypatch):
        count = [0]
        read = RandomTail.component

        def counted(tail, p, depth):
            count[0] += 1
            return read(tail, p, depth)

        monkeypatch.setattr(RandomTail, "component", counted)
        return count

    def test_path_reads_frozen(self, reads):
        sample_path(KernelParams(1.0, 2.0), 800, 0.25, seed=9)
        assert reads[0] == TAIL_READS_PATH_800

    def test_semigroup_reads_frozen(self, reads, monkeypatch):
        in_norm = [0]
        real_norm = norm

        def counted_norm(x):
            before = reads[0]
            try:
                return real_norm(x)
            finally:
                in_norm[0] += reads[0] - before

        monkeypatch.setitem(globals(), "norm", counted_norm)
        draws = sum(line not in ("tail", "cancel")
                    for line, _ in semigroup_stream(1000))
        assert draws == 2000
        assert reads[0] - in_norm[0] == TAIL_READS_SEMIGROUP_SUMS
        assert abs(in_norm[0] - TAIL_READS_SEMIGROUP_NORMS) <= NORM_READS_SLACK
