"""Radial step algebra and exact Fourier transform tests.

The transform of a ball indicator is known in closed form, so the frozen
cases below are hand computations. The oracle re-evaluates transforms via
the radial sum formula sum_{q < 1/s} phi(q) (f(q) - f(next q)), which is an
independent code path from the ball-coefficient map the library uses.
"""
import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from adelic import phi, pp_range, prev_pp
from adelic import primepow as pp
from adelic.radial import RadialStep, ft_ball_eval, integrate_radial

# ---- frozen expected values ----
FT_BALL_HALF = {F(1, 2): F(1)}          # self-dual
FT_BALL_2 = {F(1, 3): F(2)}             # phi(2) on B(prev(1/2))
FT_SPHERE_2 = {F(1, 3): F(2), F(1, 2): F(-1)}
INT_BALL_8 = F(840)

POOL = [
    F(1, 9), F(1, 8), F(1, 7), F(1, 5), F(1, 4), F(1, 3), F(1, 2),
    F(2), F(3), F(4), F(5), F(7), F(8), F(9), F(16),
]


def random_step(rng):
    radii = rng.sample(POOL, rng.randint(1, 5))
    coeffs = {}
    for r in radii:
        c = F(rng.randint(-9, 9), rng.randint(1, 7))
        if c:
            coeffs[r] = c
    return RadialStep(coeffs)


def ft_oracle_value(f: RadialStep, s):
    """Literal sum formula; the value differences f(q) - f(next q) are the
    ball coefficients, nonzero at finitely many prime powers."""
    s = F(s)
    total = F(0)
    for q, c in f.coeffs.items():
        if s == 0 or q < 1 / s:
            total += phi(q) * c
    return total


class TestClosedForms:
    def test_ball_indicators(self):
        assert RadialStep.ball_indicator(F(1, 2)).ft().coeffs == FT_BALL_HALF
        assert RadialStep.ball_indicator(2).ft().coeffs == FT_BALL_2

    def test_sphere_two(self):
        assert RadialStep.sphere_indicator(2).ft().coeffs == FT_SPHERE_2

    def test_integral(self):
        assert RadialStep.ball_indicator(8).integral() == INT_BALL_8
        assert RadialStep.sphere_indicator(8).integral() == INT_BALL_8 - phi(7)


class TestTransform:
    def test_involution(self):
        rng = random.Random(2024)
        for _ in range(50):
            f = random_step(rng)
            assert f.ft().ft() == f

    def test_parseval_exact(self):
        rng = random.Random(99)
        for _ in range(50):
            f, g = random_step(rng), random_step(rng)
            assert f.inner_product(g) == f.ft().inner_product(g.ft())
            assert f.l2_norm_sq() == f.ft().l2_norm_sq()

    def test_value_at_zero_is_integral(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_step(rng)
            assert f.ft().value_at_zero() == f.integral()
            assert f.value_at_zero() == f.ft().integral()

    def test_support_law(self):
        rng = random.Random(31)
        for _ in range(20):
            f = random_step(rng)
            if f.is_zero():
                continue
            expected = prev_pp(1 / min(f.coeffs)).value
            assert max(f.ft().coeffs) == expected

    def test_sum_formula_oracle(self):
        rng = random.Random(55)
        eval_points = [F(0)] + POOL + [F(27), F(1, 27)]
        for _ in range(20):
            f = random_step(rng)
            g = f.ft()
            for s in eval_points:
                assert g.value(s) == ft_oracle_value(f, s)

    def test_linearity(self):
        rng = random.Random(5)
        for _ in range(20):
            f, g = random_step(rng), random_step(rng)
            a, b = F(3, 2), F(-7, 5)
            assert (a * f + b * g).ft() == a * f.ft() + b * g.ft()


class TestStepAlgebra:
    def test_values(self):
        ball = RadialStep.ball_indicator(4)
        assert ball.value(0) == 1
        assert ball.value(F(1, 7)) == 1
        assert ball.value(4) == 1
        assert ball.value(5) == 0
        s = RadialStep.sphere_indicator(2)
        assert s.value(2) == 1
        assert s.value(F(1, 2)) == 0 and s.value(3) == 0 and s.value(0) == 0

    def test_sphere_values_roundtrip(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_step(rng)
            if f.is_zero():
                continue
            vals = dict(f.sphere_values())
            inner = f.value(prev_pp(min(f.coeffs)).value)
            assert RadialStep.from_sphere_values(vals, inner) == f

    def test_vector_space_ops(self):
        f = RadialStep.ball_indicator(2)
        g = RadialStep.sphere_indicator(2)
        assert f - g == RadialStep.ball_indicator(F(1, 2))
        assert -(-f) == f
        assert 2 * f - f == f
        assert f + RadialStep.zero() == f

    def test_mean_zero(self):
        f = RadialStep({F(2): 1, F(1, 2): -2})
        assert f.integral() == 0
        assert f.ft().value_at_zero() == 0
        assert RadialStep.ball_indicator(2).integral() != 0

    def test_split_inner(self):
        f = RadialStep.ball_indicator(4) + RadialStep.sphere_indicator(8)
        c0, rho, rest = f.split_inner()
        assert c0 == 1
        assert rest.has_zero_inner_value()
        assert RadialStep({rho: c0}) + rest == f
        g = RadialStep.sphere_indicator(3)
        assert g.split_inner() == (0, None, g)

    def test_apply_multiplier(self):
        g = RadialStep.sphere_indicator(4) * 3
        h = g.apply_multiplier(lambda r: r * r)
        assert h.value(4) == 48
        assert h.value(2) == 0 and h.value(8) == 0
        with pytest.raises(ValueError):
            RadialStep.ball_indicator(2).apply_multiplier(lambda r: r)

    def test_multiplier_matches_manual_semigroup(self):
        # e^{-t r} per sphere, floats entering exactly as dyadics
        f = RadialStep.sphere_indicator(2) - RadialStep.sphere_indicator(4)
        t = 0.25
        h = f.apply_multiplier(lambda r: math.exp(-t * float(r)))
        assert h.value(2) == F(math.exp(-0.5))
        assert h.value(4) == -F(math.exp(-1.0))


class TestNumeric:
    def test_integrate_radial_exact(self):
        total = integrate_radial(lambda r: F(1), F(1, 8), 8)
        assert total == phi(8) - phi(F(1, 8))
        weighted = integrate_radial(lambda r: r, F(1, 2), 4)
        manual = sum(
            q.value * (phi(q.value) - phi(prev_pp(q.value).value))
            for q in pp_range(F(1, 2), 4)
        )
        assert weighted == manual

    def test_integrate_radial_float(self):
        total = integrate_radial(lambda r: float(r) ** 2, F(1, 8), 8)
        exact = integrate_radial(lambda r: r * r, F(1, 8), 8)
        assert math.isclose(total, float(exact), rel_tol=1e-12)

    def test_ft_ball_eval_constant_profile(self):
        # constant profile: transform of a plain ball indicator, known exactly
        expected = RadialStep.ball_indicator(4).ft()
        for s in [F(0), F(1, 9), F(1, 5), F(1, 4), F(1, 3), F(2)]:
            val, bound = ft_ball_eval(lambda q: 1.0, 4, s, 1.0, tol=1e-12)
            assert abs(val - float(expected.value(s))) <= bound + 1e-12

    def test_ft_ball_eval_exponential_profile(self):
        from adelic import next_pp

        prof = lambda q: math.exp(-float(q))
        val, bound = ft_ball_eval(prof, 4, F(1, 5), 1.0, tol=1e-13)
        # brute reference down to 1/2^10 plus its own telescoped tail bound
        cut = F(1, 1 << 10)
        radii = [q.value for q in pp_range(cut, 4)] + [cut]
        brute = math.fsum(
            float(phi(q))
            * (
                (prof(q) if q <= 4 else 0.0)
                - (prof(nxt) if (nxt := next_pp(q).value) <= 4 else 0.0)
            )
            for q in radii
        )
        brute_tail = float(phi(prev_pp(cut).value)) * (1.0 - prof(cut))
        assert abs(val - brute) <= bound + brute_tail + 1e-15
        assert bound < 1e-13

    def test_ft_ball_eval_outside_support(self):
        val, bound = ft_ball_eval(lambda q: 1.0, 2, F(1, 2), 1.0, tol=1e-12)
        assert val == 0.0  # transform supported in B(1/3)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            f = random_step(rng)
            assert RadialStep.from_json(f.to_json()) == f

    def test_key_format(self):
        f = RadialStep({F(1, 9): F(3, 7), F(8): -2})
        d = f.to_dict()
        assert d["ball_coefficients"] == {"3^-2": "3/7", "2^3": "-2"}


class TestRankWalk:
    # transforms computed by the Fraction-stepping implementation that
    # preceded the rank walk
    FT_FROZEN = [
        (RadialStep.sphere_indicator(F(2)).ft(),
         "RadialStep({1/2: -1, 2: 1})"),
        (RadialStep({F(1, 9): F(3, 7), F(2): F(1, 3), F(8): -2}),
         "RadialStep({1/9: -1680, 1/3: 2/3, 8: 1/1960})"),
    ]

    @pytest.mark.parametrize("f,want", FT_FROZEN)
    def test_ft_unchanged(self, f, want):
        assert repr(f.ft()) == want

    def test_ft_one_rank_lookup_per_coefficient(self, monkeypatch):
        calls = []
        rank_floor = pp._TABLE.rank_floor

        def counted(x):
            calls.append(x)
            return rank_floor(x)

        monkeypatch.setattr(pp._TABLE, "rank_floor", counted)
        rng = random.Random(5)
        for _ in range(20):
            f = random_step(rng)
            calls.clear()
            f.ft()
            assert len(calls) <= len(f.coeffs)

    def test_built_steps_are_canonical(self):
        # steps built inside the module skip validation; they must still
        # equal what the validating constructor makes of the same map
        rng = random.Random(9)
        for _ in range(30):
            f, g = random_step(rng), random_step(rng)
            for h in (f.ft(), f + g, f - g, -f, f * F(-3, 4), f * 0):
                assert h.coeffs == RadialStep(h.coeffs).coeffs
                assert list(h.coeffs) == sorted(h.coeffs)
                assert all(type(c) is F and c for c in h.coeffs.values())
            vals = dict(f.sphere_values())
            if vals:
                back = RadialStep.from_sphere_values(vals, f.value_at_zero())
                assert back == f
                assert back.coeffs == RadialStep(back.coeffs).coeffs

    def test_from_sphere_values_validates_radii(self):
        with pytest.raises(ValueError):
            RadialStep.from_sphere_values({F(6): 1})
        with pytest.raises(ValueError):
            RadialStep.from_sphere_values({F(2): 1, F(4): 1})


class TestRankKeyed:
    # sha256 of reprs, JSON, transforms, integrals, sphere values, inner
    # splits and all pairwise inner products of 50 seeded steps, computed
    # by the Fraction-keyed implementation that preceded rank keys
    FROZEN_DIGEST = (
        "41e9a3d1d1a429c437a17dc3d06184a45e646ff9187977b747f9fa27fac80d9e"
    )

    def test_outputs_unchanged(self):
        rng = random.Random(20261018)
        steps = [random_step(rng) for _ in range(50)]
        h = hashlib.sha256()
        for f in steps:
            h.update(f"{f!r}|{f.to_json()}|{f.ft()!r}|{f.integral()}|"
                     f"{f.sphere_values()}|{f.split_inner()}\n".encode())
        for f in steps:
            h.update(",".join(str(f.inner_product(g)) for g in steps).encode())
        assert h.hexdigest() == self.FROZEN_DIGEST

    @pytest.mark.parametrize("op", [
        lambda f, g: f.ft(),
        lambda f, g: f.inner_product(g),
        lambda f, g: f.integral(),
        lambda f, g: f.sphere_values(),
        lambda f, g: f.split_inner(),
        lambda f, g: f.to_dict(),
    ], ids=["ft", "inner_product", "integral", "sphere_values",
            "split_inner", "to_dict"])
    def test_no_rank_lookups(self, monkeypatch, op):
        calls = []
        rank_floor = pp._TABLE.rank_floor

        def counted(x):
            calls.append(x)
            return rank_floor(x)

        rng = random.Random(6)
        pairs = [(random_step(rng), random_step(rng)) for _ in range(20)]
        monkeypatch.setattr(pp._TABLE, "rank_floor", counted)
        for f, g in pairs:
            op(f, g)
        assert calls == []

    def test_coeffs_read_only_view(self):
        f = RadialStep({F(8): 1, F(1, 9): F(3, 7)})
        assert list(f.coeffs.items()) == [(F(1, 9), F(3, 7)), (F(8), F(1))]
        f.coeffs[F(2)] = F(5)  # a fresh dict: the step is unchanged
        assert f == RadialStep({F(1, 9): F(3, 7), F(8): 1})
        with pytest.raises(AttributeError):
            f.coeffs = {}

    def test_sphere_indicator_validates(self):
        assert RadialStep.sphere_indicator(F(1, 2)) == RadialStep(
            {F(1, 2): 1, F(1, 3): -1}
        )
        for bad in (F(1), F(6), F(5, 3)):
            with pytest.raises(ValueError, match="not a prime power"):
                RadialStep.sphere_indicator(bad)

    def test_radius_past_sieve_cap(self):
        with pytest.raises(ValueError, match="capped"):
            RadialStep({F(2) ** 27: 1})


def gapped_step(rng):
    """Up to 6 coefficients on ranks -12..11: gaps between them, ranks on
    both sides of -1 (radius 1/2) and, now and then, a zero integral."""
    ranks = sorted(rng.sample(range(-12, 12), rng.randint(0, 6)))
    f = RadialStep._trusted(
        {k: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
         for k in ranks}
    )
    if ranks and rng.random() < 0.25:
        f = f - RadialStep.ball_indicator(pp._TABLE.fraction_at(ranks[0])) \
            * (f.integral() / pp._TABLE.phi_at(ranks[0]))
    return f


class TestOnePassTransform:
    EDGE_CASES = [
        RadialStep.zero(),
        RadialStep.ball_indicator(F(1, 2)),
        RadialStep({F(7): F(-3, 5)}),
        RadialStep({F(2): 1, F(1, 2): -2}),          # zero integral, rank -1/0
        RadialStep.sphere_indicator(F(2)).ft(),      # zero inner value
        RadialStep({F(1, 9): F(3, 7), F(2): F(1, 3), F(8): -2}),
    ]

    @staticmethod
    def three_passes(f):
        c0, rho, rest = f.ft().split_inner()
        k0, values = rest._rank_values()
        return c0, rho, k0, values

    def check(self, f):
        c0, rho, k0, pairs = f._ft_sphere_pairs()
        assert all(type(n) is int and type(d) is int and d > 0
                   for n, d in pairs)
        values = [F(n, d) for n, d in pairs]
        assert type(c0[0]) is int and type(c0[1]) is int and c0[1] > 0
        assert (F(*c0), rho, k0, values) == self.three_passes(f)

    @pytest.mark.parametrize("f", EDGE_CASES)
    def test_edge_cases(self, f):
        self.check(f)

    def test_seeded_steps(self):
        rng = random.Random(20261019)
        zero_inner = 0
        for _ in range(300):
            f = gapped_step(rng)
            zero_inner += not f.is_zero() and f.integral() == 0
            self.check(f)
        assert zero_inner > 10

    def test_no_rank_lookups(self, monkeypatch):
        rng = random.Random(3)
        steps = [gapped_step(rng) for _ in range(20)]
        monkeypatch.setattr(pp._TABLE, "rank_floor", None)
        for f in steps:
            f._ft_sphere_pairs()


class TestNormBySymmetry:
    def test_l2_norm_sq_is_the_inner_product(self):
        rng = random.Random(1919)
        for _ in range(200):
            f = gapped_step(rng)
            assert f.l2_norm_sq() == f.inner_product(f)


class TestValueByRank:
    @staticmethod
    def coefficient_sum(f, s):
        s = F(s)
        return sum((c for r, c in f.coeffs.items() if r >= s), F(0))

    def test_matches_the_coefficient_sum(self):
        rng = random.Random(8)
        points = [0, F(1, 10), F(1, 9), F(1, 6), F(1, 2), F(3, 4), F(1),
                  F(2), F(5, 2), F(3), F(6), F(7), F(10), F(11), 0.3, 2.5]
        for _ in range(100):
            f = gapped_step(rng)
            for s in points:
                got = f.value(s)
                assert type(got) is F
                assert got == self.coefficient_sum(f, s)

    def test_points_past_the_envelope_rank_nothing(self, monkeypatch):
        # past the cap in either direction: ranking these would sieve
        f = RadialStep({F(1, 3): 2, F(4): F(-1, 2)})
        monkeypatch.setattr(pp._TABLE, "rank_floor", None)
        assert f.value(F(2) ** 40) == 0
        assert f.value(F(1, 2 ** 40)) == F(3, 2)
        assert f.value(F(1, 3)) == F(3, 2)


class TestTableReads:
    def test_radius_keys_build_no_prime_power(self, monkeypatch):
        f = RadialStep({F(1, 9): F(3, 7), F(8): -2, F(1, 2): 1, F(2): 5})
        want = f.to_json()
        monkeypatch.setattr(pp._TABLE, "at", None)
        assert f.to_json() == want
        assert f.to_dict()["ball_coefficients"] == {
            "3^-2": "3/7", "2^-1": "1", "2^1": "5", "2^3": "-2"}

    def test_ft_ball_eval_one_phi_per_term(self, monkeypatch):
        # the reference loop reads phi(q) and phi(prev q) for every term;
        # the walk carries phi(prev q) over as the next term's phi(q)
        table = pp._TABLE

        def reference(profile, rho, s, at_zero, tol):
            k_rho = table.rank_floor(F(rho))
            k = min(k_rho, -2 - table.rank_floor(F(s))) if s else k_rho

            def f_at(rank):
                return 0.0 if rank > k_rho else float(
                    profile(table.fraction_at(rank)))
            terms, f_up = [], f_at(k + 1)
            while True:
                f_q = f_at(k)
                terms.append(float(table.phi_at(k)) * (f_q - f_up))
                bound = float(table.phi_at(k - 1)) * abs(f_q - at_zero)
                if bound < tol:
                    return math.fsum(terms), bound, len(terms)
                f_up = f_q
                k -= 1

        calls = []
        phi_float_at = table.phi_float_at

        def counted(rank):
            calls.append(rank)
            return phi_float_at(rank)

        for rho, s in ((F(8), 0), (F(5), F(1, 3)), (F(1, 2), F(2)),
                       (F(27), F(1, 7))):
            profile = lambda q: math.exp(-0.7 * float(q) ** 1.5)
            value, bound, n = reference(profile, rho, s, 1.0, 1e-12)
            monkeypatch.setattr(table, "phi_float_at", counted)
            calls.clear()
            assert ft_ball_eval(profile, rho, s, 1.0, tol=1e-12) == (
                value, bound)
            monkeypatch.setattr(table, "phi_float_at", phi_float_at)
            assert len(calls) == n + 1
