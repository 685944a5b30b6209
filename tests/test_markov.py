"""Simulation layer tests: increment law, paths, transition probabilities."""
import math
from fractions import Fraction as F

import pytest

from adelic import markov as mk
from adelic.adele import AdelePoint, add, norm, sample_uniform, sphere, sub
from adelic.errors import ToleranceError
from adelic.heatkernel import (
    KernelParams,
    ball_mass,
    tail_mass_bound,
    upper_tail_mass,
    z_finite,
)
from adelic.primepow import _TABLE, phi, prev_pp
from adelic.util import derive_rng

P1 = KernelParams(t=1.0, alpha=2.0)


class TestRadiusDistribution:
    def test_total_mass(self):
        dist = mk.radius_distribution(P1, F(1, 128), F(128))
        total = math.fsum(m for _, m in dist.entries) + dist.tail_mass
        assert abs(total - 1.0) < 1e-6
        assert all(m >= 0 for _, m in dist.entries)

    def test_masses_match_kernel(self):
        dist = mk.radius_distribution(P1, F(1, 4), F(8))
        for r, m in dist.entries:
            vol = phi(r) - phi(prev_pp(r).value)
            assert math.isclose(m, z_finite(r, P1) * float(vol), rel_tol=1e-9)

    def test_small_time_tail_bounded(self):
        p = KernelParams(t=0.01, alpha=2.0)
        dist = mk.radius_distribution(p, F(1, 128), F(128))
        above_two = math.fsum(m for r, m in dist.entries if r > 2)
        assert above_two + dist.tail_mass <= tail_mass_bound(F(2), p)

    def test_invalid_mass_vector_rejected(self):
        with pytest.raises(ToleranceError):
            mk.RadiusDistribution(
                entries=((F(2), 0.5),), tail_mass=0.1, params=P1
            )

    def test_sampling_deterministic(self):
        dist = mk.radius_distribution(P1, F(1, 16), F(16))
        r1 = derive_rng(5, "s")
        r2 = derive_rng(5, "s")
        a = [dist.sample(r1) for _ in range(50)]
        b = [dist.sample(r2) for _ in range(50)]
        assert a == b


class TestSamplePath:
    def test_zero_steps(self):
        path = mk.sample_path(P1, 0, 0.5, seed=1)
        assert path.times == (0.0,)
        assert path.points == (AdelePoint.zero(),)
        assert path.radii == ()

    def test_determinism(self):
        a = mk.sample_path(P1, 25, 0.25, seed=9)
        b = mk.sample_path(P1, 25, 0.25, seed=9)
        assert a == b
        c = mk.sample_path(P1, 25, 0.25, seed=9, path_index=1)
        assert c.radii != a.radii

    def test_radii_are_increment_norms(self):
        path = mk.sample_path(P1, 40, 0.2, seed=4)
        for i, r in enumerate(path.radii):
            assert norm(sub(path.points[i + 1], path.points[i])) == r

    def test_real_coordinate_gaussian(self):
        p = KernelParams(t=1.0, alpha=2.0, beta=2.0)
        path = mk.sample_path(p, 30, 0.5, seed=2)
        assert path.real_coords is not None
        assert len(path.real_coords) == 31
        assert path.real_coords[0] == 0.0
        # without beta there is no real track
        assert mk.sample_path(P1, 3, 0.5, seed=2).real_coords is None

    def test_real_coordinate_cauchy(self):
        p = KernelParams(t=1.0, alpha=2.0, beta=1.0)
        path = mk.sample_path(p, 30, 0.5, seed=2)
        assert path.real_coords is not None

    def test_unsupported_real_exponent(self):
        p = KernelParams(t=1.0, alpha=2.0, beta=1.5)
        with pytest.raises(ValueError):
            mk.sample_path(p, 3, 0.5, seed=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            mk.sample_path(P1, -1, 0.5)
        with pytest.raises(ValueError):
            mk.sample_path(P1, 1, 0.0)
        with pytest.raises(ValueError):
            mk.sample_path(
                P1, 1, 0.5,
                trunc=mk.Truncation(r_min=F(1, 128), prime_cutoff=50),
            )

    def test_csv_round(self):
        p = KernelParams(t=1.0, alpha=2.0, beta=2.0)
        path = mk.sample_path(p, 5, 0.5, seed=8)
        text = path.to_csv()
        lines = text.splitlines()
        assert lines[0] == "step,time,radius,real_coord,point"
        assert len(lines) == 7
        assert lines[1].startswith("0,0,,0,")
        assert text == mk.sample_path(p, 5, 0.5, seed=8).to_csv()


@pytest.fixture
def law_builds(monkeypatch):
    """Counts increment-law builds, the way the benchmark's tracer does,
    with the law cache emptied before and after the test."""
    calls = []
    build = mk.radius_distribution

    def counted(*args):
        calls.append(args)
        return build(*args)

    mk._increment_law.cache_clear()
    monkeypatch.setattr(mk, "radius_distribution", counted)
    yield calls
    mk._increment_law.cache_clear()


class TestIncrementLawCache:
    def test_one_build_per_step_size(self, law_builds):
        cold = mk.sample_path(P1, 20, 0.3, seed=5)
        assert mk.sample_path(P1, 20, 0.3, seed=5) == cold
        other = mk.sample_path(P1, 20, 0.3, seed=5, path_index=4)
        assert other.radii != cold.radii
        assert len(law_builds) == 1
        mk.sample_path(P1, 5, 0.35, seed=1)
        assert len(law_builds) == 2
        mk.sample_path(KernelParams(t=1.0, alpha=3.0), 5, 0.3, seed=1)
        assert len(law_builds) == 3

    def test_bounded(self, law_builds, monkeypatch):
        def one_radius(params, lo, hi):
            return mk.RadiusDistribution(((F(2), 1.0),), 0.0, params)

        monkeypatch.setattr(mk, "radius_distribution", one_radius)
        size = mk._increment_law.cache_info().maxsize
        for n in range(size + 5):
            mk.sample_path(P1, 0, 0.1 + n / 1000)
        info = mk._increment_law.cache_info()
        assert info.currsize <= size == mk._LAW_CACHE_SIZE


class TestTransitionProb:
    def test_time_zero_indicator(self):
        zero = AdelePoint.zero()
        inside = sample_uniform(sphere(F(1, 2)), seed=3)
        outside = sample_uniform(sphere(F(4)), seed=3)
        p0 = KernelParams(t=0.0, alpha=2.0)
        assert mk.transition_prob_ball(p0, inside, zero, F(1)) == 1.0
        assert mk.transition_prob_ball(p0, outside, zero, F(1)) == 0.0

    def test_outside_ball_formula(self):
        zero = AdelePoint.zero()
        x = sample_uniform(sphere(F(3)), seed=7)
        got = mk.transition_prob_ball(P1, x, zero, F(1))
        assert got == float(phi(F(1))) * z_finite(F(3), P1)

    def test_inside_ball_is_cumulative_mass(self):
        zero = AdelePoint.zero()
        x = sample_uniform(sphere(F(1, 4)), seed=7)
        got = mk.transition_prob_ball(P1, x, zero, F(2))
        assert got == ball_mass(F(2), P1)
        assert mk.transition_prob_ball(P1, zero, zero, F(2)) == got

    def test_inside_ball_ranks_the_radius_once(self, monkeypatch):
        ranked = []
        rank_of = _TABLE.rank_of

        def counted(x):
            ranked.append(x)
            return rank_of(x)

        monkeypatch.setattr(_TABLE, "rank_of", counted)
        zero = AdelePoint.zero()
        got = mk.transition_prob_ball(P1, zero, zero, F(2))
        assert ranked == [F(2)]
        assert got == ball_mass(F(2), P1)

    def test_space_homogeneity(self):
        zero = AdelePoint.zero()
        x = sample_uniform(sphere(F(9)), seed=5)
        w = sample_uniform(sphere(F(1, 3)), seed=6)
        base = mk.transition_prob_ball(P1, x, zero, F(2))
        shifted = mk.transition_prob_ball(P1, add(x, w), w, F(2))
        assert base == shifted

    def test_escape_ratio_conditions(self):
        # escape mass over t: bounded by the explicit constant, and
        # bounded away from 0 (the process jumps)
        alpha = 2.0
        lower = (3.0 ** alpha - 2.0 ** alpha) / 3.0 - 1e-3
        zero = AdelePoint.zero()
        for t in (0.1, 0.01, 0.001):
            p = KernelParams(t=t, alpha=alpha)
            stay = mk.transition_prob_ball(p, zero, zero, F(1, 4))
            ratio = (1.0 - stay) / t
            assert ratio <= tail_mass_bound(F(1, 4), p) / t
            assert ratio >= lower

    def test_far_field_decay(self):
        zero = AdelePoint.zero()
        vals = []
        for d in (2, 4, 8, 16, 32):
            x = sample_uniform(sphere(F(d)), seed=d)
            vals.append(mk.transition_prob_ball(P1, x, zero, F(1)))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4


class TestIncrementLaw:
    def test_chisquare_radius_law(self):
        dist = mk.radius_distribution(
            KernelParams(t=0.5, alpha=2.0), F(1, 128), F(1024)
        )
        rng = derive_rng(2024, "law-test")
        counts: dict = {}
        for _ in range(20000):
            r = dist.sample(rng)
            counts[r] = counts.get(r, 0) + 1
        stat, pval, dof = mk.radius_law_chisquare(counts, dist)
        assert pval > 1e-3
        assert dof > 5

    def test_sphere_norms_exact(self):
        rng = derive_rng(77, "norms")
        dist = mk.radius_distribution(
            KernelParams(t=1.0, alpha=2.0), F(1, 32), F(64)
        )
        for _ in range(300):
            r = dist.sample(rng)
            if r is None:
                continue
            pt = sample_uniform(sphere(r), depth=10, rng=rng, prime_cutoff=37)
            assert norm(pt) == r
