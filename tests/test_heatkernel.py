"""Heat kernel tests against independently computed high-precision values.

Expected constants below were produced by a standalone mpmath script
(50 significant digits) that sums the defining series directly, with no
code shared with the package. [DERIVED]
"""
import hashlib
import math
import signal
import time
from fractions import Fraction as F

import pytest

from adelic import heatkernel as hk
from adelic import primepow as pp
from adelic.markov import radius_distribution
from adelic.primepow import next_pp, phi, prev_pp, pp_range
from adelic.errors import ToleranceError

# [DERIVED] frozen kernel values Z(radius, t, alpha)
Z_CASES = [
    (F(2), 1.0, 2.0, 0.067563137936753187559),
    (F(0), 1.0, 2.0, 0.86517387499090857556),
    (F(1, 4), 0.5, 1.5, 1.3109015844265435282),
    (F(8), 3.0, 1.2, 4.6904947261826303245e-5),
    (F(1), 1.0, 2.0, 0.82804828211942387551),
    (F(1, 2), 2.0, 1.75, 0.66812484181513251487),
    (F(3), 0.25, 2.0, 0.0025300284666659387274),
]

# [DERIVED] frozen cumulative ball masses at t=1, alpha=2
BALL_CASES = [
    (F(2), 0.913927058944911),
    (F(1, 2), 0.846363921008158),
    (F(4), 0.964792023598513),
]

# [DERIVED] frozen weighted moments
MOMENT_CASES = [
    (1.0, 2.0, 2.0, 0.21598011409202069276),
    (0.5, 1.5, 1.5, 6.1648735897432234971),
]

# [DERIVED] frozen real kernel values z_real(x, t, beta)
ZREAL_CASES = [
    (0.3, 0.7, 2.0, 0.59556382184343003626),
    (0.3, 0.7, 1.3, 0.40738378273460590329),
    (0.0, 0.7, 1.3, 2.4302912744545606646),
    (0.5, 2.0, 1.0, 0.28840043914200094243),
]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            hk.KernelParams(t=-1.0, alpha=2.0)
        with pytest.raises(ValueError):
            hk.KernelParams(t=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            hk.KernelParams(t=1.0, alpha=2.0, beta=2.5)
        with pytest.raises(ValueError):
            hk.KernelParams(t=1.0, alpha=2.0, beta=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_time_and_exponent_refused(self, bad):
        with pytest.raises(ValueError, match="t must be finite"):
            hk.KernelParams(t=bad, alpha=2.0)
        with pytest.raises(ValueError, match="alpha must be finite"):
            hk.KernelParams(t=1.0, alpha=bad)

    def test_zero_time_admitted_but_not_evaluable(self):
        p = hk.KernelParams(t=0.0, alpha=2.0)
        with pytest.raises(ValueError):
            hk.z_finite(F(1), p)
        with pytest.raises(ValueError):
            hk.normalization(p)


class TestFiniteKernel:
    @pytest.mark.parametrize("radius,t,alpha,expected", Z_CASES)
    def test_frozen_values(self, radius, t, alpha, expected):
        got = hk.z_finite(radius, hk.KernelParams(t=t, alpha=alpha))
        assert math.isclose(got, expected, rel_tol=1e-10)

    def test_ln_variant_consistent(self):
        p = hk.KernelParams(t=1.0, alpha=2.0)
        for r in (F(0), F(1, 8), F(1), F(9)):
            assert math.isclose(
                math.exp(hk.ln_z_finite(r, p)), hk.z_finite(r, p),
                rel_tol=1e-11,
            )

    def test_radial_monotone_decreasing(self):
        p = hk.KernelParams(t=0.8, alpha=1.7)
        radii = [F(1, 9), F(1, 4), F(1, 2), F(1), F(2), F(5), F(16)]
        vals = [hk.z_finite(r, p) for r in radii]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert hk.z_finite(0, p) >= vals[0]

    def test_pointwise_bound(self):
        # Z(r,t) <= 2 t r^{-alpha} phi(prev_pp(1/r))
        for t in (0.1, 1.0):
            for alpha in (1.5, 2.0):
                p = hk.KernelParams(t=t, alpha=alpha)
                r = F(1, 8)
                while r <= 8:
                    cap = (
                        2.0 * t * float(r) ** -alpha
                        * float(phi(prev_pp(1 / r).value))
                    )
                    assert hk.z_finite(r, p) <= cap * (1 + 1e-12)
                    r = next_pp(r).value

    def test_vanishes_with_time(self):
        vals = [
            hk.z_finite(F(1), hk.KernelParams(t=t, alpha=2.0))
            for t in (1.0, 0.1, 0.01)
        ]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_time_continuity(self):
        alpha = 2.0
        for r in (F(1, 2), F(1), F(3)):
            for t0, t1 in ((0.5, 0.6), (1.0, 1.25)):
                lip = hk.moment_integral(
                    hk.KernelParams(t=min(t0, t1), alpha=alpha), alpha
                )
                a = hk.z_finite(r, hk.KernelParams(t=t0, alpha=alpha))
                b = hk.z_finite(r, hk.KernelParams(t=t1, alpha=alpha))
                assert abs(a - b) <= abs(t1 - t0) * lip * (1 + 1e-10)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            hk.z_finite(0, hk.KernelParams(t=1e-3, alpha=1.05))


class TestMassEngine:
    @pytest.mark.parametrize("radius,expected", BALL_CASES)
    def test_frozen_ball_masses(self, radius, expected):
        p = hk.KernelParams(t=1.0, alpha=2.0)
        assert math.isclose(hk.ball_mass(radius, p), expected, rel_tol=1e-12)

    def test_ball_plus_tail_is_one(self):
        for t, alpha in ((1.0, 2.0), (0.3, 1.6), (5.0, 3.0)):
            p = hk.KernelParams(t=t, alpha=alpha)
            for r in (F(1, 4), F(1), F(8)):
                s = hk.ball_mass(r, p) + hk.upper_tail_mass(r, p)
                assert math.isclose(s, 1.0, abs_tol=1e-12)

    def test_masses_match_direct_kernel(self):
        p = hk.KernelParams(t=0.7, alpha=1.8)
        table = hk.sphere_masses(p, F(1, 8), F(9))
        vols = {}
        prev = phi(prev_pp(table.radii[0]).value)
        for r in table.radii:
            cur = phi(r)
            vols[r] = cur - prev
            prev = cur
        for r, m in zip(table.radii, table.masses):
            direct = hk.z_finite(r, p) * float(vols[r])
            assert math.isclose(m, direct, rel_tol=1e-10)

    def test_window_tails_consistent(self):
        p = hk.KernelParams(t=1.0, alpha=2.0)
        table = hk.sphere_masses(p, F(1, 8), F(9))
        below = prev_pp(F(1, 8)).value
        assert math.isclose(
            table.low_tail, hk.ball_mass(below, p), rel_tol=1e-12
        )
        assert math.isclose(
            table.up_tail, hk.upper_tail_mass(F(9), p), rel_tol=1e-9
        )
        assert math.isclose(table.total(), 1.0, abs_tol=1e-11)


class TestNormalization:
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_unit_mass(self, t, alpha):
        n = hk.normalization(hk.KernelParams(t=t, alpha=alpha), tol=1e-6)
        assert abs(n - 1.0) < 1e-6


class TestMoments:
    @pytest.mark.parametrize("t,alpha,w,expected", MOMENT_CASES)
    def test_frozen_values(self, t, alpha, w, expected):
        got = hk.moment_integral(hk.KernelParams(t=t, alpha=alpha), w)
        assert math.isclose(got, expected, rel_tol=1e-10)

    def test_zero_weight_is_kernel_at_origin(self):
        for t, alpha in ((1.0, 2.0), (0.5, 1.5), (2.0, 2.5)):
            p = hk.KernelParams(t=t, alpha=alpha)
            assert math.isclose(
                hk.moment_integral(p, 0.0), hk.z_finite(0, p), rel_tol=1e-9
            )

    def test_decreasing_in_time(self):
        vals = [
            hk.moment_integral(hk.KernelParams(t=t, alpha=2.0), 2.0)
            for t in (0.5, 1.0, 2.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_overflow_raises_before_any_table_walk(self):
        # the peak term is ~ e^271202 near q* ~ 1.6e6; walking the table
        # up to the geometric start (~5e7) would sieve toward 1e8 first
        start = time.perf_counter()
        with pytest.raises(OverflowError):
            hk.moment_integral(hk.KernelParams(t=0.05, alpha=1.2), 1.5)
        assert time.perf_counter() - start < 1.0

    def test_alpha_near_one_refused_by_the_sieve_cap(self):
        # both walks would start near 1.5e10, a sieve to 3e10 (30 GB)
        p = hk.KernelParams(t=1.0, alpha=1.03)
        limit = pp._TABLE._limit
        for call in (lambda: hk.z_finite(0, p),
                     lambda: hk.moment_integral(p, 0.0)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="capped at 2\\^26"):
                call()
            assert time.perf_counter() - start < 1.0
        assert pp._TABLE._limit == limit


class TestTailBound:
    def test_dominates_true_tail(self):
        for t in (0.1, 0.01, 0.001):
            p = hk.KernelParams(t=t, alpha=2.0)
            for eps in (F(1, 4), F(1), F(2), F(8)):
                assert hk.upper_tail_mass(eps, p) <= hk.tail_mass_bound(eps, p)

    def test_value_against_reference_sum(self):
        # independent sum with a much larger cutoff
        t, alpha = 0.01, 2.0
        p = hk.KernelParams(t=t, alpha=alpha)
        eps = F(2)
        ref = 2.0 * t * (
            math.fsum(float(q.value) ** -alpha for q in pp_range(eps, 200000))
            + 200000.0 ** (1 - alpha) / (alpha - 1)
        )
        got = hk.tail_mass_bound(eps, p)
        assert ref <= got <= ref * 1.05

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_snapshot_sum_is_the_accessor_sum(self, alpha):
        # the body read by rank from one snapshot, against float_at per rank
        p = hk.KernelParams(t=0.3, alpha=alpha)
        for eps in (F(1, 128), F(1, 3), F(1, 2), F(1), F(2), F(7), F(128),
                    F(1024)):
            lo = hk._radius_rank(eps)
            cutoff = max(F(64), 4 * max(eps, F(1)))
            hi = pp._TABLE.rank_floor(cutoff)
            body = math.fsum(pp._TABLE.float_at(k) ** -alpha
                             for k in range(lo + 1, hi + 1))
            want = 2.0 * p.t * (
                body + float(cutoff) ** (1.0 - alpha) / (alpha - 1.0))
            assert hk.tail_mass_bound(eps, p) == min(want, 1.0), eps

    def test_capped_at_one(self):
        # a mass is at most 1: the bound is min(2t * sum, 1), and the sum
        # alone is kept wherever it stays below 1
        p = hk.KernelParams(t=1.0, alpha=2.0)
        assert hk.tail_mass_bound(F(1, 65536), p) == 1.0
        assert hk.upper_tail_mass(F(1, 65536), p) <= 1.0
        for alpha in (1.5, 2.0, 3.0):
            for eps in (F(1, 128), F(1, 3)):
                big = hk.tail_mass_bound(eps, hk.KernelParams(1.0, alpha))
                tiny = hk.tail_mass_bound(eps, hk.KernelParams(1e-12, alpha))
                assert big == 1.0 and tiny < 1.0, (alpha, eps)
                lo = hk._radius_rank(eps)
                hi = pp._TABLE.rank_floor(F(64))
                body = math.fsum(pp._TABLE.float_at(k) ** -alpha
                                 for k in range(lo + 1, hi + 1))
                assert tiny == 2.0 * 1e-12 * (
                    body + 64.0 ** (1.0 - alpha) / (alpha - 1.0))

    def test_linear_in_time(self):
        a = hk.tail_mass_bound(F(2), hk.KernelParams(t=0.2, alpha=2.0))
        b = hk.tail_mass_bound(F(2), hk.KernelParams(t=0.1, alpha=2.0))
        assert math.isclose(a, 2 * b, rel_tol=1e-12)


class TestRealKernel:
    @pytest.mark.parametrize("x,t,beta,expected", ZREAL_CASES)
    def test_frozen_values(self, x, t, beta, expected):
        got = hk.z_real(x, hk.KernelParams(t=t, alpha=2.0, beta=beta))
        assert math.isclose(got, expected, rel_tol=1e-8)

    def test_even_and_positive(self):
        p = hk.KernelParams(t=0.9, alpha=2.0, beta=1.4)
        for x in (0.1, 0.75, 3.0):
            a, b = hk.z_real(x, p), hk.z_real(-x, p)
            assert a == b and a > 0

    def test_closed_forms_match_quadrature(self):
        from scipy.integrate import quad

        for beta in (1.0, 2.0):
            p = hk.KernelParams(t=0.8, alpha=2.0, beta=beta)
            for x in (0.0, 0.4, 1.3):
                ref = 2.0 * quad(
                    lambda xi: math.exp(-0.8 * xi ** beta),
                    0.0, math.inf, weight="cos",
                    wvar=2 * math.pi * x, limit=400,
                )[0]
                assert math.isclose(hk.z_real(x, p), ref, abs_tol=1e-8)

    def test_requires_beta(self):
        with pytest.raises(ValueError):
            hk.z_real(0.3, hk.KernelParams(t=1.0, alpha=2.0))


class TestAdelicKernel:
    def test_product_structure(self):
        p = hk.KernelParams(t=1.2, alpha=2.0, beta=2.0)
        v = hk.z_adelic(0.4, F(1, 2), p)
        assert math.isclose(
            v, hk.z_real(0.4, p) * hk.z_finite(F(1, 2), p), rel_tol=1e-14
        )

    def test_product_normalization(self):
        # real factor integrates to 1 (Fourier inversion), finite factor to 1
        from scipy.integrate import quad

        p = hk.KernelParams(t=0.7, alpha=2.0, beta=2.0)
        real_mass = quad(lambda x: hk.z_real(x, p), -math.inf, math.inf)[0]
        total = real_mass * hk.normalization(p)
        assert abs(total - 1.0) < 1e-5


# Float results of the Fraction-stepping implementation that preceded the
# rank walk (reprs, so every bit counts): (t, alpha, radius) ->
# (z_finite, ln_z_finite)
Z_FROZEN = {
    (0.1, 1.5, 0): (23354900.826333873, 16.966317405552395),
    (0.1, 1.5, F(1, 4)): (1.4112244131709193, 0.34445770570332135),
    (0.1, 1.5, F(3)): (0.0014618510819921333, -6.52805178194505),
    (0.1, 3.0, 0): (1.7206679008065762, 0.5427125298732564),
    (0.1, 3.0, F(1, 4)): (1.7005503341757722, 0.5309519246599677),
    (0.1, 3.0, F(3)): (0.0004281892181073184, -7.755945361697588),
    (1.0, 1.5, 0): (0.8603443727263541, -0.15042253648390508),
    (1.0, 1.5, F(1, 4)): (0.8556461034493688, -0.15589841887617),
    (1.0, 1.5, F(3)): (0.012839814169374792, -4.355204453615178),
    (1.0, 3.0, 0): (0.9275956065867826, -0.0751594099349797),
    (1.0, 3.0, F(1, 4)): (0.9275956065867826, -0.0751594099349797),
    (1.0, 3.0, F(3)): (0.0041914705084251285, -5.474703649954267),
}

# (t, alpha) -> (normalization, ball_mass(1/4), ball_mass(8),
# moment_integral w=0, w=1.5, radius law on [1/128, 128]: tail mass,
# first entry's mass, entry count, sha256 of repr(entries))
MASS_FROZEN = {
    (0.1, 1.5): (
        1.0, 0.6845330329790414, 0.9966428797601963,
        23354900.82633391, 7202493431.379873, 6.665959003975954e-05,
        1.7489387006311134e-48, 88,
        "7e6aed1d55d76f364f226f1dbf6dfb723a794d09bda657ec92808b91eb3b7105",
    ),
    (0.1, 3.0): (
        1.0000000000000002, 0.28508661296913596, 0.9998844656172168,
        1.7206679007692502, 3.005205124579014, 4.443940091790474e-08,
        1.2885272795768664e-55, 88,
        "61de81f17060e9df3be5f6bb34c030a6513f370d89fccc3584c90948b883697f",
    ),
    (1.0, 1.5): (
        1.0000000000000002, 0.14294314653613063, 0.9669421293298419,
        0.8603443726892553, 0.4984414283948761, 0.000666395971963629,
        6.442714445760794e-56, 88,
        "3b242b35cf70d7adfa850e7e04d32a4c943382ddd6b0fcde54d4b334362d762e",
    ),
    (1.0, 3.0): (
        1.0000000000000002, 0.15459926776446375, 0.9988453000034977,
        0.9275956065494348, 0.2358033939516125, 4.4439392029962547e-07,
        6.946327312449091e-56, 88,
        "935569e32219524b036b6633823cbccb35b5fc0ed9996bb534c216f417ad712d",
    ),
}


@pytest.fixture
def rank_floor_calls(monkeypatch):
    """Counts calls of the table's rank_floor, the one Fraction bisection
    of the rank index."""
    calls = []
    rank_floor = pp._TABLE.rank_floor

    def counted(x):
        calls.append(x)
        return rank_floor(x)

    monkeypatch.setattr(pp._TABLE, "rank_floor", counted)
    return calls


class TestRankWalk:
    @pytest.mark.parametrize("key", sorted(Z_FROZEN, key=repr))
    def test_kernel_floats_unchanged(self, key):
        t, alpha, radius = key
        p = hk.KernelParams(t=t, alpha=alpha)
        got = (hk.z_finite(radius, p), hk.ln_z_finite(radius, p))
        assert got == Z_FROZEN[key]

    @pytest.mark.parametrize("key", sorted(MASS_FROZEN))
    def test_mass_floats_unchanged(self, key):
        p = hk.KernelParams(t=key[0], alpha=key[1])
        law = radius_distribution(p, F(1, 128), F(128))
        got = (
            hk.normalization(p), hk.ball_mass(F(1, 4), p),
            hk.ball_mass(F(8), p), hk.moment_integral(p, 0.0),
            hk.moment_integral(p, 1.5), law.tail_mass, law.entries[0][1],
            len(law.entries),
            hashlib.sha256(repr(law.entries).encode()).hexdigest(),
        )
        assert got == MASS_FROZEN[key]

    @pytest.mark.parametrize(
        "window", [(F(1, 64), F(1024)), (F(1, 2), F(2)), (F(1, 4096), F(8192))]
    )
    def test_sphere_masses_look_up_ranks_once(self, rank_floor_calls, window):
        p = hk.KernelParams(t=1.0, alpha=2.0)
        table = hk.sphere_masses(p, *window)
        assert len(rank_floor_calls) <= 3
        assert len(table.radii) == len(pp_range(*window)) + 1

    @pytest.mark.parametrize("t,alpha", [(1.0, 2.0), (0.05, 1.5), (0.1, 3.0)])
    def test_full_series_looks_up_ranks_once(self, rank_floor_calls, t, alpha):
        hk.z_finite(0, hk.KernelParams(t=t, alpha=alpha))
        assert len(rank_floor_calls) <= 3


class TestToleranceGuard:
    # a nan tolerance used to keep the series loops running forever; 0 and
    # negative tolerances raised math domain or index errors
    CALLS = {
        "z_finite": lambda p, tol: hk.z_finite(2, p, tol=tol),
        "z_finite_0": lambda p, tol: hk.z_finite(0, p, tol=tol),
        "ln_z_finite": lambda p, tol: hk.ln_z_finite(2, p, rel_tol=tol),
        "sphere_masses": lambda p, tol: hk.sphere_masses(
            p, F(1, 4), F(8), rel_tol=tol),
        "ball_mass": lambda p, tol: hk.ball_mass(F(4), p, rel_tol=tol),
        "upper_tail_mass": lambda p, tol: hk.upper_tail_mass(
            F(4), p, rel_tol=tol),
        "normalization": lambda p, tol: hk.normalization(p, tol=tol),
        "moment_integral": lambda p, tol: hk.moment_integral(p, 1.0, tol=tol),
        "z_real": lambda p, tol: hk.z_real(0.5, p, tol=tol),
        "z_adelic": lambda p, tol: hk.z_adelic(0.5, 2, p, tol=tol),
    }

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_bad_tolerance_refused_at_once(self, name, tol):
        def expired(signum, frame):
            raise TimeoutError(f"{name}(tol={tol}) still running after 1 s")

        params = hk.KernelParams(t=1.0, alpha=2.0, beta=2.0)
        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValueError, match="positive finite number"):
                self.CALLS[name](params, tol)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestHugeTime:
    # at these times the series truncates only below radius 2^-26, the
    # smallest the prime-power table holds; the walk down to that cap took
    # about 20 s before the cap refused it (3e23 lies below 3.1e23, where
    # the refusal began without the lower bound on psi)
    CALLS = {
        "z_finite": lambda p: hk.z_finite(2, p),
        "z_finite_0": lambda p: hk.z_finite(0, p),
        "ln_z_finite": lambda p: hk.ln_z_finite(2, p),
        "ball_mass": lambda p: hk.ball_mass(F(2), p),
        "upper_tail_mass": lambda p: hk.upper_tail_mass(F(2), p),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_refused_before_the_walk(self, name):
        def expired(signum, frame):
            raise TimeoutError(f"{name} still running after 1 s")

        for t in (1e300, 3e23):
            params = hk.KernelParams(t=t, alpha=2.0)
            previous = signal.signal(signal.SIGALRM, expired)
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            start = time.perf_counter()
            try:
                with pytest.raises(ValueError,
                                   match="too large for alpha = 2"):
                    self.CALLS[name](params)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            assert time.perf_counter() - start < 0.1

    def test_large_times_still_answer(self):
        # far below the refusal threshold (5.85e22 at alpha 2) the
        # series truncates near q = 1/(2t)^(1/3) and answers
        for t in (1e3, 1e6):
            p = hk.KernelParams(t=t, alpha=2.0)
            assert 0.0 < hk.z_finite(2, p) < 1.0
            assert 0.0 < hk.ball_mass(F(2), p) <= 1.0

    @pytest.mark.parametrize("alpha,start", [
        (1.5, 7.994e18), (2.0, 5.421e22), (3.0, 2.794e30),
    ])
    def test_refuses_all_the_weaker_floor_refused(self, alpha, start):
        # the check as it stood with theta(x) > x (1 - 1/ln x): the sharper
        # floor only raises c, which lowers the bound h on every term
        def weaker_refuses(t):
            cap = float(pp._SIEVE_CAP)
            if t * cap ** -alpha < 1.0:
                return False
            c = 1.0 - 1.0 / math.log(hk._RS_FLOOR)
            x = min(cap, (alpha * t / c) ** (1.0 / (alpha + 1.0)))
            h = max(
                hk._CHEB * (1 / 3) - t * float(hk._RS_FLOOR) ** -alpha,
                c - c * x - t * x ** -alpha,
            )
            ln_acc = math.log(pp._SIEVE_CAP) + h
            return ln_acc + math.log(0.5e-13) <= -hk._CHEB * cap - 1.0

        def refuses(t):
            try:
                hk._check_reach(-2, t, alpha, 1e-13)  # rank -2 is 1/3
            except ValueError:
                return True
            return False

        grid = [10 ** (17 + i / 40) for i in range(641)]
        weaker = [t for t in grid if weaker_refuses(t)]
        sharper = [t for t in grid if refuses(t)]
        assert weaker and set(weaker) < set(sharper)
        # the refusal band starts where the README says
        assert start / 1.01 < min(sharper) < start * 1.07
        assert not refuses(start / 1.001) and refuses(start * 1.001)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_refused_series_could_not_stop_above_the_cap(self, monkeypatch,
                                                         alpha):
        # the same certificate at a sieve cap of 2^14 (Rosser-Schoenfeld
        # from n > 2^10), where walking to the cap takes milliseconds:
        # every refused t walks to the cap when not refused, and the
        # refusal starts within a factor 2 of where that happens
        cap = 2 ** 14
        monkeypatch.setattr(pp, "_SIEVE_CAP", cap)
        monkeypatch.setattr(hk, "_SIEVE_CAP", cap)
        monkeypatch.setattr(hk, "_RS_FLOOR", 2 ** 10)
        check = hk._check_reach
        monkeypatch.setattr(hk, "_check_reach", lambda *args: None)
        centre = cap ** (alpha + 1) / alpha
        refused, reached = [], []
        for i in range(-40, 41):
            t = centre * 10 ** (i / 20)
            monkeypatch.setattr(hk, "_TABLE", pp._PowerTable())
            try:
                check(-2, t, alpha, 1e-13)
            except ValueError:
                refused.append(t)
            try:
                for _ in hk._ln_terms(-2, t, alpha, 1e-13):
                    pass
            except ValueError as exc:
                assert "capped at 2^26" in str(exc)
                reached.append(t)
        assert refused and set(refused) <= set(reached)
        assert min(refused) <= 2 * min(reached)


# The series and sweeps written with one table accessor per read, as they
# were before the rank loops were tightened; the loops must reproduce them
# bit for bit, refusals included.


def ref_ln_delta(k, t, alpha):
    a = hk._TABLE.float_at(k) ** alpha
    b = hk._TABLE.float_at(k + 1) ** alpha
    gap = -math.expm1(-t * (b - a))
    if gap <= 0.0:
        return -math.inf
    return -t * a + math.log(gap)


def ref_low_remainder_ln(k, t, alpha):
    gap = -math.expm1(-t * hk._TABLE.float_at(k) ** alpha)
    if gap <= 0.0:
        return -math.inf
    return hk._TABLE.log_phi_at(k - 1) + math.log(gap)


def ref_logaddexp(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def ref_ln_terms(top, t, alpha, rel_tol):
    hk._check_reach(top, t, alpha, rel_tol)
    terms, acc, k = [], -math.inf, top
    while True:
        term = hk._TABLE.log_phi_at(k) + ref_ln_delta(k, t, alpha)
        terms.append(term)
        acc = ref_logaddexp(acc, term)
        rem = ref_low_remainder_ln(k, t, alpha)
        if rem < acc + math.log(rel_tol * 0.5) or rem == -math.inf:
            return terms
        k -= 1


def ref_ln_z(top, t, alpha, rel_tol):
    acc = -math.inf
    for term in ref_ln_terms(top, t, alpha, rel_tol):
        acc = ref_logaddexp(acc, term)
    return acc


def ref_z_finite(radius, p, tol=1e-12):
    rel_tol = min(tol, 1e-13)
    top = hk._top_rank(radius, p.t, p.alpha, rel_tol)
    terms = ref_ln_terms(top, p.t, p.alpha, rel_tol)
    if max(terms) > 709.0:
        raise OverflowError(
            "kernel value exceeds the double range; use ln_z_finite"
        )
    return math.fsum(math.exp(x) for x in terms)


def ref_ln_z_finite(radius, p, rel_tol=1e-13):
    return ref_ln_z(hk._top_rank(radius, p.t, p.alpha, rel_tol), p.t,
                    p.alpha, rel_tol)


def ref_ball_mass(radius, p, rel_tol=1e-13):
    k = hk._radius_rank(radius)
    ln_z = ref_ln_z(-2 - k, p.t, p.alpha, rel_tol)
    inside = math.exp(hk._TABLE.log_phi_at(k) + ln_z)
    return inside + math.exp(-(p.t * hk._TABLE.float_at(-1 - k) ** p.alpha))


def ref_sphere_masses(p, r_min, r_max, rel_tol=1e-13):
    table, t, alpha = hk._TABLE, p.t, p.alpha
    k_lo, k_hi = table.rank_of(F(r_min)), table.rank_of(F(r_max))
    ln_z_hi = ref_ln_z(-2 - k_hi, t, alpha, rel_tol)
    ln_masses, acc = [], ln_z_hi
    for k in range(k_hi, k_lo - 1, -1):
        ln_vol = table.log_phi_at(k) + math.log1p(-1.0 / table.base_at(k))
        ln_masses.append(ln_vol + acc)
        acc = ref_logaddexp(
            acc, table.log_phi_at(-1 - k) + ref_ln_delta(-1 - k, t, alpha)
        )
    low_tail = math.exp(table.log_phi_at(k_lo - 1) + acc) + math.exp(
        -t * table.float_at(k_lo - 1) ** -alpha
    )
    up_tail = -math.expm1(-t * table.float_at(k_hi) ** -alpha) - math.exp(
        table.log_phi_at(k_hi) + ln_z_hi
    )
    up_tail = hk.clamp_nonnegative(up_tail, scale=max(1.0, t))
    radii = tuple(table.fraction_at(k) for k in range(k_lo, k_hi + 1))
    masses = tuple(math.exp(m) for m in reversed(ln_masses))
    return radii, masses, low_tail, up_tail


def ref_normalization(p, tol=1e-6):
    _, masses, low, up = ref_sphere_masses(p, F(1, 64), F(1024),
                                           min(tol, 1e-10))
    return low + math.fsum(masses) + up


def _outcome(call):
    """float.hex of each float in the result, or the refusal."""
    try:
        got = call()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, hk.SphereMasses):
        got = (got.radii, got.masses, got.low_tail, got.up_tail)
    if isinstance(got, float):
        return got.hex()
    radii, masses, low, up = got
    return radii, [m.hex() for m in masses], low.hex(), up.hex()


def _pairs(p, radius, window):
    """(new, reference) calls of every sweep at one (t, alpha) point."""
    pairs = [
        (lambda: hk.z_finite(radius, p), lambda: ref_z_finite(radius, p)),
        (lambda: hk.ln_z_finite(radius, p),
         lambda: ref_ln_z_finite(radius, p)),
        (lambda: hk.sphere_masses(p, *window),
         lambda: ref_sphere_masses(p, *window)),
        (lambda: hk.normalization(p), lambda: ref_normalization(p)),
    ]
    if radius:
        pairs.append((lambda: hk.ball_mass(radius, p),
                      lambda: ref_ball_mass(radius, p)))
    return pairs


WINDOWS = [(F(1, 64), F(1024)), (F(1, 4096), F(8)), (F(1, 2), F(2))]
RADII = [F(0), F(1, 4096), F(1, 4), F(1, 2), F(1), F(3), F(8)]


class TestSweepsBitIdentical:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.05, 1.0, 7.0])
    def test_grid(self, t, alpha):
        p = hk.KernelParams(t=t, alpha=alpha)
        for i, radius in enumerate(RADII):
            for new, ref in _pairs(p, radius, WINDOWS[i % len(WINDOWS)]):
                assert _outcome(new) == _outcome(ref), (t, alpha, radius)

    @pytest.mark.parametrize("t,alpha,radius,kind", [
        (0.001, 1.03, F(0), "peak"),         # _check_peak, before any walk
        (0.01, 1.5, F(1, 4096), "ln_z"),     # z_finite overflows, ln_z not
        (1.0, 1.03, F(0), "sieved"),         # the start lies past the cap
        (1e30, 2.0, F(0), "too large"),      # _check_reach refuses
    ])
    def test_overflow_and_refusals(self, t, alpha, radius, kind):
        p = hk.KernelParams(t=t, alpha=alpha)
        outcomes = [
            (_outcome(new), _outcome(ref))
            for new, ref in _pairs(p, radius, WINDOWS[1])
        ]
        for got, want in outcomes:
            assert got == want
        assert kind in repr(outcomes[0][0])

    @pytest.mark.parametrize("call", ["z_finite", "sphere_masses"])
    def test_walk_extends_a_fresh_table(self, monkeypatch, call):
        # at t = 1e9 the series walks down past radius 1/1024 and the
        # window reaches 1/4096, past the 512 a fresh table holds: rows are
        # sieved in the middle of the walk
        p = hk.KernelParams(t=1e9, alpha=2.0)
        new, ref = {
            "z_finite": (lambda: hk.z_finite(0, p),
                         lambda: ref_z_finite(0, p)),
            "sphere_masses": (lambda: hk.sphere_masses(p, *WINDOWS[1]),
                              lambda: ref_sphere_masses(p, *WINDOWS[1])),
        }[call]
        results = []
        for run in (new, ref):
            table = pp._PowerTable()
            monkeypatch.setattr(hk, "_TABLE", table)
            results.append(_outcome(run))
            assert table._limit > 512
        assert results[0] == results[1]


def counted_walks(monkeypatch) -> list[bool]:
    """Wrap heatkernel._walk: the list gets, per walk, whether it collected
    its ln-terms."""
    walks = []
    walk = hk._walk

    def counted(*args):
        walks.append(len(args) > 4 and args[4] is not None)
        return walk(*args)

    monkeypatch.setattr(hk, "_walk", counted)
    return walks


class TestSeriesMemo:
    """The summed series are kept by (top, t, alpha, rel_tol), bounded; no
    result depends on what was kept."""

    def test_repeated_series_is_read_from_the_memo(self):
        p = hk.KernelParams(t=0.37, alpha=2.0)
        hk._series.cache_clear()
        first = hk.z_finite(2, p)
        # P(t, 0, B(2)) sums the series of z_finite(2): one walk for both
        assert hk._series.cache_info().misses == 1
        hk.ball_mass(2, p)
        assert hk._series.cache_info().hits == 1
        assert hk.z_finite(2, p) == first == ref_z_finite(2, p)

    @pytest.mark.parametrize("call", [
        # a walk of 4350 terms from rank 0
        lambda: hk.z_finite(0, hk.KernelParams(t=1e13, alpha=2.0)),
        lambda: hk.ln_z_finite(0, hk.KernelParams(t=1e13, alpha=2.0)),
        # a top past the cap
        lambda: hk.z_finite(F(1, 40009), hk.KernelParams(t=1.0, alpha=2.0)),
        lambda: hk.ln_z_finite(F(1, 40009), hk.KernelParams(t=1.0, alpha=2.0)),
    ], ids=["terms-from-0", "ln-from-0", "terms-past-cap", "ln-past-cap"])
    def test_walk_past_the_cap_is_walked_once_and_not_kept(self, call,
                                                           monkeypatch):
        walks = counted_walks(monkeypatch)
        before = hk._series.cache_info().currsize
        got = call()
        assert len(walks) == 1
        assert hk._series.cache_info().currsize == before
        assert call() == got
        assert len(walks) == 2
        assert hk._series.cache_info().currsize == before

    def test_ln_sum_past_the_cap_collects_no_terms(self, monkeypatch):
        # a tail about 1/67108859 walks four million terms: its ln-sum
        # must not hold them
        walks = counted_walks(monkeypatch)
        p = hk.KernelParams(t=1.0, alpha=2.0)
        hk.ln_z_finite(F(1, 40009), p)
        hk.upper_tail_mass(F(1, 40009), p)
        assert walks == [False, False]

    def test_long_walks_match_the_reference(self):
        p = hk.KernelParams(t=1e13, alpha=2.0)
        assert hk.z_finite(0, p) == ref_z_finite(0, p)
        assert hk.ln_z_finite(0, p) == ref_ln_z_finite(0, p)
        radius, p = F(1, 40009), hk.KernelParams(t=1.0, alpha=2.0)
        assert hk.ln_z_finite(radius, p) == ref_ln_z_finite(radius, p)

    def test_refusal_raises_again(self):
        # lru_cache keeps no exception: the second call walks (and refuses)
        # again
        p = hk.KernelParams(t=1e30, alpha=2.0)
        before = hk._series.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="too large"):
                hk.ln_z_finite(F(1, 3), p)
        assert hk._series.cache_info().currsize == before
