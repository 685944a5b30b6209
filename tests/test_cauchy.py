"""Solver tests: exact spectral paths, Duhamel quadrature, product space."""
import hashlib
import math
import random
import time
from fractions import Fraction as F

import pytest

from adelic import cauchy as cy
from adelic.adele import AdelePoint, parse_point
from adelic.errors import ToleranceError
from adelic.heatkernel import KernelParams
from adelic.markov import transition_prob_ball
from adelic.primepow import phi
from adelic.radial import RadialStep, ft_ball_eval

ALPHA = 2.0
SYM = cy.SymbolSpec(alpha=ALPHA)

# ten eigen-inputs: inverse transforms of sphere indicators
EIGEN_RADII = [
    F(2), F(4), F(8), F(3), F(9), F(5), F(7),
    F(1, 2), F(1, 4), F(1, 3),
]


ZERO = AdelePoint.zero()


def eigenfunction(r):
    return RadialStep.sphere_indicator(r).ft()


class TestSymbolSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            cy.SymbolSpec(alpha=0.0)
        with pytest.raises(ValueError):
            cy.SymbolSpec(alpha=2.0, beta=3.0)
        with pytest.raises(ValueError):
            cy.SymbolSpec(alpha=0.5).require_solver_range()

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_alpha_and_time_refused(self, bad):
        with pytest.raises(ValueError, match="alpha must be finite"):
            cy.SymbolSpec(alpha=bad)
        w = eigenfunction(F(2))
        grid = cy.ForcingGrid(times=(0.0, 1.0), steps=(w, w))
        real = cy.RealGridFunction(x0=-1.0, dx=1.0, values=(0.0, 1.0, 0.0))
        sym = cy.SymbolSpec(alpha=ALPHA, beta=2.0)
        for solve in (
            lambda: cy.solve_homogeneous(w, bad, SYM),
            lambda: cy.solve_nonhomogeneous(w, grid, bad, SYM),
            lambda: cy.solve_adelic(real, w, bad, sym),
        ):
            with pytest.raises(ValueError, match="t must be finite"):
                solve()


class TestApplyOperator:
    def test_eigenrelation_exact(self):
        for r in EIGEN_RADII:
            w = eigenfunction(r)
            got = cy.apply_operator(w, ALPHA)
            lam = F(float(r) ** ALPHA)
            assert isinstance(got, RadialStep)
            assert got == w * lam

    def test_linearity(self):
        f = eigenfunction(F(2))
        g = eigenfunction(F(1, 3))
        lhs = cy.apply_operator(f * F(3) + g * F(-2, 5), 1.5)
        rhs = cy.apply_operator(f, 1.5) * F(3) + cy.apply_operator(g, 1.5) * F(-2, 5)
        assert lhs == rhs

    def test_zero_integral_combination_exact(self):
        # sphere minus matched ball: integral zero, so the operator stays
        # a step; oracle = multiplying the transform sphere by sphere
        vol_s2 = phi(F(2)) - phi(F(1))
        f = RadialStep.sphere_indicator(F(2)) - RadialStep.ball_indicator(
            F(1, 2)
        ) * (vol_s2 / phi(F(1, 2)))
        assert f.integral() == 0
        got = cy.apply_operator(f, ALPHA)
        assert isinstance(got, RadialStep)
        fhat = f.ft()
        oracle = RadialStep.from_sphere_values(
            {
                r: v * F(float(r) ** ALPHA)
                for r, v in fhat.sphere_values()
            }
        ).ft()
        assert got == oracle

    def test_nonzero_integral_goes_evaluable(self):
        f = RadialStep.ball_indicator(F(2))
        got = cy.apply_operator(f, ALPHA, tol=1e-12)
        assert isinstance(got, cy.EvaluableRadial)
        assert got.pieces
        # f^ = 2 * 1_{B(1/3)}; compare the whole evaluation against one
        # direct certified series for the multiplied ball
        s = F(2)
        ref, bound = ft_ball_eval(
            lambda q: float(q) ** ALPHA, F(1, 3), s, 0.0, tol=1e-12
        )
        ref *= 2.0
        val, got_bound = got.value_with_bound(s)
        assert math.isclose(val, ref, rel_tol=1e-9, abs_tol=1e-10)
        assert got_bound <= 1e-10


class TestHomogeneous:
    def test_eigen_decay_exact(self):
        for r in EIGEN_RADII:
            w = eigenfunction(r)
            got = cy.solve_homogeneous(w, 1.0, SYM)
            factor = F(math.exp(-float(r) ** ALPHA))
            assert isinstance(got, RadialStep)
            assert got == w * factor

    def test_semigroup_composition_exact(self):
        w = eigenfunction(F(2)) * F(5, 3) + eigenfunction(F(1, 2)) * F(-7)
        one_then_two = cy.solve_homogeneous(
            cy.solve_homogeneous(w, 1.0, SYM), 2.0, SYM
        )
        direct = cy.solve_homogeneous(w, 3.0, SYM)
        assert one_then_two == direct

    def test_time_zero_identity(self):
        w = eigenfunction(F(3))
        assert cy.solve_homogeneous(w, 0.0, SYM) == w

    def test_observed_spectrum(self):
        for r in EIGEN_RADII:
            w = eigenfunction(r)
            u1 = cy.solve_homogeneous(w, 1.0, SYM)
            key = max(w.coeffs)
            rate = -math.log(float(u1.coeffs[key] / w.coeffs[key]))
            assert math.isclose(rate, float(r) ** ALPHA, rel_tol=1e-12)

    def test_l2_contraction(self):
        w = eigenfunction(F(2)) + eigenfunction(F(3)) * F(1, 2)
        norms = []
        for t in (0.0, 0.5, 1.0, 2.0, 3.5):
            u = cy.solve_homogeneous(w, t, SYM)
            norms.append(float(u.l2_norm_sq()))
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_mass_conservation_nonlizorkin(self):
        u0 = RadialStep.ball_indicator(F(2)) + RadialStep.sphere_indicator(
            F(3)
        ) * F(2)
        got = cy.solve_homogeneous(u0, 0.7, SYM)
        assert isinstance(got, cy.EvaluableRadial)
        # total integral = transform at zero, preserved by the flow: the
        # lazy piece contributes its scale (heat profile is 1 at zero)
        total = float(got.step.integral()) + math.fsum(
            p.scale for p in got.pieces
        )
        assert math.isclose(total, float(u0.integral()), rel_tol=1e-12)

    def test_residual_first_order_in_h(self):
        # the backward difference quotient plus the operator should vanish
        # linearly in h: norm <= C h with one constant across the sweep
        w = eigenfunction(F(2)) + eigenfunction(F(1, 2)) * F(3)
        t = 0.5
        norms, ratios = [], []
        for h in (0.1, 0.05, 0.025):
            u_t = cy.solve_homogeneous(w, t, SYM)
            u_th = cy.solve_homogeneous(w, t + h, SYM)
            quotient = (u_th - u_t) * F(1 / h)
            residual = quotient + cy.apply_operator(u_t, ALPHA)
            norm = math.sqrt(float(residual.l2_norm_sq()))
            norms.append(norm)
            ratios.append(norm / h)
        assert norms[0] > norms[1] > norms[2] > 0
        assert max(ratios) / min(ratios) < 1.25


class TestForcingGrid:
    def test_validation(self):
        s = RadialStep.zero()
        with pytest.raises(ValueError):
            cy.ForcingGrid(times=(0.5, 1.0), steps=(s, s))
        with pytest.raises(ValueError):
            cy.ForcingGrid(times=(0.0, 0.0), steps=(s, s))

    def test_node_lookup_and_interpolation(self):
        w = eigenfunction(F(2))
        grid = cy.ForcingGrid(
            times=(0.0, 1.0), steps=(w * F(0), w * F(2)),
        )
        assert grid.at(1.0) == w * F(2)
        assert grid.at(0.0) == w * F(0)
        assert grid.at(0.5) == w * F(1)


def manufactured_setup(r=F(2), t=1.0, nodes=65):
    """Forcing whose exact solution is sin(t) * w."""
    w = eigenfunction(r)
    lam = float(r) ** ALPHA
    times = tuple(t * i / (nodes - 1) for i in range(nodes))
    steps = tuple(
        w * F(math.cos(tau) + lam * math.sin(tau)) for tau in times
    )
    return w, cy.ForcingGrid(times=times, steps=steps)


SEEDED_RADII = [F(1, 4), F(1, 3), F(1, 2), F(2), F(3), F(4), F(5)]


def seeded_step(rng, mean_zero):
    radii = rng.sample(SEEDED_RADII, rng.randint(1, 3))
    step = RadialStep(
        {r: F(rng.randint(-9, 9), rng.randint(1, 6)) for r in radii}
    )
    if mean_zero:
        step = step - RadialStep.ball_indicator(F(1, 2)) * step.integral()
    return step


def seeded_duhamel_inputs(i):
    """(u0, forcing, t, symbol, quadrature, steps) of seeded_duhamel_case."""
    rng = random.Random(1000 + i)
    quadrature = ("Simpson", "Trapezoid")[i % 2]
    steps = (4, 8, 12, 32)[(i // 2) % 4]
    t = rng.choice([0.25, 0.5, 1.0, 0.1, 0.7, 1.3, 2.0])
    end = t * rng.choice([1.0, 1.0, 1.25])
    inner = sorted(
        rng.uniform(0.05, 0.95) * end for _ in range(rng.randint(0, 3))
    )
    times = (0.0, *inner, end)
    f = cy.ForcingGrid(times=times, steps=tuple(
        seeded_step(rng, rng.random() < 0.3) for _ in times
    ))
    u0 = seeded_step(rng, rng.random() < 0.3)
    sym = cy.SymbolSpec(alpha=rng.choice([1.5, 2.0, 3.0]))
    return u0, f, t, sym, quadrature, steps


def seeded_duhamel_case(i):
    """Exact outcome of one seeded Duhamel solve: (ranked step, pieces,
    error_bound, tol), or the refusal. The cases alternate Simpson and
    Trapezoid over 4, 8, 12 and 32 steps. Forcing nodes fall between the
    quadrature nodes, most forcing and initial values have a nonzero
    integral (inner pieces), and the quadrature times include pairs where
    t * m / m misses t (t = 0.7 and t = 0.1 with 12 steps): the last node
    must still be tau = t."""
    u0, f, t, sym, quadrature, steps = seeded_duhamel_inputs(i)
    try:
        got = cy.solve_nonhomogeneous(
            u0, f, t, sym, quadrature=quadrature, steps=steps
        )
    except ValueError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (got.step._by_rank, got.pieces, got.error_bound, got.tol)


# the running sums of c_k phi(k) are 2, 0, 0, 60, 60, 60, 420: the
# transform is zero on interior frequency spheres, with a nonzero integral
HOLED = RadialStep({F(2): 1, F(3): F(-1, 3), F(5): 1, F(9): F(1, 7)})


def seeded_spectral_case(i):
    """Exact outcome of one seeded apply_operator (even i) or
    solve_homogeneous (odd i): (ranked step, pieces[, tol, error_bound]).
    Most inputs have a nonzero integral (inner pieces); every fifth adds
    HOLED, and the times include integers (exact powers)."""
    rng = random.Random(2000 + i)
    u = seeded_step(rng, rng.random() < 0.3)
    if i % 5 == 4:
        u = HOLED * F(rng.randint(1, 5)) + u * F(i % 2)
    if i % 2:
        t = rng.choice([0.25, 0.7, 1.0, 2.0, 3.0, 1.3])
        sym = cy.SymbolSpec(rng.choice([1.5, 2.0, 3.0]))
        got = cy.solve_homogeneous(u, t, sym)
    else:
        got = cy.apply_operator(u, rng.choice([0.5, 1.5, 2.0, 3.0]))
    if isinstance(got, RadialStep):
        return (got._by_rank, ())
    return (got.step._by_rank, got.pieces, got.tol, got.error_bound)


class TestDuhamel:
    def test_zero_forcing_matches_homogeneous(self):
        w = eigenfunction(F(2))
        grid = cy.ForcingGrid(
            times=(0.0, 1.0), steps=(RadialStep.zero(), RadialStep.zero()),
        )
        got = cy.solve_nonhomogeneous(w, grid, 1.0, SYM)
        hom = cy.solve_homogeneous(w, 1.0, SYM)
        assert got.step == hom
        assert not got.pieces

    def manufactured_error(self, quadrature, steps):
        w, grid = manufactured_setup()
        got = cy.solve_nonhomogeneous(
            RadialStep.zero(), grid, 1.0, SYM,
            quadrature=quadrature, steps=steps,
        )
        exact = w * F(math.sin(1.0))
        return math.sqrt(float((got.step - exact).l2_norm_sq())), got

    def test_manufactured_solution_simpson(self):
        err64, got = self.manufactured_error("Simpson", 64)
        assert err64 < 1e-4
        assert got.error_bound < 1e-3

    def test_simpson_order(self):
        err16, _ = self.manufactured_error("Simpson", 16)
        err32, _ = self.manufactured_error("Simpson", 32)
        order = math.log2(err16 / err32)
        assert order >= 3.5

    def test_trapezoid_order(self):
        err16, _ = self.manufactured_error("Trapezoid", 16)
        err32, _ = self.manufactured_error("Trapezoid", 32)
        order = math.log2(err16 / err32)
        assert 1.5 <= order <= 2.5

    def test_step_counts_round_up(self):
        # the coarse Richardson pass halves the count: Simpson rounds up to
        # a multiple of 4 and Trapezoid to an even count
        _, grid = manufactured_setup()
        for quadrature, asked, used in (
            ("Simpson", 18, 20), ("Simpson", 6, 8), ("Trapezoid", 7, 8),
        ):
            got, want = (
                cy.solve_nonhomogeneous(
                    RadialStep.zero(), grid, 1.0, SYM,
                    quadrature=quadrature, steps=m,
                )
                for m in (asked, used)
            )
            assert got.step == want.step
            assert got.error_bound == want.error_bound

    def test_coarse_pass_reuses_fine_nodes(self, monkeypatch):
        # one multiplier evaluation per (node, frequency sphere carrying a
        # nonzero value), counted through the module global: the coarse
        # rule reuses the fine nodes
        calls = []
        decay = cy._decay_factor

        def counted(t, lam):
            calls.append((t, lam))
            return decay(t, lam)

        monkeypatch.setattr(cy, "_decay_factor", counted)
        _, grid = manufactured_setup()
        fine = cy.solve_nonhomogeneous(
            RadialStep.zero(), grid, 1.0, SYM, steps=32
        )
        # the tau = t node and the zero initial value need no multiplier
        want = []
        for i in range(32):
            tau = 1.0 * i / 32
            _, _, rest = grid.at(tau).ft().split_inner()
            want += [(1.0 - tau, float(r) ** ALPHA)
                     for r, v in rest.sphere_values() if v]
        assert len(want) == 32
        assert calls == want
        coarse = cy.solve_nonhomogeneous(
            RadialStep.zero(), grid, 1.0, SYM, steps=16
        )
        # the Richardson estimate compares with a separate 16-step sum
        diff = math.sqrt(float((fine.step - coarse.step).l2_norm_sq()))
        assert not fine.pieces
        assert fine.error_bound == diff + fine.tol

    # sha256 of repr() of the 60 outcomes of seeded_duhamel_case, computed
    # by the node-by-node sum (transform, multiply and transform back at
    # every quadrature node) that the Fourier-side sum replaced, with the
    # last node at tau = t
    FROZEN_SHA256 = (
        "f8e02f08ede307d4176c0239663154d1445f6410dc63c75ab1b8d51c1b4ce69c"
    )

    def test_results_frozen_from_node_by_node_sum(self):
        outcomes = [seeded_duhamel_case(i) for i in range(60)]
        assert sum(o[0] == "raised" for o in outcomes) == 0
        assert sum(bool(o[1]) for o in outcomes if o[0] != "raised") == 59
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == self.FROZEN_SHA256

    @pytest.mark.parametrize("t", [0.1, 0.7])
    def test_last_node_is_t(self, t):
        # 0.1 * 12 / 12 lies above 0.1 and 0.7 * 12 / 12 below 0.7: the
        # first was refused, the second evolved f(t) for 1.1e-16
        assert t * 12 / 12 != t
        w = eigenfunction(F(2))
        grid = cy.ForcingGrid(times=(0.0, t), steps=(w, w * F(2)))
        got = cy.solve_nonhomogeneous(
            RadialStep.zero(), grid, t, SYM, quadrature="Trapezoid", steps=12,
        )
        nodes = [grid.at(t * i / 12) for i in range(12)] + [grid.at(t)]
        want = RadialStep.zero()
        for i, (g, h) in enumerate(zip(nodes, cy._weights("Trapezoid", 12, t))):
            evolved = cy.solve_homogeneous(g, t - t * i / 12 if i < 12 else 0.0,
                                           SYM)
            want = want + evolved * F(h)
        assert got.step == want

    def test_validation(self):
        w, grid = manufactured_setup()
        with pytest.raises(ValueError):
            cy.solve_nonhomogeneous(w, grid, 2.0, SYM)
        with pytest.raises(ValueError):
            cy.solve_nonhomogeneous(w, grid, 1.0, SYM, quadrature="Gauss")

    def test_quadrature_validated_at_time_zero(self):
        w, grid = manufactured_setup()
        with pytest.raises(ValueError, match="quadrature"):
            cy.solve_nonhomogeneous(w, grid, 0.0, SYM, quadrature="Gauss")

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_error_bound_dominates_true_error(self, alpha):
        # forcing (cos tau + lam sin tau) w has the solution sin(t) w; 32
        # Simpson steps on 10 log-spaced times in 0.05..5
        w = eigenfunction(F(2))
        lam = 2.0 ** alpha
        symbol = cy.SymbolSpec(alpha=alpha)
        m = 32
        for j in range(10):
            t = 0.05 * 100.0 ** (j / 9)
            times = tuple(t * i / m for i in range(m + 1))
            grid = cy.ForcingGrid(times=times, steps=tuple(
                w * F(math.cos(tau) + lam * math.sin(tau)) for tau in times
            ))
            got = cy.solve_nonhomogeneous(
                RadialStep.zero(), grid, t, symbol, steps=m
            )
            assert not got.pieces
            gap = math.sqrt(
                float((got.step - w * F(math.sin(t))).l2_norm_sq())
            )
            assert gap <= got.error_bound, (t, gap, got.error_bound)


def transformed_back(rule):
    """A quadrature rule's total step built as before the integer-pair
    coefficients: a Fraction per sphere, the step of those sphere values,
    its transform, plus the tau = t step."""
    if not rule.spheres:
        return rule.step
    k0 = min(rule.spheres)
    values = [F(*rule.spheres.get(k, (0, 1)))
              for k in range(k0, max(rule.spheres) + 1)]
    return RadialStep._from_sphere_ranks(k0, values, 0).ft() + rule.step


def x_space_estimate(f, t, sym, quadrature, steps, tol=1e-10):
    """error_bound as it was computed before the estimate moved to the
    Fourier side: both rules transformed back, the L2 norm of their
    difference in x-space, plus the inner pieces' caps and tol."""
    steps += -steps % (4 if quadrature == "Simpson" else 2)
    fine, coarse = cy._duhamel(f, t, sym, quadrature, steps, {})
    for rule in (fine, coarse):
        assert rule.total_step() == transformed_back(rule)
    est = math.sqrt(
        float((transformed_back(fine) - transformed_back(coarse))
              .l2_norm_sq())
    )
    for shape, scale in fine.pieces.items():
        gap = scale - coarse.pieces.get(shape, 0.0)
        est += cy.InnerPiece(gap, *shape).l2_cap()
    return est + tol


class TestFourierSideEstimate:
    """Parseval: the step-halving norm taken on the Fourier side is the
    same rational as the x-space norm, so the bound is the same float."""

    def test_seeded_cases_match_the_x_space_norm(self):
        pieces = 0
        for i in range(60):
            u0, f, t, sym, quadrature, steps = seeded_duhamel_inputs(i)
            got = cy.solve_nonhomogeneous(
                u0, f, t, sym, quadrature=quadrature, steps=steps
            )
            want = x_space_estimate(f, t, sym, quadrature, steps)
            assert got.error_bound == want, i
            pieces += bool(got.pieces)
        assert pieces == 59

    @pytest.mark.parametrize("quadrature", ["Simpson", "Trapezoid"])
    def test_last_step_with_an_inner_value(self, quadrature):
        # f(t) is nonzero at 0 and has a nonzero integral: the tau = t
        # steps' difference transforms to a step with an inner ball
        a = RadialStep({F(1, 2): 1, F(3): F(-1, 3)})
        b = RadialStep({F(1, 4): 2, F(2): F(5, 7), F(9): -1})
        f = cy.ForcingGrid(times=(0.0, 0.4, 1.0), steps=(b, a, a + b))
        g = f.at(1.0)
        assert g.value_at_zero() and g.integral()
        got = cy.solve_nonhomogeneous(
            a, f, 1.0, SYM, quadrature=quadrature, steps=8
        )
        assert got.error_bound == x_space_estimate(f, 1.0, SYM, quadrature, 8)


class TestRealGrid:
    def gaussian_grid(self, half_width=12.0, dx=0.01):
        n = int(round(2 * half_width / dx)) + 1
        x0 = -half_width
        vals = tuple(
            math.exp(-((x0 + i * dx) ** 2)) for i in range(n)
        )
        return cy.RealGridFunction(x0=x0, dx=dx, values=vals)

    def test_fractional_operator_beta2_is_scaled_laplacian(self):
        g = self.gaussian_grid()
        got = cy.real_fractional_operator(g, 2.0)
        for i, x in enumerate(g.xs()):
            if abs(x) > 4.0:
                continue
            second = (4.0 * x * x - 2.0) * math.exp(-x * x)
            want = -second / (4.0 * math.pi ** 2)
            assert math.isclose(got.values[i], want, abs_tol=1e-8)

    def test_csv_format(self):
        g = cy.RealGridFunction(x0=0.0, dx=0.5, values=(1.0, 2.0))
        lines = g.to_csv().splitlines()
        assert lines[0] == "x,value"
        assert lines[1] == "0,1"


class TestSolveAdelic:
    def test_time_zero(self):
        g = cy.RealGridFunction(x0=-1.0, dx=1.0, values=(0.0, 1.0, 0.0))
        w = RadialStep.sphere_indicator(F(2))
        sym = cy.SymbolSpec(alpha=2.0, beta=2.0)
        out_r, out_f = cy.solve_adelic(g, w, 0.0, sym)
        assert out_r is g and out_f is w

    def test_gaussian_closed_form(self):
        half, dx, t = 12.0, 0.01, 0.5
        n = int(round(2 * half / dx)) + 1
        vals = tuple(math.exp(-((-half + i * dx) ** 2)) for i in range(n))
        g = cy.RealGridFunction(x0=-half, dx=dx, values=vals)
        sym = cy.SymbolSpec(alpha=2.0, beta=2.0)
        out_r, out_f = cy.solve_adelic(g, eigenfunction(F(2)), t, sym, tol=1e-6)
        # convolving e^{-x^2} with the beta=2 kernel has a closed form
        denom = t + math.pi ** 2
        for i, x in enumerate(out_r.xs()):
            if abs(x) > 5.0:
                continue
            want = math.pi / math.sqrt(denom) * math.exp(
                -math.pi ** 2 * x * x / denom
            )
            assert math.isclose(out_r.values[i], want, abs_tol=1e-7)
        assert isinstance(out_f, RadialStep)

    def test_requires_beta(self):
        g = cy.RealGridFunction(x0=0.0, dx=0.1, values=(1.0,) * 5)
        with pytest.raises(ValueError):
            cy.solve_adelic(g, eigenfunction(F(2)), 1.0, cy.SymbolSpec(alpha=2.0))

    def test_too_coarse_grid_rejected(self):
        vals = (0.0, 1.0, 0.0)
        g = cy.RealGridFunction(x0=-1.0, dx=1.0, values=vals)
        sym = cy.SymbolSpec(alpha=2.0, beta=2.0)
        with pytest.raises(ToleranceError):
            cy.solve_adelic(g, eigenfunction(F(2)), 0.01, sym, tol=1e-10)


class TestOperatorFactorization:
    def test_combined_equals_factored(self):
        half, dx = 12.0, 0.02
        n = int(round(2 * half / dx)) + 1
        vals = tuple(math.exp(-((-half + i * dx) ** 2)) for i in range(n))
        h_real = cy.RealGridFunction(x0=-half, dx=dx, values=vals)
        h_fin = eigenfunction(F(2)) + eigenfunction(F(1, 3)) * F(2, 7)
        sym = cy.SymbolSpec(alpha=2.0, beta=1.3)
        radii = [F(0), F(1, 3), F(1, 2), F(2), F(4)]
        lhs = cy.apply_adelic_operator(h_real, h_fin, sym, radii)
        d_beta = cy.real_fractional_operator(h_real, sym.beta)
        d_alpha = cy.apply_operator(h_fin, sym.alpha)
        assert isinstance(d_alpha, RadialStep)
        for s in radii:
            hf = float(h_fin.value(s))
            da = float(d_alpha.value(s))
            for i in range(0, n, 97):
                rhs = hf * d_beta.values[i] + h_real.values[i] * da
                assert math.isclose(
                    lhs[s][i], rhs, rel_tol=1e-9, abs_tol=1e-8
                )


class TestRankWalk:
    """Exact solver results computed by the Fraction-stepping
    implementation that preceded the rank walk."""

    MIXED = {F(1, 9): F(3, 7), F(2): F(1, 3), F(8): -2}

    def test_eigen_results_unchanged(self):
        w = eigenfunction(F(2))
        assert repr(cy.apply_operator(w, 2.0)) == (
            "RadialStep({1/3: 8, 1/2: -4})"
        )
        assert repr(cy.solve_homogeneous(w, 1.0, SYM)) == (
            "RadialStep({1/3: 1319780871589693/36028797018963968, "
            "1/2: -1319780871589693/72057594037927936})"
        )

    def test_operator_on_mixed_step_unchanged(self):
        got = cy.apply_operator(RadialStep(self.MIXED), 2.0)
        assert repr(got.step) == (
            "RadialStep({1/9: 192/7, 1/8: -45/14, 1/7: -36/49, 1/5: -27/490, "
            "1/4: -3/140, 1/3: -1/196, 1/2: -3/1568, "
            "2: 2612921783805882071/70616442157169377280, "
            "3: -3435370815756143749/635547979414524395520, "
            "4: -3180171840871400947/2542191917658097582080, "
            "5: -3164719110838014827/14526810958046271897600, "
            "7: -5408455511686056059/711813736944267322982400, "
            "8: -732395909809623996833/29658905706011138457600, "
            "9: 313726214727890869573/38132878764871463731200})"
        )
        assert got.pieces == (cy.InnerPiece(
            scale=-1679.3328231292517, rho=F(1, 11), kind="power",
            exponent=2.0,
        ),)
        assert [got.value_with_bound(s) for s in (0, F(1, 2), F(2), F(4))] == [
            (23.40434422494423, 1.998299033617024e-08),
            (0.006385041270758195, 1.998299033617024e-08),
            (0.008298306576880644, 1.998299033617024e-08),
            (-0.023297931455369292, 1.998299033617024e-08),
        ]

    def test_heat_flow_of_ball_unchanged(self):
        ball = RadialStep.ball_indicator(F(1, 2))
        got = cy.solve_homogeneous(ball, 1.0, SYM)
        assert repr(got.step) == (
            "RadialStep({1/2: 7014813832872459/9007199254740992, "
            "2: -7014813832872459/18014398509481984})"
        )
        # re-pinned when the heat piece was first read through the kernel
        # series of transition_prob_ball
        reads = [got.value_with_bound(s) for s in (0, F(1, 2), F(2), F(4))]
        assert reads == [
            (0.846363921008158, 4.569635294724556e-14),
            (0.846363921008158, 4.569635294724556e-14),
            (0.06756313793675317, 4.569635294724556e-14),
            (0.0021149133987530635, 2.1149133987530635e-16),
        ]
        params = KernelParams(t=1.0, alpha=ALPHA)
        for (value, _), x in zip(reads, ("0", "2:0:1", "2:-1:1", "2:-2:1")):
            p = transition_prob_ball(params, parse_point(x), ZERO, F(1, 2))
            assert abs(value - p) <= 1e-14


def evolve_by_three_passes(g, dt, alpha=ALPHA):
    """e^{-dt r^alpha} g through the public transform, split and
    multiplier methods: (exact step, inner piece or None)."""
    if dt == 0:
        return g, None
    c0, rho, rest = g.ft().split_inner()
    step = rest.apply_multiplier(
        lambda q: F(*cy._decay_factor(dt, float(q) ** alpha))
    ).ft()
    if not c0:
        return step, None
    return step, cy.InnerPiece(
        scale=float(c0), rho=rho, kind="heat", exponent=alpha, time=dt
    )


def node_by_node(grid, t, quadrature, m, alpha=ALPHA):
    """The fine quadrature sum of the Duhamel integral, one evolution per
    node: (step, pieces) as solve_nonhomogeneous reports them from zero
    initial data."""
    step, pieces = RadialStep.zero(), {}
    for i, w in enumerate(cy._weights(quadrature, m, t)):
        tau = t if i == m else t * i / m
        evolved, piece = evolve_by_three_passes(grid.at(tau), t - tau, alpha)
        step = step + evolved * F(w)
        if piece is not None:
            shape = cy.InnerPiece(
                1.0, piece.rho, piece.kind, piece.exponent, piece.time
            )
            pieces[shape] = pieces.get(shape, 0.0) + w * piece.scale
    return step, tuple(
        cy.InnerPiece(s, shape.rho, shape.kind, shape.exponent, shape.time)
        for shape, s in pieces.items() if s != 0.0
    )


def battery_forcing():
    """The CLI battery's forcing: three nodes, linear in between."""
    w = eigenfunction(F(2))
    taus = (0.0, 0.5, 1.0)
    return cy.ForcingGrid(times=taus, steps=tuple(
        w * F(math.cos(tau) + 4 * math.sin(tau)) for tau in taus
    ))


def mixed_forcing(end):
    """Forcing with a nonzero integral (inner pieces), gapped ranks on both
    sides of radius 1/2, and nodes between the quadrature nodes."""
    a = RadialStep({F(1, 9): F(3, 7), F(1, 2): 1, F(2): F(-1, 3), F(8): 2})
    b = RadialStep({F(1, 4): -2, F(3): F(5, 2)})
    return cy.ForcingGrid(times=(0.0, 0.3 * end, end), steps=(a, b, a - b))


class TestOnePassDuhamel:
    @pytest.mark.parametrize("quadrature", ["Simpson", "Trapezoid"])
    @pytest.mark.parametrize("grid,t,m", [
        (battery_forcing(), 1.0, 16),
        (mixed_forcing(1.0), 1.0, 16),
        (mixed_forcing(1.0), 0.7, 12),
    ], ids=["battery-16", "mixed-16", "mixed-0.7"])
    def test_interpolated_nodes_match_node_by_node(self, grid, t, m,
                                                   quadrature):
        got = cy.solve_nonhomogeneous(
            RadialStep.zero(), grid, t, SYM, quadrature=quadrature, steps=m
        )
        assert (got.step, got.pieces) == node_by_node(grid, t, quadrature, m)

    @pytest.mark.parametrize("quadrature", ["Simpson", "Trapezoid"])
    @pytest.mark.parametrize("grid", [
        mixed_forcing(4.0),
        cy.ForcingGrid(times=(0.0, 4.0), steps=(
            eigenfunction(F(2)), eigenfunction(F(3)) * F(-2))),
    ], ids=["mixed", "eigen"])
    def test_integer_time_steps_match_node_by_node(self, grid, quadrature,
                                                   monkeypatch):
        # t = 4 in 4 steps: every dt is an integer, so every decay factor
        # is an exact power
        powers = []
        decay = cy._decay_factor

        def counted(t, lam):
            powers.append(t == int(t))
            return decay(t, lam)

        monkeypatch.setattr(cy, "_decay_factor", counted)
        got = cy.solve_nonhomogeneous(
            RadialStep.zero(), grid, 4.0, SYM, quadrature=quadrature, steps=4
        )
        assert powers and all(powers)
        assert (got.step, got.pieces) == node_by_node(grid, 4.0, quadrature, 4)

    def test_one_transform_per_rule(self, monkeypatch):
        counts = {"ft": 0, "split_inner": 0, "_rank_values": 0}
        for name in counts:
            method = getattr(RadialStep, name)

            def counted(self, *args, _name=name, _method=method):
                counts[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(RadialStep, name, counted)
        fine, coarse = cy._duhamel(
            mixed_forcing(1.0), 1.0, SYM, "Simpson", 16, {}
        )
        fine, coarse = fine.total_step(), coarse.total_step()
        assert counts == {"ft": 2, "split_inner": 0, "_rank_values": 0}
        assert not fine.is_zero() and not coarse.is_zero()


def rules_node_by_node(u0, grid, t, quadrature, m, alpha=ALPHA, tol=1e-10):
    """solve_nonhomogeneous as a sum per rule: every node's flow times the
    rule's Fraction weight, the fine rule over m steps and the coarse one
    over m/2 (its node j at fine node 2j), the bound from the two rules'
    x-space difference, then the flow of u0 added to the fine rule."""
    m += -m % (4 if quadrature == "Simpson" else 2)
    rules = []
    for count in (m, m // 2):
        step, pieces = RadialStep.zero(), {}
        for j, w in enumerate(cy._weights(quadrature, count, t)):
            tau = t if j == count else t * (j * m // count) / m
            evolved, piece = evolve_by_three_passes(grid.at(tau), t - tau,
                                                    alpha)
            step = step + evolved * F(w)
            if piece is not None:
                shape = (piece.rho, piece.kind, piece.exponent, piece.time)
                prev = pieces.get(shape)
                pieces[shape] = w * piece.scale if prev is None \
                    else prev + w * piece.scale
        rules.append((step, pieces))
    (fine, pieces), (coarse, coarse_pieces) = rules
    est = math.sqrt(float((fine - coarse).l2_norm_sq()))
    for shape, scale in pieces.items():
        gap = scale - coarse_pieces.get(shape, 0.0)
        est += cy.InnerPiece(gap, *shape).l2_cap()
    if not u0.is_zero():
        evolved, piece = evolve_by_three_passes(u0, t, alpha)
        fine = fine + evolved
        if piece is not None:
            shape = (piece.rho, piece.kind, piece.exponent, piece.time)
            prev = pieces.get(shape)
            pieces[shape] = piece.scale if prev is None \
                else prev + piece.scale
    return cy.EvaluableRadial(fine, tuple(
        cy.InnerPiece(s, *shape) for shape, s in pieces.items() if s != 0.0
    ), tol, est + tol)


def eigen_forcing(t, m, alpha=ALPHA):
    """The benchmark's forcing (cos tau + lam sin tau) w sampled at the m
    quadrature nodes: every node is a forcing node."""
    w, lam = eigenfunction(F(2)), 2.0 ** alpha
    times = tuple(t * i / m for i in range(m + 1))
    return cy.ForcingGrid(times=times, steps=tuple(
        w * F(math.cos(tau) + lam * math.sin(tau)) for tau in times))


class TestWeightClassSums:
    """Each node's flow is added once into the sum of its (fine weight,
    coarse weight) class and the rules are integer combinations of those
    sums: the same rationals and floats as every node weighted per rule."""

    @pytest.mark.parametrize("quadrature", ["Trapezoid", "Simpson"])
    @pytest.mark.parametrize("grid,t,m", [
        (eigen_forcing(1.3, 4), 1.3, 4),
        (eigen_forcing(0.7, 8), 0.7, 8),
        (eigen_forcing(2.5, 32), 2.5, 32),
        (mixed_forcing(1.0), 1.0, 9),
        (mixed_forcing(0.7), 0.7, 32),
        (battery_forcing(), 1.0, 16),
        (mixed_forcing(4.0), 4.0, 4),
        (mixed_forcing(3e-307), 3e-307, 32),
    ], ids=["eigen-4", "eigen-8", "eigen-32", "mixed-rounded-up", "mixed-32",
            "battery-16", "integer-t", "subnormal-weights"])
    def test_matches_the_rules_summed_node_by_node(self, grid, t, m,
                                                   quadrature):
        u0 = RadialStep({F(1, 4): 3, F(3): F(-1, 2)})
        for start in (RadialStep.zero(), u0):
            got = cy.solve_nonhomogeneous(
                start, grid, t, SYM, quadrature=quadrature, steps=m
            )
            want = rules_node_by_node(start, grid, t, quadrature, m)
            assert repr(got) == repr(want)

    def test_subnormal_weights_are_not_multiples(self):
        # h/3 is subnormal at t = 3e-307 and m = 32, so the fine and
        # coarse weights lose low bits differently
        h_third = cy._weights("Simpson", 32, 3e-307)[0]
        coarse_third = cy._weights("Simpson", 16, 3e-307)[0]
        assert 0 < h_third < 2.0 ** -1022
        assert coarse_third != 2 * h_third

    def test_one_class_sum_per_weight_pair(self, monkeypatch):
        made = []
        spectral_sum = cy._SpectralSum

        def counted():
            made.append(1)
            return spectral_sum()

        monkeypatch.setattr(cy, "_SpectralSum", counted)
        for quadrature, classes in (("Trapezoid", 3), ("Simpson", 4)):
            made.clear()
            cy._duhamel(eigen_forcing(1.0, 32), 1.0, SYM, quadrature, 32, {})
            assert len(made) == 2 + classes


class TestOneSpectralPath:
    # sha256 of repr() of the 60 outcomes of seeded_spectral_case, computed
    # when apply_operator and solve_homogeneous built one Fraction per
    # sphere on a path of their own
    FROZEN_SHA256 = (
        "042ed45168db8ac842ba66da57099bca3cbbfc48797cf2c8a2a8dc656e8a9b5b"
    )

    def test_results_frozen_from_fraction_path(self):
        outcomes = [seeded_spectral_case(i) for i in range(60)]
        assert sum(bool(o[1]) for o in outcomes) == 44
        assert all(o[0] for o in outcomes)
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == self.FROZEN_SHA256

    @pytest.mark.parametrize("t", [0.7, 2.0])
    def test_one_decay_factor_per_sphere_with_a_value(self, t, monkeypatch):
        calls = []
        decay = cy._decay_factor

        def counted(t, lam):
            calls.append((t, lam))
            return decay(t, lam)

        monkeypatch.setattr(cy, "_decay_factor", counted)
        u = HOLED + eigenfunction(F(1, 4))
        cy.solve_homogeneous(u, t, SYM)
        _, _, rest = u.ft().split_inner()
        spheres = rest.sphere_values()
        assert any(not v for _, v in spheres[1:-1])
        assert calls == [(t, float(r) ** ALPHA) for r, v in spheres if v]

    def test_zero_spheres_past_the_cap_not_refused(self):
        # FT(1_B(1/31)) is 0 on the sphere of 27 (e^-729 is subnormal: a
        # power past the cap) and nonzero only on that of 29 (e^-841 is 0)
        u = RadialStep.ball_indicator(F(1, 31))
        got = cy.solve_homogeneous(u, 1e4, SYM)
        assert got.step.is_zero()
        assert got.pieces == (cy.InnerPiece(
            scale=float(u.integral()), rho=F(27), kind="heat", exponent=ALPHA,
            time=1e4,
        ),)


class TestIntegerTimeCap:
    def test_huge_integer_time_refused_before_the_power(self):
        w = eigenfunction(F(2))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"cap of 2\^20 bits"):
            cy.solve_homogeneous(w, 1e6, cy.SymbolSpec(2.0))
        with pytest.raises(ValueError, match=r"cap of 2\^20 bits"):
            cy.solve_homogeneous(w, 1e300, cy.SymbolSpec(2.0))
        assert time.perf_counter() - start < 1.0

    def test_cap_counts_the_power_bits(self):
        lam = 4.0  # e^-4 is m / 2^58 with a 53-bit odd m
        base = F(math.exp(-lam))
        size = base.numerator.bit_length() + base.denominator.bit_length() - 1
        below = cy._DECAY_BITS_CAP // size
        got = cy._decay_factor(float(below), lam)
        power = base ** below
        assert got == (power.numerator, power.denominator)
        assert got[0].bit_length() + got[1].bit_length() \
            <= cy._DECAY_BITS_CAP + 2
        with pytest.raises(ValueError, match="cap"):
            cy._decay_factor(float(below + 1), lam)

    def test_trivial_bases_are_never_refused(self):
        # e^-lam rounds to 0 or 1: every power is 0 or 1
        assert cy._decay_factor(1e9, 800.0) == (0, 1)
        assert cy._decay_factor(1e9, 1e-20) == (1, 1)
        assert cy._decay_factor(1e9 + 0.5, 4.0) == \
            math.exp(-(1e9 + 0.5) * 4).as_integer_ratio()


def _prime_powers(n):
    """(m, p) for every prime power m = p^k <= n, ascending."""
    out = []
    for m in range(2, n + 1):
        p = next(d for d in range(2, m + 1) if m % d == 0)
        k = m
        while k % p == 0:
            k //= p
        if k == 1:
            out.append((m, p))
    return out


def fourier_side_ball_flow(t, alpha, eps, s, depth=160):
    """P(t, x, B(eps)) at ||x|| = s, to 50 digits, as a sum over the
    frequency spheres S_q. The radii are the prime powers m and their
    reciprocals; vol B(m) = phi(m) = lcm(1..m) and vol B(1/m) = p / phi(m)
    for m = p^k. The character integrates to vol B(q) over B(q) at x when
    q < 1/s, and to 0 otherwise; so 1_B(eps) transforms to
    vol B(eps) 1_B(eps*), eps* the largest radius below 1/eps, and its
    heat flow is vol B(eps) times the sum over q <= eps* of e^{-t q^alpha}
    times the character's integral over S_q. The ball below the smallest
    radius (1/157 at depth 160) is left out: it carries at most
    vol B(eps) vol B(1/157) < 1e-58 of the flow."""
    import mpmath

    pps = _prime_powers(depth)
    vol, lcm = {}, 1
    for m, p in pps:
        lcm *= p
        vol[F(m)] = F(lcm)
        vol[F(1, m)] = F(p, lcm)
    radii = sorted(vol)
    eps_star = max(q for q in radii if q < 1 / F(eps))

    def ball_integral(q):
        return vol[q] if q < 1 / F(s) else 0

    with mpmath.workdps(50):
        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        total = mpmath.mpf(0)
        for prev, q in zip(radii, radii[1:]):
            if q > eps_star:
                break
            weight = ball_integral(q) - ball_integral(prev)
            if weight:
                total += mpmath.exp(-t * mp(q) ** alpha) * mp(weight)
        return total * mp(vol[F(eps)])


class TestOneHeatFlow:
    """The heat flow of 1_B(eps) read at norm s is the transition function
    P(t, x, B(eps)) at ||x|| = s: the solver and transition_prob_ball read
    it from one kernel series."""

    ALPHAS = (1.5, 2.0, 3.0)
    TIMES = (0.1, 1.0, 5.0)
    EPS = (F(1, 27), F(1, 4), F(2), F(9))
    POINTS = {F(1, 8): "2:2:1", F(1, 2): "2:0:1", F(3): "3:-1:1",
              F(4): "2:-2:1", F(27): "3:-3:1"}
    # (alpha, t, eps, s): inside and outside the ball, every alpha
    ORACLE_SPOTS = (
        (1.5, 0.1, F(1, 27), F(1, 8)),
        (2.0, 1.0, F(1, 4), F(3)),
        (3.0, 5.0, F(2), F(1, 8)),
        (2.0, 0.1, F(9), F(27)),
        (1.5, 5.0, F(9), F(4)),
    )

    def reads(self, alpha, t, eps, s):
        hom = cy.solve_homogeneous(
            RadialStep.ball_indicator(eps), t, cy.SymbolSpec(alpha)
        )
        value, bound = hom.value_with_bound(s)
        p = transition_prob_ball(
            KernelParams(t=t, alpha=alpha), parse_point(self.POINTS[s]),
            ZERO, eps,
        )
        return value, bound, p

    def test_solver_matches_transition_on_the_grid(self):
        pairs = 0
        for alpha in self.ALPHAS:
            for t in self.TIMES:
                for eps in self.EPS:
                    for s in self.POINTS:
                        value, bound, p = self.reads(alpha, t, eps, s)
                        gap = abs(value - p)
                        assert gap <= 1e-14, (alpha, t, eps, s, gap)
                        assert gap <= bound, (alpha, t, eps, s, gap, bound)
                        pairs += 1
        assert pairs == 180

    @pytest.mark.parametrize("alpha,t,eps,s", ORACLE_SPOTS)
    def test_both_match_the_fourier_side_sum(self, alpha, t, eps, s):
        pytest.importorskip("mpmath")
        value, bound, p = self.reads(alpha, t, eps, s)
        ref = fourier_side_ball_flow(t, alpha, eps, s)
        assert abs(value - ref) <= bound
        assert abs(p - ref) <= ref * 1e-13

    @pytest.mark.parametrize("alpha,t,eps,s", ORACLE_SPOTS)
    def test_transition_prints_a_bound_that_holds(self, alpha, t, eps, s,
                                                  capsys):
        pytest.importorskip("mpmath")
        from adelic import cli

        argv = ["transition", "--t", str(t), "--alpha", str(alpha),
                "--eps", str(eps), "--x", self.POINTS[s], "--center", "0"]
        assert cli.main(argv) == 0
        value, bound = map(float, capsys.readouterr().out.split())
        ref = fourier_side_ball_flow(t, alpha, eps, s)
        assert abs(value - ref) <= bound
        # the bound _ball_flow returns: 1e-13 |value| + 2^-1022, printed
        # to four digits
        assert bound == float(f"{1e-13 * value + 2.0 ** -1022:.3e}")

    def test_heat_piece_answers_past_the_phi_cap(self):
        # the kernel series below 1/199999 reads log phi only, while
        # ft_ball_eval's series there needs an exact phi past
        # primepow._PHI_BITS_CAP: the power piece still refuses
        hom = cy.solve_homogeneous(RadialStep.ball_indicator(F(1, 2)), 1.0,
                                   SYM)
        value, bound = hom.value_with_bound(199999)
        assert value == 0.0
        assert 0.0 < bound <= 1e-300
        power = cy.apply_operator(RadialStep.ball_indicator(F(2)), 2.0)
        with pytest.raises(ValueError, match=r"cap of 2\^18 bits"):
            power.value_with_bound(199999)

    def test_heat_piece_needs_exponent_above_one(self):
        piece = cy.InnerPiece(1.0, F(1, 2), "heat", 1.0, 0.5)
        with pytest.raises(ValueError, match="exponent must exceed 1"):
            piece.value(F(2), 1e-10)
        with pytest.raises(ValueError, match="unknown piece kind"):
            cy.InnerPiece(1.0, F(1, 2), "wave", 2.0, 0.5).value(F(2), 1e-10)
