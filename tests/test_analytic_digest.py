"""A frozen digest of the deterministic stack at seeded (t, alpha) points.

Each point runs what one op of the benchmark's `analytic` workload runs:
the normalization integral, the kernel at five radii, the radius law on
1/128..128, two ball transition probabilities, the heat flow of a ball
indicator read at three norms with its bound, the flow of an
eigenfunction and a Simpson Duhamel solve whose exact solution is
sin(t) times that eigenfunction. The digest is the sha256 of the repr of
all outcomes, so any change of a float's bits or of a rational fails it.
"""
import hashlib
import math
import random
from fractions import Fraction as F

from adelic import (
    AdelePoint,
    ForcingGrid,
    KernelParams,
    RadialStep,
    SymbolSpec,
    normalization,
    parse_point,
    radius_distribution,
    solve_homogeneous,
    solve_nonhomogeneous,
    transition_prob_ball,
    z_finite,
)

ALPHAS = (1.5, 2.0, 3.0)
T_RANGE = (0.05, 5.0)
POINTS_PER_ALPHA = 8
Z_RADII = (F(1, 4), F(1, 2), F(2), F(3), F(8))
LAW_WINDOW = (F(1, 128), F(128))
HOM_NORMS = (F(1, 2), F(2), F(4))
DUHAMEL_STEPS = 32

# taken when the heat flow of the ball was first read through the kernel
# series of transition_prob_ball, which changed only the value_with_bound
# pairs of the outcomes
FROZEN_SHA256 = (
    "38a6907c5a808d047a2b0e463f074802b53dc1bdeb29952e0c13490e9e182e64"
)
# a point of each norm in HOM_NORMS
HOM_POINTS = ("2:0:1", "2:-1:1", "2:-2:1")


def seeded_points():
    """(t, alpha): t log-uniform on T_RANGE, 8 per alpha."""
    rng = random.Random(20261019)
    lo, hi = (math.log(x) for x in T_RANGE)
    return [(math.exp(rng.uniform(lo, hi)), alpha)
            for alpha in ALPHAS for _ in range(POINTS_PER_ALPHA)]


def outcome(t, alpha):
    w = RadialStep.sphere_indicator(F(2)).ft()  # eigenvalue 2^alpha
    u0 = RadialStep.ball_indicator(F(1, 2))  # its transform is no step
    lam = 2.0 ** alpha
    times = tuple(t * i / DUHAMEL_STEPS for i in range(DUHAMEL_STEPS + 1))
    forcing = ForcingGrid(times=times, steps=tuple(
        w * F(math.cos(tau) + lam * math.sin(tau)) for tau in times))
    params = KernelParams(t=t, alpha=alpha)
    symbol = SymbolSpec(alpha=alpha)
    zero = AdelePoint.zero()
    hom = solve_homogeneous(u0, t, symbol)
    return (
        normalization(params),
        [z_finite(r, params) for r in Z_RADII],
        radius_distribution(params, *LAW_WINDOW),
        transition_prob_ball(params, zero, parse_point("2:-2:1"), F(1, 2)),
        transition_prob_ball(params, zero, zero, F(2)),
        [hom.value_with_bound(s) for s in HOM_NORMS],
        solve_homogeneous(w, t, symbol),
        solve_nonhomogeneous(RadialStep.zero(), forcing, t, symbol,
                             quadrature="Simpson", steps=DUHAMEL_STEPS),
    )


def test_analytic_outcomes_frozen():
    outcomes = [outcome(t, alpha) for t, alpha in seeded_points()]
    assert len(outcomes) == 24
    for (norm, *_), (t, alpha) in zip(outcomes, seeded_points()):
        assert abs(norm - 1.0) <= 1e-6, (t, alpha)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == FROZEN_SHA256
    # the heat flow of u0 = 1_B(1/2) read at norm s is P(t, x, B(1/2))
    zero = AdelePoint.zero()
    for outcome_, (t, alpha) in zip(outcomes, seeded_points()):
        params = KernelParams(t=t, alpha=alpha)
        for (value, bound), text in zip(outcome_[5], HOM_POINTS):
            p = transition_prob_ball(params, parse_point(text), zero, F(1, 2))
            assert abs(value - p) <= 1e-14, (t, alpha, text)
            assert abs(value - p) <= bound, (t, alpha, text)


def test_outcomes_do_not_depend_on_call_history():
    # the kernel series are memoized; every outcome is
    # the same whether each call starts cold, the points run in reverse
    # order, or every series is already kept
    from adelic import heatkernel

    def cold(point):
        heatkernel._series.cache_clear()
        return repr(outcome(*point))

    points = seeded_points()
    cleared = [cold(point) for point in points]
    reverse = [repr(outcome(*point)) for point in reversed(points)][::-1]
    warm = [repr(outcome(*point)) for point in points]
    assert cleared == reverse == warm
    digest = hashlib.sha256(("[" + ", ".join(warm) + "]").encode())
    assert digest.hexdigest() == FROZEN_SHA256
