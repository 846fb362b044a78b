import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from couplemc import (LyapunovParams, ModulusOfContinuity, RngStream, RunningMaxQuery,
                      SolveRequest, TimeGrid, bm_coupling_expectation, bm_coupling_survival,
                      coupling_time_ladder, coupling_times, difference_ladder,
                      fit_power_law, heat_kernel, lyapunov_f, running_max_bounds,
                      sgn_drift_density, sgn_drift_solution, solve_u)
from couplemc.coupling import simulate_coupled
from couplemc.errors import ValidationError
from couplemc.registry import (make_constant_field, make_constant_terminal,
                               make_gaussian_bump, make_linear, make_log_modulus_field,
                               make_sin_field)
from couplemc.sde_engine import simulate_path, simulate_terminal


class TestSgnDriftDensity:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0])
    @pytest.mark.parametrize("x", [0.3, -0.7, 0.0])
    def test_normalization(self, theta, t, x):
        val, _ = quad(lambda y: sgn_drift_density(theta, t, x, y),
                      -40.0, 40.0, points=[0.0, x], limit=400,
                      epsabs=1e-12, epsrel=1e-10)
        assert abs(val - 1.0) <= 1e-8

    def test_zero_drift_is_heat_kernel(self):
        ys = np.linspace(-4.0, 4.0, 41)
        for x in (0.0, 0.8, -1.3):
            for y in ys:
                p = sgn_drift_density(0.0, 0.7, x, y)
                q = heat_kernel([[1.0]], [0.0], 0.7, [x], [y])
                assert p == pytest.approx(q, abs=1e-12)

    def test_mirror_symmetry(self):
        # the drift is odd, so p(x, y) = p(-x, -y)
        for x in (0.4, -1.1):
            for y in (-2.0, -0.1, 0.3, 1.7):
                assert sgn_drift_density(1.3, 0.6, x, y) == pytest.approx(
                    sgn_drift_density(1.3, 0.6, -x, -y), rel=1e-13)

    def test_continuous_across_zero(self):
        eps = 1e-9
        for x in (0.5, -0.5):
            up = sgn_drift_density(1.0, 1.0, x, eps)
            down = sgn_drift_density(1.0, 1.0, x, -eps)
            assert up == pytest.approx(down, rel=1e-6)

    def test_vectorized_over_y(self):
        ys = np.linspace(-2, 2, 9)
        vec = sgn_drift_density(1.0, 1.0, 0.2, ys)
        assert vec.shape == ys.shape
        for yi, vi in zip(ys, vec):
            assert vi == sgn_drift_density(1.0, 1.0, 0.2, yi)

    def test_solution_bounded_by_sup(self):
        u = sgn_drift_solution(1.0, 1.0, 0.25, lambda y: np.exp(-y * y / 2))
        assert 0.0 < u < 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            sgn_drift_density(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            sgn_drift_density(-1.0, 1.0, 0.0, 0.0)


class TestHeatKernel:
    def test_matches_scipy_1d(self):
        for y in np.linspace(-3, 3, 13):
            ours = heat_kernel([[2.0]], [0.5], 0.7, [0.3], [y])
            ref = norm.pdf(y, loc=0.3 + 0.7 * 0.5, scale=np.sqrt(0.7 * 2.0))
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_matches_scipy_2d(self):
        a0 = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = np.array([0.1, -0.4])
        b0 = np.array([0.2, 0.0])
        t = 0.5
        mvn = multivariate_normal(mean=x + t * b0, cov=t * a0)
        for y in ([0.0, 0.0], [1.0, -1.0], [0.3, 0.2]):
            assert heat_kernel(a0, b0, t, x, y) == pytest.approx(
                mvn.pdf(y), rel=1e-12)

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValidationError):
            heat_kernel([[0.0]], [0.0], 1.0, [0.0], [0.0])
        with pytest.raises(ValidationError):
            heat_kernel([[1.0]], [0.0], 0.0, [0.0], [0.0])
        # a start point of another dimension than a0's is not broadcast
        with pytest.raises(ValidationError):
            heat_kernel([[1.0, 0.0], [0.0, 1.0]], None, 1.0, [0.0], [0.0, 0.0])
        # a0 must be a symmetric square matrix, not solved as given
        with pytest.raises(ValidationError):
            heat_kernel([[1, 5], [0, 1]], None, 1.0, [0, 0], [0.5, 0.5])
        with pytest.raises(ValidationError):
            heat_kernel([[1, 0, 0], [0, 1, 0]], None, 1.0, [0, 0], [0.5, 0.5])


class TestRunningMax:
    def test_exact_value(self):
        b = running_max_bounds(RunningMaxQuery(t=1.0, x=1.0))
        assert b.exact == pytest.approx(2.0 * (1.0 - norm.cdf(1.0)), rel=1e-13)

    def test_bounds_sandwich_brownian_law(self):
        # with c1 = c2 = 1 both published bounds must hold for Brownian
        # motion itself: tail <= upper_tail and level <= lower_level
        for t in (0.25, 1.0, 4.0):
            for x in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0):
                b = running_max_bounds(RunningMaxQuery(t=t, x=x))
                tail = 2.0 * (1.0 - norm.cdf(x / np.sqrt(t)))
                assert tail <= b.upper_tail + 1e-15
                assert 1.0 - tail <= b.lower_level + 1e-15

    def test_degenerate_level(self):
        b = running_max_bounds(RunningMaxQuery(t=1.0, x=0.0))
        assert np.isinf(b.upper_tail)
        assert b.lower_level == 0.0
        assert b.exact == pytest.approx(1.0)

    def test_rejects_bad_query(self):
        with pytest.raises(ValidationError):
            RunningMaxQuery(t=0.0, x=1.0)
        with pytest.raises(ValidationError):
            RunningMaxQuery(t=1.0, x=-1.0)
        with pytest.raises(ValidationError):
            RunningMaxQuery(t=1.0, x=1.0, c1=2.0, c2=1.0)


class TestCouplingExpectation:
    def test_against_riemann_sum(self):
        from scipy.special import erf
        d0, t = 0.1, 1.0
        s = (np.arange(200_000) + 0.5) * (t / 200_000)
        riemann = np.mean(erf(d0 / (2.0 * np.sqrt(s)) / np.sqrt(2.0))) * t
        assert bm_coupling_expectation(d0, t) == pytest.approx(riemann, rel=1e-6)

    def test_saturates_for_distant_start(self):
        # a very distant pair almost never couples, so E[t ^ tau] ~ t
        assert bm_coupling_expectation(100.0, 0.5) == pytest.approx(0.5, rel=1e-10)

    def test_monotone_in_distance(self):
        vals = [bm_coupling_expectation(d, 1.0) for d in (0.05, 0.1, 0.2, 0.4)]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            bm_coupling_expectation(0.0, 1.0)
        with pytest.raises(ValidationError):
            bm_coupling_expectation(0.1, 0.0)


class TestCouplingSurvival:
    def test_against_first_passage_law(self):
        # tau is the first time a Brownian motion of variance 4s travels
        # d0, so P(tau > t) = 1 - 2 P(N(0, 4t) > d0) by reflection
        d0, t = 0.3, np.array([0.01, 0.2, 1.0, 5.0])
        exact = 1.0 - 2.0 * norm.sf(d0 / (2.0 * np.sqrt(t)))
        assert np.allclose(bm_coupling_survival(d0, t), exact, rtol=1e-12, atol=1e-15)
        assert np.all(np.diff(bm_coupling_survival(d0, t)) < 0)

    def test_expectation_integrates_it(self):
        # the expectation is the quadrature of this survival function
        d0, t = 0.15, 0.8
        val, _ = quad(lambda s: bm_coupling_survival(d0, s), 0.0, t,
                      epsrel=1e-10, epsabs=0.0, limit=200)
        assert bm_coupling_expectation(d0, t) == val

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            bm_coupling_survival(0.0, 1.0)
        with pytest.raises(ValidationError):
            bm_coupling_survival(0.1, np.array([0.5, 0.0]))


@pytest.mark.parametrize("call", [
    lambda: sgn_drift_density(1.0, np.nan, 0.0, 0.0),
    lambda: bm_coupling_survival(np.nan, 1.0),
    lambda: bm_coupling_expectation(0.2, np.inf),
    lambda: running_max_bounds(RunningMaxQuery(t=np.nan, x=1.0)),
    lambda: heat_kernel([[1.0]], [0.0], np.nan, [0.0], [0.0]),
    lambda: make_gaussian_bump(width=np.nan),
    lambda: make_log_modulus_field(alpha=np.nan),
    lambda: ModulusOfContinuity("power", scale=np.nan, alpha=0.5),
    lambda: fit_power_law([(0.1, np.nan), (0.2, 1.0), (0.3, 2.0)]),
    lambda: LyapunovParams(gamma=np.nan, rho=ModulusOfContinuity("zero")),
    lambda: lyapunov_f(LyapunovParams(gamma=1.0, rho=ModulusOfContinuity("zero")), np.nan),
], ids=["sgn-density-nan-t", "survival-nan-d0", "expectation-inf-t", "running-max-nan-t",
        "heat-kernel-nan-t", "bump-nan-width", "log-modulus-nan-alpha",
        "power-modulus-nan-scale", "fit-nan-value", "lyapunov-nan-gamma",
        "lyapunov-nan-eta"])
def test_range_checks_reject_nan(call):
    # nan compares false with every bound, so each check is written to
    # fail on it; a horizon t or a bump width must also be finite
    with pytest.raises(ValidationError):
        call()


CONST, SIN = make_constant_field(dim=1), make_sin_field(dim=1, amp=0.5)
GRID = TimeGrid(1.0, 8)


def _solve(field, x):
    """A 4-path SolveRequest of field at x on GRID."""
    return SolveRequest(field=field, terminal=make_gaussian_bump(0.0, 1.0),
                        eval_point=np.asarray(x, dtype=float), n_paths=4, grid=GRID)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: sgn_drift_density(1.0, np.inf, 0.0, 0.0),
    lambda: sgn_drift_density(1.0, 1.0, np.nan, 0.0),
    lambda: sgn_drift_density(np.inf, 1.0, 0.0, 0.0),
    lambda: heat_kernel([[1.0]], [0.0], np.inf, [0.0], [0.0]),
    lambda: RunningMaxQuery(t=np.inf, x=1.0),
    lambda: RunningMaxQuery(t=1.0, x=np.inf),
    lambda: RunningMaxQuery(t=1.0, x=1.0, c2=np.inf),
    lambda: make_linear(np.nan),
    lambda: make_linear([1.0, np.inf]),
    lambda: make_constant_terminal(np.nan),
    lambda: make_gaussian_bump(center=np.nan),
    lambda: make_constant_field(a0=np.inf),
    lambda: make_constant_field(dim=2, a0=[[1.0, np.nan], [np.nan, 1.0]]),
    lambda: heat_kernel([[np.nan]], [0.0], 1.0, [0.0], [0.0]),
    lambda: heat_kernel([[1.0]], [np.inf], 1.0, [0.0], [0.0]),
    lambda: heat_kernel([[1.0]], [0.0], 1.0, [np.inf], [0.0]),
    lambda: heat_kernel([[1.0]], [0.0], 1.0, [0.0], [np.nan]),
    lambda: fit_power_law([(0.1, np.inf), (0.2, 1.0), (0.3, 2.0)]),
    lambda: fit_power_law([(np.inf, 1.0), (0.2, 1.0), (0.3, 2.0)]),
    lambda: simulate_terminal(CONST, [np.nan], GRID, RngStream(1), 0, 4),
    lambda: simulate_terminal(SIN, [np.inf], GRID, RngStream(1), 0, 4),
    lambda: simulate_path(SIN, [np.nan], GRID, RngStream(1)),
    lambda: solve_u(_solve(CONST, [-np.inf]), RngStream(1)),
    lambda: solve_u(_solve(SIN, [np.nan]), RngStream(1)),
    lambda: coupling_times(CONST, [np.nan], [0.1], GRID, RngStream(1), 4),
    lambda: coupling_times(SIN, [0.0], [np.inf], GRID, RngStream(1), 4),
    lambda: coupling_times(CONST, [0.0], [[0.1], [np.nan]], GRID, RngStream(1), 2),
    lambda: coupling_times(SIN, [0.0], [[np.inf], [0.1]], GRID, RngStream(1), 2),
    lambda: coupling_time_ladder(CONST, [0.0], [[0.1], [np.inf]], 1.0, GRID, 4,
                                 RngStream(1)),
    lambda: coupling_time_ladder(SIN, [np.nan], [[0.1]], 1.0, GRID, 4, RngStream(1)),
    lambda: difference_ladder(_solve(CONST, [np.inf]), [[0.1]], RngStream(1)),
    lambda: difference_ladder(_solve(SIN, [0.0]), [[0.1], [np.nan]], RngStream(1)),
    lambda: simulate_coupled(CONST, [0.0], [np.nan], GRID, RngStream(1)),
    lambda: simulate_coupled(SIN, [np.inf], [0.1], GRID, RngStream(1)),
], ids=["sgn-density-inf-t", "sgn-density-nan-x", "sgn-density-inf-theta",
        "heat-kernel-inf-t", "running-max-inf-t", "running-max-inf-x", "running-max-inf-c2",
        "linear-nan", "linear-inf-entry", "constant-terminal-nan", "bump-nan-center",
        "constant-field-inf-a0", "constant-field-nan-matrix", "heat-kernel-nan-a0",
        "heat-kernel-inf-b0", "heat-kernel-inf-x", "heat-kernel-nan-y",
        "fit-inf-value", "fit-inf-distance", "terminal-constant-nan-x0",
        "terminal-sin-inf-x0", "path-sin-nan-x0", "solve-constant-inf-point",
        "solve-sin-nan-point", "coupling-times-constant-nan-x",
        "coupling-times-sin-inf-z", "coupling-times-constant-nan-pair-start",
        "coupling-times-sin-inf-pair-start", "ladder-constant-inf-z", "ladder-sin-nan-x",
        "difference-ladder-constant-inf-x", "difference-ladder-sin-nan-z",
        "coupled-constant-nan-z", "coupled-sin-inf-x"])
def test_non_finite_library_input_is_rejected_before_numpy_warns(call):
    # input that no config reaches (a config stops it first) is checked in
    # the closed forms, builders and drivers themselves: a ValidationError,
    # raised before NumPy warns, a terminal returns nan or a driver
    # reports a non-finite start point as a divergence at step 1
    with pytest.raises(ValidationError):
        call()
