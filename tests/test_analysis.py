import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from couplemc import fit_log_corrected, fit_power_law
from couplemc.errors import ValidationError


def test_recovers_exact_power_law():
    r = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    pairs = [(ri, 2.5 * ri**0.7) for ri in r]
    fit = fit_power_law(pairs)
    assert fit.slope == pytest.approx(0.7, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(2.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 5


def test_permutation_gives_identical_bits():
    rng = np.random.default_rng(3)
    r = np.array([0.3, 0.15, 0.08, 0.04, 0.02, 0.01])
    v = 1.3 * r**0.85 * np.exp(0.05 * rng.standard_normal(len(r)))
    pairs = list(zip(r, v))
    base = fit_power_law(pairs)
    for _ in range(5):
        rng.shuffle(pairs)
        fit = fit_power_law(pairs)
        assert fit.slope == base.slope
        assert fit.intercept == base.intercept
        assert fit.slope_stderr == base.slope_stderr


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.floats(1e-4, 10.0), st.floats(1e-6, 1e3),
                                 st.floats(0.1, 10.0)), min_size=3, max_size=12),
       data=st.data())
def test_fit_does_not_depend_on_input_order(points, data):
    # any (r, v, weight) list and any reordering of it give the same bits
    assume(len({r for r, _, _ in points}) > 1)
    shuffled = data.draw(st.permutations(points))
    for weighted in (False, True):
        fits = [fit_power_law([(r, v) for r, v, _ in pts],
                              [w for _, _, w in pts] if weighted else None)
                for pts in (points, shuffled)]
        assert fits[0] == fits[1]


def test_slope_invariant_under_value_scaling():
    # scaling v by a constant moves the intercept only; the slope agrees to
    # floating-point resolution of the log transform
    r = np.array([0.2, 0.1, 0.05, 0.02])
    v = 0.7 * r**1.1 * np.array([1.02, 0.97, 1.01, 0.99])
    f1 = fit_power_law(list(zip(r, v)))
    f2 = fit_power_law(list(zip(r, 3.0 * v)))
    assert f2.slope == pytest.approx(f1.slope, abs=1e-12)
    assert f2.intercept - f1.intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_log_corrected_regressor():
    r = np.array([0.3, 0.1, 0.03, 0.01, 0.003])
    pairs = [(ri, 0.4 * ri * (-np.log(ri))) for ri in r]
    fit = fit_log_corrected(pairs)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)
    # a plain power fit of the same data drifts above slope 1
    plain = fit_power_law(pairs)
    assert plain.slope < 1.0 - 1e-3


def test_weights_downweight_outliers():
    r = np.array([0.2, 0.1, 0.05, 0.025])
    v = r.copy()
    v[0] *= 10.0  # corrupted point
    w = np.array([0.0, 1.0, 1.0, 1.0])
    fit = fit_power_law(list(zip(r, v)), weights=w)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_rejects_degenerate_input():
    with pytest.raises(ValidationError):
        fit_power_law([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValidationError):
        fit_power_law([(0.1, 1.0), (0.2, -2.0), (0.3, 3.0)])
    with pytest.raises(ValidationError):
        fit_power_law([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
    with pytest.raises(ValidationError):
        fit_log_corrected([(0.5, 1.0), (1.5, 2.0), (0.1, 3.0)])
