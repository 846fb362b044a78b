import numpy as np
import pytest

from couplemc import (CoefficientField, ModulusOfContinuity, ZERO_MODULUS,
                      classify_dini, default_sample_points, sqrt_spd,
                      validate_field)
from couplemc.coefficients import require_dini
from couplemc.errors import (DiniDivergenceError, EllipticityError,
                             ValidationError)
from couplemc.registry import (make_constant_field, make_gaussian_bump, make_linear,
                               make_log_modulus_field, make_power_modulus_field,
                               make_sgn_drift_field, make_sin_field)


class TestModulus:
    def test_zero(self):
        assert ZERO_MODULUS(0.3) == 0.0
        assert np.all(ZERO_MODULUS(np.linspace(0, 2, 7)) == 0.0)

    def test_power_values(self):
        rho = ModulusOfContinuity("power", scale=2.0, alpha=0.5)
        assert rho(0.25) == pytest.approx(1.0)
        assert rho(0.0) == 0.0

    def test_log_power_shape(self):
        rho = ModulusOfContinuity("log_power", scale=0.7, alpha=2.0)
        assert rho(0.0) == 0.0
        assert rho(1.0) == pytest.approx(0.7)
        assert rho(2.0) == pytest.approx(0.7)  # capped past r = 1
        r = np.exp(-3.0)
        assert rho(r) == pytest.approx(0.7 / 9.0)
        grid = np.linspace(0.0, 1.5, 400)
        assert np.all(np.diff(rho(grid)) >= -1e-15)

    @pytest.mark.parametrize("bad", [
        dict(kind="nope"),
        dict(kind="power", alpha=1.5),
        dict(kind="power", alpha=None),
        dict(kind="log_power", alpha=0.0),
        dict(kind="zero", scale=-1.0),
    ])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValidationError):
            ModulusOfContinuity(**bad)


class TestDini:
    def test_classification(self):
        label, _ = classify_dini(ModulusOfContinuity("power", scale=1.0, alpha=0.5))
        assert label == "Dini"
        label, _ = classify_dini(ModulusOfContinuity("log_power", scale=1.0, alpha=2.0))
        assert label == "Dini"
        label, _ = classify_dini(ModulusOfContinuity("log_power", scale=1.0, alpha=0.5))
        assert label != "Dini"

    def test_require_dini_raises(self):
        with pytest.raises(DiniDivergenceError):
            require_dini(ModulusOfContinuity("log_power", scale=1.0, alpha=0.5))
        require_dini(ModulusOfContinuity("power", scale=1.0, alpha=0.25))


class TestSqrtSpd:
    def test_frozen_2x2(self):
        # eigenvalues 1 and 3: root is [[(sqrt3+1)/2, (sqrt3-1)/2], ...]
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        s3 = np.sqrt(3.0)
        expected = np.array([[(s3 + 1) / 2, (s3 - 1) / 2],
                             [(s3 - 1) / 2, (s3 + 1) / 2]])
        assert np.allclose(sqrt_spd(A), expected, atol=1e-14)

    def test_reconstruction_batched(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 4, 4))
        A = M @ np.swapaxes(M, -1, -2) + 0.5 * np.eye(4)
        S = sqrt_spd(A)
        assert np.allclose(S @ S, A, atol=1e-10 * np.abs(A).max())
        assert np.allclose(S, np.swapaxes(S, -1, -2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            sqrt_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(EllipticityError):
            sqrt_spd(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            sqrt_spd(np.ones((2, 3)))


class TestFieldValidation:
    def test_constant_field_passes(self):
        f = make_constant_field(dim=2, a0=[[2.0, 0.5], [0.5, 1.0]])
        report = validate_field(f, default_sample_points(2))
        assert report.passed
        assert "pass" in report.summary()

    def test_sin_field_passes(self):
        f = make_sin_field(dim=1, amp=0.5)
        report = validate_field(f, default_sample_points(1), times=(0.0, 0.5))
        assert report.passed
        assert report.eig_max <= (1.5) ** 2 + 1e-12

    def test_understated_ellipticity_fails(self):
        f = make_sin_field(dim=1, amp=0.5)
        lying = CoefficientField(dim=1, a=f.a, b=f.b, c=f.c, lam=1.5,
                                 b_sup=0.0, c_sup=0.0, modulus=f.modulus)
        report = validate_field(lying, default_sample_points(1))
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_understated_drift_bound_fails(self):
        f = make_constant_field(dim=1, b0=2.0)
        lying = CoefficientField(dim=1, a=f.a, b=f.b, c=f.c, lam=f.lam,
                                 b_sup=1.0, c_sup=0.0)
        assert not validate_field(lying, default_sample_points(1)).passed

    def test_empty_sampler_rejected(self):
        f = make_constant_field(dim=1)
        with pytest.raises(ValidationError):
            validate_field(f, np.empty((0, 1)))
        # no times is no sample either, not a pass over none
        with pytest.raises(ValidationError):
            validate_field(f, np.zeros((3, 1)), times=())

    def test_field_invariants(self):
        f = make_constant_field(dim=1)
        with pytest.raises(ValidationError):
            CoefficientField(dim=0, a=f.a, b=f.b, c=f.c, lam=1.0,
                             b_sup=0.0, c_sup=0.0)
        with pytest.raises(ValidationError):
            CoefficientField(dim=1, a=f.a, b=f.b, c=f.c, lam=-1.0,
                             b_sup=0.0, c_sup=0.0)

    @pytest.mark.parametrize("bounds", [
        dict(lam=np.nan), dict(lam=np.inf), dict(b_sup=np.nan), dict(c_sup=np.nan),
    ], ids=["nan-lam", "inf-lam", "nan-b", "nan-c"])
    def test_declared_bounds_must_not_be_nan(self, bounds):
        # nan compares false with every bound, so it would pass a plain
        # sign check: a nan b_sup skips the drift, a nan lam makes the
        # default meeting tolerance nan
        f = make_constant_field(dim=1)
        with pytest.raises(ValidationError):
            CoefficientField(dim=1, a=f.a, b=f.b, c=f.c,
                             **{"lam": 1.0, "b_sup": 0.0, "c_sup": 0.0, **bounds})

    @pytest.mark.parametrize("dim,b0,declared", [
        (1, 1e308, 1e308), (1, -1e308, 1e308), (2, [3e200, 4e200], 5e200),
    ])
    def test_constant_drift_bound_does_not_overflow(self, dim, b0, declared):
        # |b0| is declared without squaring the entries, so a finite drift
        # never declares b_sup = inf
        assert make_constant_field(dim=dim, b0=b0).b_sup == pytest.approx(
            declared, rel=1e-15)

    @pytest.mark.parametrize("s", [0.0, -1.0, np.inf, np.nan])
    def test_sigma_scalar_must_be_finite_and_positive(self, s):
        f = make_constant_field(dim=1)
        with pytest.raises(ValidationError, match="sigma_scalar"):
            CoefficientField(dim=1, a=f.a, b=f.b, c=f.c, lam=1.0,
                             b_sup=0.0, c_sup=0.0, sigma_scalar=s)

    @pytest.mark.parametrize("dim,a0,declared", [
        (1, 1.0, 1.0), (1, 4.0, 2.0), (1, 0.3, float(np.sqrt(0.3))),
        (2, 1.0, 1.0), (3, 2.0, float(np.sqrt(2.0))), (2, [2.0, 2.0], float(np.sqrt(2.0))),
        (2, [1.0, 2.0], None), (2, [[1.5, 0.3], [0.3, 1.0]], None),
    ])
    def test_constant_field_declares_sigma_exactly(self, dim, a0, declared):
        # declared exactly when sigma(t, x) is s * I bit for bit
        f = make_constant_field(dim=dim, a0=a0)
        sig = f.sigma(0.0, np.zeros((3, dim)))
        if declared is None:
            assert f.sigma_scalar is None
            assert np.any(sig != sig[0, 0, 0] * np.eye(dim))
        else:
            assert f.sigma_scalar == declared
            assert sig.tobytes() == np.broadcast_to(
                declared * np.eye(dim), (3, dim, dim)).tobytes()

    @pytest.mark.parametrize("kw,key", [
        (dict(dim=2, a0=[1.0, 2.0, 3.0]), "a0"),
        (dict(dim=1, a0=[1.0, 2.0]), "a0"),
        (dict(dim=2, a0=np.eye(3)), "a0"),
        (dict(dim=2, a0=np.ones((2, 3))), "a0"),
        (dict(dim=2, b0=[0.1, 0.2, 0.3]), "b0"),
        (dict(dim=2, b0=[[0.1, 0.2]]), "b0"),
        (dict(dim=0), "dim"),
    ], ids=["a0-3-entries-2d", "a0-2-entries-1d", "a0-3x3-2d", "a0-2x3-2d",
            "b0-3-entries-2d", "b0-matrix-2d", "dim-0"])
    def test_constant_field_shapes_must_fit_dim(self, kw, key):
        # a0 is a scalar, dim entries or dim x dim; b0 a scalar or dim
        # entries; anything else is rejected, not broadcast or cropped
        with pytest.raises(ValidationError, match=key):
            make_constant_field(**kw)

    @pytest.mark.parametrize("build", [make_constant_field, make_sin_field,
                                       make_power_modulus_field, make_log_modulus_field])
    @pytest.mark.parametrize("dim", [1.5, True, 0], ids=["fractional", "bool", "zero"])
    def test_dim_must_be_a_positive_integer(self, build, dim):
        # 1.5 is not read as 1, nor True as 1; an integral float still is
        with pytest.raises(ValidationError, match="dim"):
            build(dim=dim)
        field = build(dim=2.0)
        assert field.dim == 2 and type(field.dim) is int

    @pytest.mark.parametrize("terminal,key", [
        (make_gaussian_bump(center=[0.5, 0.5, 0.5]), "center"),
        (make_gaussian_bump(center=[0.5]), "center"),
        (make_linear(coeffs=[1.0, 2.0, 3.0]), "coeffs"),
        (make_linear(coeffs=[1.0]), "coeffs"),
    ], ids=["center-3-entries", "center-1-entry", "coeffs-3-entries",
            "coeffs-1-entry"])
    def test_terminal_vectors_must_fit_the_points(self, terminal, key):
        # a center or coeffs of another length than the points is
        # rejected, not broadcast or left to fail inside numpy
        with pytest.raises(ValidationError, match=key):
            terminal(np.zeros((4, 2)))
        # a scalar still stands for the same value in every coordinate
        assert make_linear(2.0)(np.ones((4, 2))).tolist() == [4.0] * 4

    def test_sgn_drift_field_declares_unit_sigma(self):
        f = make_sgn_drift_field(theta=0.5)
        assert f.sigma_scalar == 1.0
        assert np.all(f.sigma(0.0, np.zeros((4, 1))) == 1.0)

    def test_sample_points_shapes(self):
        pts1 = default_sample_points(1)
        assert pts1.shape[1] == 1
        pts3 = default_sample_points(3)
        assert pts3.shape[1] == 3
        assert np.abs(pts3).max() <= 2.0 + 1e-12
