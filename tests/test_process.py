"""Kernel, moment maps, recovery solvers, and process diagnostics."""

import re

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from zonofit import (
    C0FaceMoments,
    CentralFaceMoments,
    Disk,
    Ellipse,
    FeretProcessMoments,
    Fixed,
    IsotropicEllipse,
    IsotropicRectangle,
    ParameterError,
    Segment,
    SolverError,
    UnderdeterminedError,
    c0_random_moments,
    central_from_feret,
    central_nnls,
    confidence_bound,
    deterministic_process_moments,
    empirical_moments,
    estimate_process_moments,
    existence_check,
    expected_area,
    expected_perimeter,
    feret_matrix,
    feret_second_lags,
    forward_zonotope_moments,
    isotropize_moments,
    k_matrix,
    k_s,
    kkt_residual,
    moments_from_dict,
    pipeline_estimate,
    regular_subdivision,
    sample_shape,
    stationarity_diagnostic,
)
from zonofit import process
from zonofit.process import _lag_sums, _nnls_central, _symmetric
from zonofit.simulate import IsotropicZonotope, LogNormal, feret_sample_block

MEAN_H_SQUARE = 4.0 / np.pi
SECOND_H_SQUARE = (np.pi + 2.0) / np.pi


def quad_kernel(t):
    """(1/pi) integral_0^pi |sin(t+z) sin z| dz with the kink located exactly."""
    kink = np.pi - (t % np.pi)
    val, _ = scipy.integrate.quad(
        lambda z: abs(np.sin(t + z) * np.sin(z)), 0.0, np.pi,
        points=[kink] if 0.0 < kink < np.pi else None, limit=200,
    )
    return val / np.pi


class TestKernel:
    def test_special_values(self):
        assert k_s(0.0) == pytest.approx(0.5, abs=1e-15)
        assert k_s(np.pi / 2.0) == pytest.approx(1.0 / np.pi, abs=1e-15)
        assert k_s(np.pi) == pytest.approx(0.5, abs=1e-12)

    def test_matches_quadrature(self):
        for t in np.linspace(0.0, np.pi, 32):
            assert k_s(t) == pytest.approx(quad_kernel(t), abs=1e-9)

    def test_even_and_pi_periodic(self):
        t = np.linspace(-2.0, 5.0, 40)
        np.testing.assert_allclose(k_s(-t), k_s(t), atol=1e-12)
        np.testing.assert_allclose(k_s(t + np.pi), k_s(t), atol=1e-12)

    def test_vectorized(self):
        t = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(k_s(t), [k_s(v) for v in t], atol=1e-15)


class TestKernelMatrix:
    def test_n2_dense(self):
        K = k_matrix(2).dense()
        np.testing.assert_allclose(
            K, [[0.5, 1.0 / np.pi], [1.0 / np.pi, 0.5]], atol=1e-14
        )
        eigs = np.linalg.eigvalsh(K)
        np.testing.assert_allclose(
            np.sort(eigs), [0.5 - 1.0 / np.pi, 0.5 + 1.0 / np.pi], atol=1e-14
        )

    def test_n1(self):
        np.testing.assert_allclose(k_matrix(1).dense(), [[0.5]], atol=1e-15)

    def test_positive_definite_up_to_32(self):
        for n in range(2, 33):
            assert np.linalg.eigvalsh(k_matrix(n).dense()).min() > 0.0

    def test_condition_grows(self):
        assert k_matrix(32).condition_number() > k_matrix(8).condition_number()

    def test_validation(self):
        with pytest.raises(ParameterError):
            k_matrix(0)


#: (record class, fields of a valid record) by the JSON "type" of each moment record
_MOMENT_RECORDS = {
    "feret_moments": (FeretProcessMoments, {"mean": [1.0, 1.0],
                                            "second": [[2.0, 1.0], [1.0, 2.0]]}),
    "central_face_moments": (CentralFaceMoments, {"n": 4, "mean_alpha": 1.0,
                                                  "v_alpha": [1.0, 0.5, 0.2, 0.5]}),
    "interpolant_face_moments": (C0FaceMoments, {"n": 2, "mean": [1.0, 1.0],
                                                 "second": [[2.0, 1.0], [1.0, 2.0]],
                                                 "cov": [[1.0, 0.0], [0.0, 1.0]]}),
}


class TestMomentClasses:
    @pytest.mark.parametrize("route", ["constructor", "moments_from_dict"])
    @pytest.mark.parametrize("kind, field, value, message", [
        ("feret_moments", "stderr_mean", [0.1], "stderr_mean has wrong shape (1,)"),
        ("feret_moments", "stderr_second", [[0.0, -0.1], [-0.1, 0.0]],
         "stderr_second must be nonnegative"),
        ("central_face_moments", "stderr_mean_alpha", -0.1,
         "stderr_mean_alpha must be nonnegative"),
        ("central_face_moments", "stderr_mean_alpha", [0.1, 0.1],
         "stderr_mean_alpha has wrong shape (2,)"),
        ("central_face_moments", "stderr_v_alpha", [1.0, 2.0],
         "stderr_v_alpha has wrong shape (2,)"),
        ("central_face_moments", "stderr_v_alpha", [0.1, -0.1, 0.1, 0.1],
         "stderr_v_alpha must be nonnegative"),
        ("interpolant_face_moments", "stderr_mean", [1.0, 2.0, 3.0],
         "stderr_mean has wrong shape (3,)"),
        ("interpolant_face_moments", "stderr_second", [-1.0] * 5,
         "stderr_second has wrong shape (5,)"),
        ("interpolant_face_moments", "stderr_second", [[0.1, -0.1], [-0.1, 0.1]],
         "stderr_second must be nonnegative"),
    ])
    def test_stderr_shape_and_sign_checked(self, route, kind, field, value, message):
        # every moment record takes the same rule for its standard errors,
        # built directly or read from JSON
        cls, fields = _MOMENT_RECORDS[kind]
        fields = dict(fields, **{field: value})
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            if route == "constructor":
                cls(**fields)
            else:
                moments_from_dict(dict(fields, type=kind))

    @pytest.mark.parametrize("kind", sorted(_MOMENT_RECORDS))
    def test_stderrs_kept_as_float_arrays(self, kind):
        cls, fields = _MOMENT_RECORDS[kind]
        n = len(fields.get("mean", fields.get("v_alpha")))
        stderrs = {"stderr_mean": [1] * n, "stderr_second": [[2] * n] * n}
        if cls is CentralFaceMoments:
            stderrs = {"stderr_mean_alpha": 1, "stderr_v_alpha": [2] * n}
        m = cls(**fields, **stderrs)
        for name, value in stderrs.items():
            got = getattr(m, name)
            if np.ndim(value):
                assert isinstance(got, np.ndarray) and got.dtype == float
                np.testing.assert_array_equal(got, value)
            else:
                assert type(got) is float and got == value

    def test_feret_moments_validation(self):
        with pytest.raises(ParameterError, match="symmetric"):
            FeretProcessMoments([1.0, 1.0], [[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ParameterError, match="Cauchy-Schwarz"):
            FeretProcessMoments([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ParameterError, match="nonempty"):
            FeretProcessMoments([], np.zeros((0, 0)))
        with pytest.raises(ParameterError, match="wrong shape"):
            FeretProcessMoments([1.0, 1.0], np.eye(2) + 1.0, stderr_mean=[0.1])
        with pytest.raises(ParameterError, match="nonnegative"):
            FeretProcessMoments([1.0, 1.0], np.eye(2) + 1.0, stderr_mean=[-0.1, 0.1])

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 3.0, 1e200, 1e300, 1.5e308])
    def test_feret_moments_checks_decide_alike_at_every_scale(self, scale):
        # the checks square no entry, so large finite moments neither warn nor
        # overflow, and a violation is one at any scale
        ok = np.array([[1.0, 0.9], [0.9, 1.0]])
        m = FeretProcessMoments([1.0, 1.0], ok * scale)
        np.testing.assert_array_equal(m.second, ok * scale)
        for bad, message in [([[1.0, 1.1], [1.1, 1.0]], "Cauchy-Schwarz"),
                             ([[1.0, 0.5], [0.6, 1.0]], "symmetric"),
                             ([[-0.1, 0.0], [0.0, 1.0]], "diagonal")]:
            with pytest.raises(ParameterError, match=message):
                FeretProcessMoments([1.0, 1.0], np.array(bad) * scale)

    def test_central_moments_palindrome_required(self):
        with pytest.raises(ParameterError, match="palindrome"):
            CentralFaceMoments(4, 1.0, [4.0, 2.0, 1.0, 3.0])

    def test_central_moments_psd_repair_window(self):
        eps = 5e-9
        c = CentralFaceMoments(2, 1.0, [1.0, 1.0 + eps])
        assert c.psd_repaired
        assert np.fft.fft(c.v_alpha).real.min() >= -1e-15

    def test_central_moments_fft_roundoff_not_repaired(self):
        # a positive palindrome from a nonnegative spectrum with zeros: the FFT
        # gives those zeros back as roundoff of either sign, which is no violation
        lam = np.array([3.0, 1.5, 0.0, 0.0, 0.5, 0.0, 0.0, 1.5])
        v = np.fft.ifft(lam).real
        assert v.min() > 0.0 and np.fft.fft(v).real.min() < 0.0
        c = CentralFaceMoments(8, 1.0, v)
        assert not c.psd_repaired
        np.testing.assert_array_equal(c.v_alpha, v)

    def test_central_moments_psd_violation_projected(self):
        # an eigenvalue of -1e-6 of the radius: every negative one is clipped
        c = CentralFaceMoments(2, 1.0, [1.0, 1.0 + 1e-6])
        assert c.psd_repaired
        np.testing.assert_allclose(c.v_alpha, [1.0 + 5e-7, 1.0 + 5e-7], rtol=1e-15, atol=0.0)

    def test_central_moments_psd_violation_rejected(self):
        # spectrum [-0.5, 2.5, -0.5, 2.5]: the clip leaves v a negative lag
        with pytest.raises(ParameterError, match="negative lag"):
            CentralFaceMoments(4, 1.0, [1.0, 0.0, -1.5, 0.0])

    def test_central_moments_negative_lag_rejected(self):
        # spectrum [0.5, 1.5, 0.5, 1.5]: PSD, but no nonnegative face vector
        # has this second moment
        assert np.fft.fft([1.0, 0.0, -0.5, 0.0]).real.min() > 0.0
        with pytest.raises(ParameterError, match="negative lag"):
            CentralFaceMoments(4, 1.0, [1.0, 0.0, -0.5, 0.0])

    def test_central_moments_clean_input_untouched(self):
        c = CentralFaceMoments(4, 2.0, [4.0, 2.0, 1.0, 2.0])
        assert not c.psd_repaired
        np.testing.assert_array_equal(c.v_alpha, [4.0, 2.0, 1.0, 2.0])

    def test_central_moments_validation(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            CentralFaceMoments(2, -1.0, [1.0, 0.5])
        with pytest.raises(ParameterError, match="length"):
            CentralFaceMoments(3, 1.0, [1.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_central_moments_reject_non_finite(self, bad):
        with pytest.raises(ParameterError, match="v_alpha must be finite"):
            CentralFaceMoments(2, 1.0, [1.0, bad])
        with pytest.raises(ParameterError, match="mean_alpha must be finite"):
            CentralFaceMoments(2, bad, [1.0, 0.5])
        with pytest.raises(ParameterError, match="stderr_v_alpha must be finite"):
            CentralFaceMoments(2, 1.0, [1.0, 0.5], 0.1, [0.1, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_c0_moments_reject_non_finite(self, bad):
        # checked before the eigenvalue test, which would raise LinAlgError
        second = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ParameterError, match="second must be finite"):
            C0FaceMoments(2, [1.0, 1.0], second, np.zeros((2, 2)))
        with pytest.raises(ParameterError, match="mean must be finite"):
            C0FaceMoments(2, [1.0, bad], np.eye(2), np.zeros((2, 2)))

    def test_feret_moments_reject_non_finite(self):
        # checked where the record is built, so no map or diagnostic checks again
        for bad in (np.nan, np.inf, -np.inf):
            second = [[1.0, bad], [bad, 1.0]]
            with pytest.raises(ParameterError, match="^second must be finite"):
                FeretProcessMoments([1.0, 1.0], second)
            with pytest.raises(ParameterError, match="^mean must be finite"):
                FeretProcessMoments([1.0, bad], np.ones((2, 2)))
            with pytest.raises(ParameterError, match="^stderr_mean must be finite"):
                FeretProcessMoments([1.0, 1.0], np.ones((2, 2)), stderr_mean=[0.0, bad])
            with pytest.raises(ParameterError, match="^stderr_second must be finite"):
                FeretProcessMoments([1.0, 1.0], np.ones((2, 2)), stderr_second=second)


class TestForwardMap:
    def test_random_square_process(self):
        # Isotropic unit square: two perpendicular unit faces, so
        # E[alpha] = 1 and E[alpha_i alpha_j] = 1.
        c = CentralFaceMoments(2, 1.0, [1.0, 1.0])
        m = forward_zonotope_moments(c)
        assert stationarity_diagnostic(m).passed
        np.testing.assert_allclose(m.mean, MEAN_H_SQUARE, atol=1e-12)
        np.testing.assert_allclose(
            m.second, SECOND_H_SQUARE * np.ones((2, 2)), atol=1e-12
        )

    def test_zero_process(self):
        c = CentralFaceMoments(3, 0.0, np.zeros(3))
        m = forward_zonotope_moments(c)
        np.testing.assert_array_equal(m.mean, np.zeros(3))
        np.testing.assert_array_equal(m.second, np.zeros((3, 3)))

    def test_perimeter_and_area_functionals(self):
        c = CentralFaceMoments(2, 1.0, [1.0, 1.0])
        assert expected_perimeter(c) == pytest.approx(4.0, abs=1e-14)
        assert expected_area(c) == pytest.approx(1.0, abs=1e-14)

    def test_lags_from_general_face_matrix(self):
        # For a circulant face matrix the general lag formula must agree with
        # the stationary forward map.
        rng = np.random.default_rng(5)
        for n in (3, 4, 6):
            base = np.abs(rng.standard_normal(n))
            v = np.array([np.dot(base, np.roll(base, d)) for d in range(n)]) / n
            c = CentralFaceMoments(n, 1.0, v)
            C = np.array([[v[(j - i) % n] for j in range(n)] for i in range(n)])
            np.testing.assert_allclose(
                feret_second_lags(C, n),
                forward_zonotope_moments(c).second[0],
                atol=1e-10,
            )

    def test_lags_shift_invariant(self):
        rng = np.random.default_rng(8)
        n = 5
        B = rng.standard_normal((n, n))
        C = B @ B.T
        shifted = np.roll(np.roll(C, 1, axis=0), 1, axis=1)
        np.testing.assert_allclose(
            feret_second_lags(C, n), feret_second_lags(shifted, n), atol=1e-10
        )

    def test_lags_shape_validation(self):
        with pytest.raises(ParameterError):
            feret_second_lags(np.eye(3), 4)


class TestCentralRecovery:
    def test_random_square_recovered(self):
        m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
        c = central_from_feret(m)
        assert c.mean_alpha == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(c.v_alpha, [1.0, 1.0], atol=1e-12)
        assert not c.psd_repaired

    def test_round_trip_random_vectors(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4, 6, 8):
            for _ in range(5):
                base = np.abs(rng.standard_normal(n)) + 0.1
                v = np.array([np.dot(base, np.roll(base, d)) for d in range(n)]) / n
                mean_alpha = float(np.abs(rng.standard_normal())) + 0.1
                c0 = CentralFaceMoments(n, mean_alpha, v)
                c1 = central_from_feret(forward_zonotope_moments(c0))
                assert c1.mean_alpha == pytest.approx(mean_alpha, abs=1e-10)
                np.testing.assert_allclose(c1.v_alpha, v, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 17, 64])
    def test_lag_average_is_the_isotropization(self, n, unit_square):
        # moments as measured: the solve's own lag average stands in for
        # isotropize_moments, up to roundoff amplified by cond(K(0))
        tables = [feret_sample_block(model, n, seed=n, start=0, count=300)
                  for model in (IsotropicRectangle(LogNormal(2, sigma=0.3)),
                                IsotropicEllipse(LogNormal(2, sigma=0.3)))]
        bodies = (unit_square, Ellipse(3.0, 1.0, 0.4), Segment(2.0, 0.3))
        cases = ([empirical_moments(h) for h in tables]
                 + [deterministic_process_moments(body, n) for body in bodies])
        tol = k_matrix(n).condition_number() * 1e-15
        for m in cases:
            got = central_from_feret(m)
            want = central_from_feret(isotropize_moments(m))
            scale = np.abs(want.v_alpha).max()
            assert np.abs(got.v_alpha - want.v_alpha).max() <= tol * scale
            assert got.mean_alpha == pytest.approx(want.mean_alpha, rel=1e-15, abs=0.0)
            se_scale = np.abs(want.stderr_v_alpha).max()
            assert (np.abs(got.stderr_v_alpha - want.stderr_v_alpha).max()
                    <= 1e-15 * se_scale)
            if n == 16:
                assert np.array_equal(got.v_alpha, want.v_alpha)
                assert got.mean_alpha == want.mean_alpha
            if n != 64:
                # at n = 64 the square's smallest eigenvalue sits at the
                # -n eps roundoff floor, so either side may repair it
                assert got.psd_repaired == want.psd_repaired

    def test_condition_limit(self):
        # K(0)'s spectral guard decides on n alone: cond(K(0)) passes 1e12
        # between n = 1193, which solves, and n = 1194, which does not
        for n, solves in ((1193, True), (1194, False)):
            e0 = np.eye(n)[0]
            m = forward_zonotope_moments(CentralFaceMoments(n, 1.0, e0))
            if solves:
                c = central_from_feret(m)
                tol = k_matrix(n).condition_number() * 1e-15
                assert np.abs(c.v_alpha - e0).max() <= tol
                assert not c.psd_repaired
            else:
                with pytest.raises(SolverError, match="singular at spectral index 590"):
                    central_from_feret(m)

    def test_stderr_propagation(self):
        n = 2
        m = FeretProcessMoments(
            mean=[MEAN_H_SQUARE, MEAN_H_SQUARE],
            second=SECOND_H_SQUARE * np.ones((2, 2)),
            stderr_mean=np.full(2, 0.01),
            stderr_second=np.full((2, 2), 0.02),
        )
        c = central_from_feret(m)
        assert c.stderr_mean_alpha == pytest.approx(np.pi / (2 * n) * 0.01, abs=1e-15)
        assert c.stderr_v_alpha is not None
        assert np.all(c.stderr_v_alpha > 0.0)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 32, 64])
    def test_matches_dense_route(self, n):
        # oracle: a dense solve and a dense-inverse stderr map, which agree
        # with the spectral route up to roundoff amplified by cond(K(0))
        c0 = CentralFaceMoments(n, 1.3, _positive_definite_lags(n))
        fwd = forward_zonotope_moments(c0)
        lag_se = 0.01 * (1.0 + np.cos(2.0 * regular_subdivision(n)))
        se_second = lag_se[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
        m = FeretProcessMoments(fwd.mean, fwd.second, np.full(n, 0.01), se_second)
        c = central_from_feret(m)
        K0 = k_matrix(n).dense()
        sym_map = 0.5 * (np.eye(n) + np.eye(n)[(-np.arange(n)) % n])
        v = np.linalg.solve(n * K0, sym_map @ m.second[0])
        se = np.abs(np.linalg.inv(K0) @ sym_map / n) @ m.stderr_second[0]
        tol = 1e-14 * np.linalg.cond(K0)
        assert not c.psd_repaired
        assert np.abs(c.v_alpha - v).max() <= tol * np.abs(v).max()
        assert np.abs(c.stderr_v_alpha - se).max() <= tol * np.abs(se).max()
        assert se.min() > 0.0

    @pytest.mark.parametrize("n", [3, 8, 17, 64])
    def test_result_exactly_palindromic(self, n):
        m = forward_zonotope_moments(CentralFaceMoments(n, 1.0, _positive_definite_lags(n)))
        c = central_from_feret(m)
        assert not c.psd_repaired
        assert np.array_equal(c.v_alpha, c.v_alpha[(-np.arange(n)) % n])

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_monte_carlo_lognormal_recovered(self, n):
        # lognormal faces exp(sigma Z): E[alpha^2] = e^(2 sigma^2) and
        # E[alpha_i alpha_j] = e^(sigma^2); row 0 alone gave a non-PSD Circ(v)
        sigma = 0.3
        c = pipeline_estimate(IsotropicZonotope(n, LogNormal(n, sigma=sigma)), n,
                              20000, seed=7)
        truth = np.full(n, np.exp(sigma**2))
        truth[0] = np.exp(2.0 * sigma**2)
        assert np.fft.fft(c.v_alpha).real.min() > 0.0 and not c.psd_repaired
        assert np.abs(c.v_alpha - truth).max() <= 5e-3 * truth.max()

    def test_noise_free_ellipse_moments_are_admissible(self, monkeypatch):
        # the spectral solve's roundoff leaves Circ(v) eigenvalues down to
        # -5.8e-9 of the radius; clipping them keeps v >= 0, so the answer is
        # the clipped solve itself, with no NNLS fit
        def no_fit(*args):
            raise AssertionError("central_nnls called")

        monkeypatch.setattr(process, "central_nnls", no_fit)
        body = Ellipse(2.0, 1.0, 0.3)
        for n in (256, 512):
            m = isotropize_moments(deterministic_process_moments(body, n), body=body)
            c = central_from_feret(m)
            v = _symmetric(k_matrix(n).solve(_symmetric(_lag_sums(m.second) / n)) / n)
            lam = np.fft.fft(v).real
            assert c.psd_repaired
            np.testing.assert_array_equal(c.v_alpha, np.fft.ifft(np.maximum(lam, 0.0)).real)
            lam = np.fft.fft(c.v_alpha).real
            assert c.v_alpha.min() >= 0.0
            assert lam.min() >= -n * np.finfo(float).eps * np.abs(lam).max()
            assert c.stderr_mean_alpha == 0.0
            assert np.array_equal(c.stderr_v_alpha, np.zeros(n))

    @pytest.mark.parametrize("model", [IsotropicRectangle(Fixed([1.3, 0.7])),
                                       IsotropicEllipse(Fixed([2.0, 1.0]))],
                             ids=["rectangle", "ellipse"])
    def test_agrees_with_the_pooled_nnls_fit(self, model):
        # on the regular grid the NNLS objective is diagonal in the
        # eigenvalues, so the constrained fit is the projection of the
        # spectral answer: where that answer has v < 0 (the rectangle) the
        # fit is returned, and where it is admissible (the ellipse) the two agree
        n = 16
        m = empirical_moments(feret_sample_block(model, n, seed=2, start=0, count=2048))
        c = central_from_feret(m)
        fit = _nnls_central(regular_subdivision(n), m.second, float(m.mean.mean()), n)
        assert c.v_alpha.min() >= 0.0
        assert np.abs(c.v_alpha - fit.v_alpha).max() <= 1e-11 * np.abs(fit.v_alpha).max()
        assert c.mean_alpha == fit.mean_alpha

    def test_lag_average_of_non_circulant_input(self):
        # a non-circulant matrix: the solve reads the average over the cyclic
        # diagonals, not row 0
        n = 4
        fwd = forward_zonotope_moments(CentralFaceMoments(n, 1.0, [4.0, 2.0, 1.0, 2.0]))
        tilt = np.diag([0.2, -0.2, 0.2, -0.2])
        se = np.diag([0.4, 0.0, 0.0, 0.0])
        m = FeretProcessMoments(fwd.mean, fwd.second + tilt, np.zeros(n), se)
        c = central_from_feret(m)
        np.testing.assert_allclose(c.v_alpha, [4.0, 2.0, 1.0, 2.0], atol=1e-12)
        K0 = k_matrix(n).dense()
        full_map = np.linalg.inv(n * K0) @ (0.5 * (np.eye(n) + np.eye(n)[(-np.arange(n)) % n]))
        np.testing.assert_allclose(c.stderr_v_alpha,
                                   np.abs(full_map) @ [0.1, 0.0, 0.0, 0.0], rtol=1e-12)


def _positive_definite_lags(n):
    """Palindromic lag vector whose circulant has eigenvalues >= 1."""
    base = np.abs(np.random.default_rng(n).standard_normal(n)) + 0.1
    v = np.array([np.dot(base, np.roll(base, d)) for d in range(n)]) / n
    v[0] += 1.0
    return v


def _lognormal_lag_observations(n, seed, samples=4000):
    """Lag-averaged Monte-Carlo second moments of a lognormal isotropic zonotope."""
    est = estimate_process_moments(IsotropicZonotope(n, LogNormal(n, sigma=0.3)), n,
                                   samples, seed)
    lags = _lag_sums(est.second) / n
    th = regular_subdivision(n)
    return [(th[d], lags[d]) for d in range(n // 2 + 1)]


def _sparse_lag_observations(n, seed):
    """Forward lags of face moments with zero lags, plus 0.1% noise: active bounds."""
    rng = np.random.default_rng(seed)
    v = np.where(rng.uniform(size=n // 2 + 1) < 0.5, 0.0, rng.uniform(0.0, 0.3, n // 2 + 1))
    v[0] = 1.0 + v.sum()
    v = v[np.minimum(np.arange(n), n - np.arange(n))]
    lags = forward_zonotope_moments(CentralFaceMoments(n, 1.0, v)).second[0]
    th = regular_subdivision(n)
    return [(th[d], lags[d] * (1.0 + 1e-3 * rng.standard_normal()))
            for d in range(n // 2 + 1)]


def _noisy_observations(n):
    return [_lognormal_lag_observations(n, seed) for seed in (1, 2)] + [
        _sparse_lag_observations(n, seed) for seed in range(4)]


def _reduced_design(obs, n):
    """The weighted palindromic design and right-hand side central_nnls solves."""
    angles, ys = np.array(obs).T
    w = np.where((angles > 1e-12) & (angles < np.pi / 2 - 1e-12), np.sqrt(2.0), 1.0)
    Q = n * k_s(angles[:, None] - regular_subdivision(n))
    fold = np.minimum(np.arange(n), n - np.arange(n))
    return w[:, None] * (Q @ (fold[:, None] == np.arange(n // 2 + 1))), w * ys


def _mirrored_oracle(obs, n):
    """The former route: mirror interior angles, solve for all n lags, symmetrize."""
    zs, ys = (list(col) for col in zip(*obs))
    for a, y in obs:
        if 1e-12 < a < np.pi / 2 - 1e-12:
            zs.append(np.pi - a)
            ys.append(y)
    Q = n * k_s(np.array(zs)[:, None] - regular_subdivision(n))
    v, _ = scipy.optimize.nnls(Q, np.array(ys))
    return 0.5 * (v + v[(-np.arange(n)) % n])


class TestCentralNNLS:
    def test_noiseless_square(self):
        m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
        obs = [(0.0, m.second[0, 0]), (np.pi / 2.0, m.second[0, 1])]
        c = central_nnls(obs, 2, mean_alpha=1.0)
        np.testing.assert_allclose(c.v_alpha, [1.0, 1.0], atol=1e-9)
        assert c.mean_alpha == 1.0

    def test_noiseless_n4(self):
        v = np.array([4.0, 2.0, 1.0, 2.0])
        m = forward_zonotope_moments(CentralFaceMoments(4, 1.0, v))
        th = regular_subdivision(4)
        obs = [(th[d], m.second[0, d]) for d in range(3)]
        c = central_nnls(obs, 4, mean_alpha=1.0)
        np.testing.assert_allclose(c.v_alpha, v, atol=1e-8)

    def test_redundant_mirrored_angles_consistent(self):
        v = np.array([4.0, 2.0, 1.0, 2.0])
        m = forward_zonotope_moments(CentralFaceMoments(4, 1.0, v))
        th = regular_subdivision(4)
        obs = [(th[d], m.second[0, d]) for d in range(3)]
        dense = obs + [(0.3, float(4.0 * np.dot(k_s(0.3 - th), v)))]
        c = central_nnls(dense, 4)
        np.testing.assert_allclose(c.v_alpha, v, atol=1e-8)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError, match="distinct observation angles"):
            central_nnls([(0.0, 1.0), (0.5, 1.0)], 8)
        with pytest.raises(UnderdeterminedError, match="no observations"):
            central_nnls([], 2)

    def test_angle_range(self):
        with pytest.raises(ParameterError, match="angles"):
            central_nnls([(0.0, 1.0), (2.0, 1.0)], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations(self, bad):
        with pytest.raises(ParameterError, match="observations must be finite"):
            central_nnls([(0.0, 1.0), (np.pi / 2.0, bad)], 2)

    def test_result_is_palindrome(self):
        rng = np.random.default_rng(2)
        v = np.array([4.0, 2.0, 1.0, 2.0])
        m = forward_zonotope_moments(CentralFaceMoments(4, 1.0, v))
        th = regular_subdivision(4)
        obs = [(th[d], m.second[0, d] + 0.05 * rng.standard_normal()) for d in range(3)]
        c = central_nnls(obs, 4)
        np.testing.assert_allclose(c.v_alpha, c.v_alpha[(-np.arange(4)) % 4], atol=1e-12)
        assert c.v_alpha.min() >= 0.0

    @pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
    def test_noisy_minimal_grid_fits_are_psd(self, n):
        # n//2 + 1 regular lags with noise: the design is square, and a fit
        # constrained to v >= 0 alone leaves a negative eigenvalue on 6 of
        # these 30 tables
        z = np.arange(n // 2 + 1) * np.pi / n
        for seed in range(6):
            ys = 2.0 * k_s(z) + 0.05 * np.random.default_rng(seed).standard_normal(len(z))
            c = central_nnls(list(zip(z, ys)), n)
            lam = np.fft.fft(c.v_alpha).real
            assert c.v_alpha.min() >= 0.0 and not c.psd_repaired
            assert lam.min() >= -n * np.finfo(float).eps * np.abs(lam).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_irregular_ellipse_tables_are_not_clipped(self, seed):
        # 30 random angles of a 2:1 isotropic ellipse at n = 24: unconstrained
        # least squares breaks u >= 0 and lambda >= 0 in 5-7 places each, so
        # the fit ends with many lag and eigenvalue constraints active at once
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0.0, np.pi, 30))
        model = IsotropicEllipse(Fixed([2.0, 1.0]))
        h = np.array([sample_shape(model, k, seed=seed).feret(angles) for k in range(300)])
        m = empirical_moments(h)
        c = _nnls_central(angles, m.second, float(m.mean.mean()), 24)
        lam = np.fft.fft(c.v_alpha).real
        assert c.v_alpha.min() >= 0.0 and not c.psd_repaired
        assert lam.min() >= -24 * np.finfo(float).eps * np.abs(lam).max()

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_kkt_at_optimum_of_reduced_design(self, n):
        for obs in _noisy_observations(n):
            c = central_nnls(obs, n)
            assert not c.psd_repaired
            A, b = _reduced_design(obs, n)
            scale = np.abs(A).max() * np.abs(b).max() * len(b)
            assert kkt_residual(A, b, c.v_alpha[: n // 2 + 1]) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_stable_under_one_ulp_perturbation(self, n):
        rng = np.random.default_rng(n)
        for obs in _noisy_observations(n):
            angles, ys = np.array(obs).T
            nudged = np.nextafter(ys, np.where(rng.uniform(size=len(ys)) < 0.5, -1, 1) * np.inf)
            v = central_nnls(obs, n).v_alpha
            v_nudged = central_nnls(list(zip(angles, nudged)), n).v_alpha
            assert np.abs(v_nudged - v).max() <= 1e-10 * np.abs(v).max()

    @pytest.mark.parametrize("n", [8, 9, 16, 17])
    def test_matches_mirrored_full_design(self, n):
        for obs in _noisy_observations(n):
            v = central_nnls(obs, n).v_alpha
            assert np.abs(v - _mirrored_oracle(obs, n)).max() <= 1e-10 * np.abs(v).max()


class TestInterpolantMoments:
    def test_random_square_covariance(self):
        m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
        fm = c0_random_moments(m, 2)
        np.testing.assert_allclose(fm.mean, MEAN_H_SQUARE, atol=1e-12)
        np.testing.assert_allclose(
            fm.cov,
            (np.pi**2 + 2.0 * np.pi - 16.0) / np.pi**2 * np.ones((2, 2)),
            atol=1e-12,
        )
        assert fm.cov[0, 0] == pytest.approx(0.015480834090176913, abs=1e-15)

    def test_deterministic_body_zero_covariance(self):
        for n in (2, 3, 4, 8):
            m = deterministic_process_moments(Disk(1.5), n)
            fm = c0_random_moments(m, n)
            assert np.abs(fm.cov).max() <= 1e-12

    def test_grid_mismatch(self):
        m = deterministic_process_moments(Disk(1.0), 4)
        with pytest.raises(ParameterError, match="n="):
            c0_random_moments(m, 3)

    def test_stderr_propagation(self):
        m = FeretProcessMoments(
            mean=[1.0, 1.0],
            second=np.ones((2, 2)) + np.eye(2) * 0.5,
            stderr_mean=np.full(2, 0.01),
            stderr_second=np.full((2, 2), 0.02),
        )
        fm = c0_random_moments(m, 2)
        assert fm.stderr_mean is not None and np.all(fm.stderr_mean > 0.0)
        assert fm.stderr_second is not None and np.all(fm.stderr_second > 0.0)

    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    def test_matches_dense_inverse(self, n):
        model = IsotropicZonotope(n, LogNormal(n, sigma=0.3))
        m = estimate_process_moments(model, n, 512, seed=n)
        fm = c0_random_moments(m, n)
        # the moments through the dense inverse, whose own roundoff against
        # the exact stencil reaches 5e-13 of the largest input at n = 64
        Finv = np.linalg.inv(feret_matrix(n).dense())
        for got, want, data in ((fm.mean, Finv @ m.mean, m.mean),
                                (fm.second, Finv @ m.second @ Finv.T, m.second)):
            assert np.abs(got - want).max() <= 1e-11 * np.abs(data).max()
        # the stderr map |F^-1|
        Finv_abs = np.abs(Finv)
        for got, want in ((fm.stderr_mean, Finv_abs @ m.stderr_mean),
                          (fm.stderr_second, Finv_abs @ m.stderr_second @ Finv_abs.T)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_moments_typed_error(self, bad):
        # raised where the record is built, before any map's arithmetic,
        # which would warn on inf
        with pytest.raises(ParameterError, match="second must be finite"):
            FeretProcessMoments([1.0, 1.0], [[1.0, bad], [bad, 1.0]])


class TestIsotropize:
    def test_stationary_fixed_point(self):
        m = forward_zonotope_moments(CentralFaceMoments(4, 1.0, [4.0, 2.0, 1.0, 2.0]))
        iso = isotropize_moments(m)
        np.testing.assert_allclose(iso.mean, m.mean, atol=1e-12)
        np.testing.assert_allclose(iso.second, m.second, atol=1e-12)
        assert stationarity_diagnostic(iso).passed

    def test_body_route_square_mean(self, unit_square):
        # Rotation-averaged width of the unit square is 4/pi.
        m = deterministic_process_moments(unit_square, 2)
        iso = isotropize_moments(m, body=unit_square)
        np.testing.assert_allclose(iso.mean, MEAN_H_SQUARE, atol=1e-5)
        np.testing.assert_allclose(
            iso.second, SECOND_H_SQUARE * np.ones((2, 2)), atol=1e-5
        )

    def test_body_route_disk_exact(self):
        m = deterministic_process_moments(Disk(2.0), 3)
        iso = isotropize_moments(m, body=Disk(2.0))
        np.testing.assert_allclose(iso.mean, 4.0, atol=1e-12)
        np.testing.assert_allclose(iso.second, 16.0 * np.ones((3, 3)), atol=1e-12)

    def test_grid_route_square(self, unit_square):
        m = deterministic_process_moments(unit_square, 4)
        iso = isotropize_moments(m)
        np.testing.assert_allclose(iso.mean, (1.0 + np.sqrt(2.0)) / 2.0, atol=1e-12)
        assert stationarity_diagnostic(iso).passed
        # second moments depend only on the lag
        np.testing.assert_allclose(iso.second[0, 1], iso.second[1, 2], atol=1e-14)

    def test_stderr_carried_through(self):
        m = FeretProcessMoments(
            mean=[1.0, 1.1],
            second=np.array([[1.3, 1.0], [1.0, 1.5]]),
            stderr_mean=np.array([0.01, 0.03]),
            stderr_second=np.full((2, 2), 0.02),
        )
        iso = isotropize_moments(m)
        np.testing.assert_allclose(iso.stderr_mean, 0.02, atol=1e-15)
        assert iso.stderr_second.shape == (2, 2)

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    @pytest.mark.parametrize("shape", ["ellipse", "square"])
    def test_body_route_matches_per_lag_roll(self, n, shape, unit_square):
        body = Ellipse(3.0, 1.0, 0.4) if shape == "ellipse" else unit_square
        iso = isotropize_moments(deterministic_process_moments(body, n), body=body)
        # oracle: one np.roll per lag on the dense grid
        grid_n = -(-1024 // n) * n
        h = body.feret(regular_subdivision(grid_n))
        lags = np.array([np.mean(h * np.roll(h, -d * (grid_n // n))) for d in range(n)])
        lags = 0.5 * (lags + lags[(-np.arange(n)) % n])
        want = lags[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
        assert np.abs(iso.second - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_lag_sums_match_per_lag_loops(n):
    # the lag averages and diagonal sums the per-lag loops computed, bit for
    # bit; feret_second_lags, one K(0) product, matches its old loop to roundoff
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    i = np.arange(n)
    means = [np.mean(a[i, (i + d) % n]) for d in range(n)]
    assert np.array_equal(_lag_sums(a) / n, means)
    below = (i[:, None] - i[None, :]) % n
    sums = [a[below == d].sum() for d in range(n)]
    assert np.array_equal(_lag_sums(a)[(-i) % n], sums)
    th = regular_subdivision(n)
    lags = [float(np.dot(sums, k_s(th[d] + th))) for d in range(n)]
    np.testing.assert_allclose(feret_second_lags(a, n), lags, rtol=0.0,
                               atol=4e-15 * np.abs(lags).max())


class TestConfidenceBound:
    def test_values(self):
        assert confidence_bound(1.0, 2, 1.0) == pytest.approx(
            6.242640687119285, abs=1e-12
        )
        expected = (6.0 + 2.0 * np.sqrt(2.0)) / 0.1 * np.sin(np.pi / 32.0)
        assert confidence_bound(0.1, 16, 1.0) == pytest.approx(expected, abs=1e-12)
        assert confidence_bound(0.1, 16, 1.0) == pytest.approx(8.6534, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            confidence_bound(0.0, 4, 1.0)
        with pytest.raises(ParameterError):
            confidence_bound(0.1, 1, 1.0)
        with pytest.raises(ParameterError):
            confidence_bound(0.1, 4, -1.0)


class TestDiagnostics:
    def test_stationarity_pass(self):
        m = forward_zonotope_moments(CentralFaceMoments(3, 1.0, [2.0, 1.0, 1.0]))
        rep = stationarity_diagnostic(m)
        assert rep.passed
        assert rep.mean_deviation <= rep.mean_threshold

    def test_stationarity_fail_oriented_body(self, unit_square):
        m = deterministic_process_moments(unit_square, 4)
        rep = stationarity_diagnostic(m)
        assert not rep.passed
        assert rep.mean_deviation == pytest.approx(
            np.sqrt(2.0) - (1.0 + np.sqrt(2.0)) / 2.0, abs=1e-12
        )

    def test_stationarity_threshold_uses_stderr(self, unit_square):
        h = unit_square.feret(regular_subdivision(4))
        m = FeretProcessMoments(
            mean=h,
            second=np.outer(h, h),
            stderr_mean=np.full(4, 10.0),
            stderr_second=np.full((4, 4), 10.0),
        )
        assert stationarity_diagnostic(m).passed

    def test_existence_square(self):
        m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
        rep = existence_check(m)
        assert rep.passed
        assert rep.perimeter_mean == pytest.approx(4.0, abs=1e-12)
        assert rep.perimeter_second_moment_proxy == pytest.approx(16.0, abs=1e-10)

    def test_existence_second_moment_of_random_perimeter(self):
        # All faces equal within a sample, s in {0.5, 1.5} with weights
        # 0.4, 0.6: U = 2 n s, so E[U^2] = 4 n^2 E[s^2] > (E U)^2.
        n = 6
        es, es2 = 0.4 * 0.5 + 0.6 * 1.5, 0.4 * 0.25 + 0.6 * 2.25
        m = forward_zonotope_moments(CentralFaceMoments(n, es, np.full(n, es2)))
        rep = existence_check(m)
        assert rep.passed
        assert rep.perimeter_mean == pytest.approx(2 * n * es, rel=1e-12)
        assert rep.perimeter_second_moment_proxy == pytest.approx(
            4 * n * n * es2, rel=1e-12
        )
        assert rep.perimeter_second_moment_proxy > 1.1 * rep.perimeter_mean**2
        # rotation-averaging grid moments keeps both values
        iso = existence_check(isotropize_moments(m))
        assert iso.perimeter_second_moment_proxy == pytest.approx(
            rep.perimeter_second_moment_proxy, rel=1e-12
        )

    def test_existence_weight_tends_to_rectangle_rule(self):
        # Cauchy's double integral on the grid: the weight that is exact for
        # grid zonotopes approaches (pi/n)^2 as n grows.
        for n, tol in ((8, 1e-4), (64, 1e-7)):
            m = FeretProcessMoments(mean=np.ones(n), second=np.ones((n, n)))
            w = existence_check(m).perimeter_second_moment_proxy / n**2
            assert w == pytest.approx((np.pi / n) ** 2, rel=tol)

    def test_existence_infinite_second_fails(self):
        m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
        m.second = np.full((2, 2), np.inf)
        rep = existence_check(m)
        assert not rep.passed

    def test_existence_nan_fails(self):
        m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
        m.mean = np.array([np.nan, 4.0 / np.pi])
        rep = existence_check(m)
        assert not rep.passed
