"""Counter-based sampling, reproducibility, and the Monte-Carlo pipeline."""

import tracemalloc

import numpy as np
import pytest

from zonofit import (
    CHUNK,
    DeterministicBody,
    Disk,
    Ellipse,
    Fixed,
    IsotropicEllipse,
    IsotropicRectangle,
    IsotropicZonotope,
    LogNormal,
    Mixture,
    ParameterError,
    Scaled,
    Zonotope,
    empirical_moments,
    estimate_process_moments,
    expected_perimeter,
    feret_sample_block,
    forward_zonotope_moments,
    k_s,
    pipeline_estimate,
    regular_subdivision,
    sample_shape,
    worker_count,
)


class TestDistributions:
    def test_fixed(self):
        d = Fixed([1.0, 2.0])
        assert d.draw_count == 0 and d.dim == 2
        np.testing.assert_array_equal(
            d.transform(np.zeros((3, 0))), [[1.0, 2.0]] * 3
        )
        with pytest.raises(ParameterError):
            Fixed([-1.0])

    def test_mixture_selects_by_cdf(self):
        d = Mixture([[1.0], [2.0], [3.0]], [0.2, 0.3, 0.5])
        assert d.draw_count == 1 and d.dim == 1
        u = np.array([[0.1], [0.25], [0.6], [0.9999]])
        np.testing.assert_array_equal(d.transform(u), [[1.0], [2.0], [3.0], [3.0]])

    def test_mixture_boundary_draw_clipped(self):
        d = Mixture([[1.0], [2.0]], [0.5, 0.5])
        np.testing.assert_array_equal(d.transform(np.array([[1.0]])), [[2.0]])

    def test_mixture_validation(self):
        with pytest.raises(ParameterError, match="weight"):
            Mixture([[1.0]], [0.5, 0.5])
        with pytest.raises(ParameterError, match="sum to 1"):
            Mixture([[1.0], [2.0]], [0.5, 0.6])
        with pytest.raises(ParameterError, match="nonnegative"):
            Mixture([[-1.0], [2.0]], [0.5, 0.5])

    def test_lognormal_inverse_cdf(self):
        d = LogNormal(2, mu=0.1, sigma=0.3)
        assert d.draw_count == 2 and d.dim == 2
        u = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(d.transform(u), np.exp(0.1), atol=1e-12)
        big = d.transform(np.array([[0.99, 0.5]]))
        assert big[0, 0] > big[0, 1]

    def test_lognormal_validation(self):
        with pytest.raises(ParameterError):
            LogNormal(0)
        with pytest.raises(ParameterError):
            LogNormal(2, sigma=-0.1)

    @pytest.mark.parametrize("build", [lambda: Fixed([]), lambda: Mixture([[]], [1.0])],
                             ids=["fixed", "mixture"])
    def test_empty_size_vector_is_named(self, build):
        # the dimension of a size vector is a count >= 1
        with pytest.raises(ParameterError, match="^dimension must be an integer >= 1"):
            build()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name, build", [
        ("value", lambda x: Fixed([1.0, x])),
        ("atoms", lambda x: Mixture([[1.0, x], [2.0, 2.0]], [0.5, 0.5])),
        # a NaN weight would pass the sum-to-1 test: |nan - 1| > tol is false
        ("weights", lambda x: Mixture([[1.0, 1.0], [2.0, 2.0]], [x, 1.0])),
        ("mu", lambda x: LogNormal(2, mu=x)),
        ("sigma", lambda x: LogNormal(2, sigma=x)),
    ], ids=["fixed_value", "mixture_atoms", "mixture_weights", "lognormal_mu",
            "lognormal_sigma"])
    def test_non_finite_parameters_are_named(self, name, build, bad):
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            build(bad)


class TestModels:
    def test_word_budgets(self):
        assert DeterministicBody(Disk(1.0)).words_per_sample == 0
        assert IsotropicZonotope(4, Fixed([1.0] * 4)).words_per_sample == 1
        assert IsotropicZonotope(4, LogNormal(4)).words_per_sample == 5
        assert IsotropicRectangle(Mixture([[1.0, 2.0]], [1.0])).words_per_sample == 2
        assert IsotropicEllipse(LogNormal(2)).words_per_sample == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError, match="components"):
            IsotropicZonotope(4, LogNormal(3))
        with pytest.raises(ParameterError, match="2-component"):
            IsotropicEllipse(LogNormal(3))

    def test_deterministic_rows_identical(self):
        h = feret_sample_block(DeterministicBody(Disk(2.0)), 3, seed=0, start=0, count=5)
        np.testing.assert_array_equal(h, np.full((5, 3), 4.0))

    def test_sample_one_matches_block(self):
        # The shape drawn for stream index k must reproduce the k-th row of
        # the Feret table (same uniforms, different evaluation path).  For
        # zonotopes the face count m and grid size n are equal, then unequal
        # so that the lag lattice pi/lcm(n, m) is finer than both.
        cases = [
            (IsotropicZonotope(3, LogNormal(3, sigma=0.5)), 3),
            (IsotropicZonotope(8, LogNormal(8, sigma=0.5)), 8),
            (IsotropicZonotope(64, LogNormal(64, sigma=0.5)), 64),
            (IsotropicZonotope(6, LogNormal(6, sigma=0.4)), 6),
            (IsotropicZonotope(4, LogNormal(4, sigma=0.5)), 6),
            (IsotropicRectangle(LogNormal(2, sigma=0.5)), 5),
            (IsotropicRectangle(Mixture([[1.0, 2.0], [2.0, 1.0]], [0.3, 0.7])), 6),
            (IsotropicEllipse(LogNormal(2)), 6),
        ]
        for model, n in cases:
            grid = regular_subdivision(n)
            h = feret_sample_block(model, n, seed=11, start=0, count=20)
            assert h.shape == (20, n) and h.flags.c_contiguous
            for k in range(20):
                shape = sample_shape(model, k, seed=11)
                np.testing.assert_allclose(h[k], shape.feret(grid), rtol=1e-13, atol=0.0)

    def test_isotropic_rectangle_is_zonotope(self):
        shape = sample_shape(IsotropicRectangle(Fixed([1.0, 2.0])), 0, seed=3)
        assert isinstance(shape, Zonotope)
        np.testing.assert_array_equal(shape.alpha, [1.0, 2.0])

    def test_isotropic_ellipse_sample(self):
        shape = sample_shape(IsotropicEllipse(Fixed([3.0, 1.0])), 5, seed=9)
        assert isinstance(shape, Ellipse)
        assert shape.a == 3.0 and shape.b == 1.0
        assert 0.0 <= shape.phi < np.pi


class TestReproducibility:
    def test_same_seed_same_stream(self):
        model = IsotropicZonotope(4, LogNormal(4))
        a = feret_sample_block(model, 4, seed=42, start=0, count=100)
        b = feret_sample_block(model, 4, seed=42, start=0, count=100)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_stream(self):
        model = IsotropicZonotope(4, LogNormal(4))
        a = feret_sample_block(model, 4, seed=1, start=0, count=10)
        b = feret_sample_block(model, 4, seed=2, start=0, count=10)
        assert np.abs(a - b).max() > 0.0

    def test_block_addressing_is_contiguous(self):
        # Reading [0, 50) in one call equals reading [0, 20) and [20, 50), and
        # equals 50 one-row reads: rows do not depend on the block they are in.
        for model, n in (
            (IsotropicEllipse(LogNormal(2)), 3),
            (IsotropicZonotope(8, LogNormal(8)), 8),
            (IsotropicZonotope(4, LogNormal(4)), 6),
            (IsotropicRectangle(LogNormal(2)), 5),
        ):
            whole = feret_sample_block(model, n, seed=7, start=0, count=50)
            head = feret_sample_block(model, n, seed=7, start=0, count=20)
            tail = feret_sample_block(model, n, seed=7, start=20, count=30)
            np.testing.assert_array_equal(whole, np.vstack([head, tail]))
            rows = [feret_sample_block(model, n, seed=7, start=k, count=1) for k in range(50)]
            np.testing.assert_array_equal(whole, np.vstack(rows))

    def test_estimate_bitwise_across_thread_counts(self, monkeypatch):
        samples = CHUNK + 7  # force an uneven chunk boundary
        for n in (3, 32):
            model = IsotropicZonotope(n, LogNormal(n))
            monkeypatch.setenv("ZONOFIT_THREADS", "1")
            r1 = estimate_process_moments(model, n, samples, seed=5)
            monkeypatch.setenv("ZONOFIT_THREADS", "4")
            r4 = estimate_process_moments(model, n, samples, seed=5)
            np.testing.assert_array_equal(r1.mean, r4.mean)
            np.testing.assert_array_equal(r1.second, r4.second)
            np.testing.assert_array_equal(r1.stderr_mean, r4.stderr_mean)
            np.testing.assert_array_equal(r1.stderr_second, r4.stderr_second)

    def test_estimate_bitwise_across_runs(self):
        model = IsotropicRectangle(LogNormal(2))
        a = estimate_process_moments(model, 2, 500, seed=123)
        b = estimate_process_moments(model, 2, 500, seed=123)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.second, b.second)

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.delenv("ZONOFIT_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("ZONOFIT_THREADS", "6")
        assert worker_count() == 6
        monkeypatch.setenv("ZONOFIT_THREADS", "2")
        assert worker_count() == 2
        monkeypatch.setenv("ZONOFIT_THREADS", "0")
        with pytest.raises(ParameterError):
            worker_count()

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2", ""])
    def test_invalid_thread_setting_is_named(self, monkeypatch, value):
        # ZONOFIT_THREADS is the one worker-count setting and goes through the
        # count rule: no int() ValueError, no fractional or zero worker count
        monkeypatch.setenv("ZONOFIT_THREADS", value)
        for call in (worker_count,
                     lambda: estimate_process_moments(IsotropicRectangle(LogNormal(2)),
                                                      4, 10, seed=0)):
            with pytest.raises(ParameterError, match="^ZONOFIT_THREADS must be an integer"):
                call()

    def test_seed_validation(self):
        model = IsotropicZonotope(2, LogNormal(2))
        with pytest.raises(ParameterError, match="seed"):
            feret_sample_block(model, 2, seed=-1, start=0, count=4)
        with pytest.raises(ParameterError, match="grid size"):
            feret_sample_block(model, -3, seed=0, start=0, count=4)
        with pytest.raises(ParameterError, match="grid size"):
            feret_sample_block(model, 2.5, seed=0, start=0, count=4)
        with pytest.raises(ParameterError, match="stream index"):
            sample_shape(model, -1, seed=0)


class TestMomentEstimates:
    def test_empirical_matches_streaming_estimator(self):
        # One reducer: the table route splits into the same CHUNK-row pieces
        # as the streamed route, so the two agree bit for bit.
        for model, n in (
            (IsotropicZonotope(3, LogNormal(3)), 3),
            (IsotropicRectangle(LogNormal(2)), 8),
        ):
            samples = CHUNK + 7
            h = feret_sample_block(model, n, seed=21, start=0, count=samples)
            direct = empirical_moments(h)
            streamed = estimate_process_moments(model, n, samples, seed=21)
            for name in ("mean", "second", "stderr_mean", "stderr_second"):
                np.testing.assert_array_equal(
                    getattr(direct, name), getattr(streamed, name)
                )

    def test_estimate_memory_is_linear_in_n(self):
        # Nothing of shape (CHUNK, n, n) is built: at n = 64 one such array
        # alone would take 64 * CHUNK * 64 * 8 bytes.
        n = 64
        model = IsotropicZonotope(n, LogNormal(n, sigma=0.3))
        estimate_process_moments(model, n, CHUNK, seed=2)  # warm caches
        tracemalloc.start()
        try:
            estimate_process_moments(model, n, CHUNK, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * CHUNK * n * 8

    def test_deterministic_model_zero_stderr(self):
        est = estimate_process_moments(DeterministicBody(Disk(1.0)), 4, 10, seed=0)
        np.testing.assert_array_equal(est.stderr_mean, np.zeros(4))

    def test_isotropic_square_mean_within_3_sigma(self):
        m = estimate_process_moments(
            IsotropicZonotope(2, Fixed([1.0, 1.0])), 2, 10_000, seed=99
        )
        assert np.all(np.abs(m.mean - 4.0 / np.pi) <= 3.0 * m.stderr_mean + 1e-12)
        assert np.all(
            np.abs(m.second - (np.pi + 2.0) / np.pi) <= 3.0 * m.stderr_second + 1e-12
        )

    def test_mixture_model_matches_forward_map(self):
        from zonofit import CentralFaceMoments

        n = 6
        atoms = np.array([np.full(n, 0.5), np.full(n, 1.5)])
        weights = [0.4, 0.6]
        model = IsotropicZonotope(n, Mixture(atoms, weights))
        m = estimate_process_moments(model, n, 20_000, seed=31)
        # all faces equal within a sample: E[alpha_i alpha_j] = E[s^2]
        s2 = 0.4 * 0.25 + 0.6 * 2.25
        mean_alpha = 0.4 * 0.5 + 0.6 * 1.5
        ref = forward_zonotope_moments(
            CentralFaceMoments(n, mean_alpha, np.full(n, s2))
        )
        assert np.all(np.abs(m.mean - ref.mean) <= 3.0 * m.stderr_mean + 1e-12)
        assert np.all(np.abs(m.second - ref.second) <= 3.0 * m.stderr_second + 1e-12)

    def test_empirical_validation(self):
        with pytest.raises(ParameterError, match="samples must be an integer >= 2, got 1"):
            empirical_moments(np.ones((1, 3)))

    @staticmethod
    def two_pass(h):
        # reference statistics from the (N, n, n) product tensor, centered
        # after a first pass for the means
        N = len(h)
        ref = {}
        for name, x in (("mean", h), ("second", h[:, :, None] * h[:, None, :])):
            ref[name] = x.mean(axis=0)
            sq_dev = ((x - ref[name]) ** 2).sum(axis=0)
            ref["stderr_" + name] = np.sqrt(sq_dev / (N - 1) / N)
        return ref

    def test_large_offset_does_not_cancel(self):
        # three chunks of 1e6 + 1e-3 N(0, 1), true stderr_mean 1e-5: variances
        # formed as raw power sums minus N mean^2 cancel to 0 on this input
        h = 1e6 + 1e-3 * np.random.default_rng(3).standard_normal((10_000, 4))
        m = empirical_moments(h)
        ref = self.two_pass(h)
        for name, rtol in (("mean", 1e-12), ("second", 1e-12),
                           ("stderr_mean", 1e-6), ("stderr_second", 1e-6)):
            np.testing.assert_allclose(getattr(m, name), ref[name], rtol=rtol, atol=0)
        np.testing.assert_allclose(m.stderr_mean, 1e-5, rtol=0.05)

    def test_merged_chunks_match_two_pass(self):
        # three uneven chunks merged in the pairwise tree
        h = np.random.default_rng(4).lognormal(0.0, 0.5, size=(2 * CHUNK + 7, 5))
        m = empirical_moments(h)
        ref = self.two_pass(h)
        for name in ("mean", "second", "stderr_mean", "stderr_second"):
            np.testing.assert_allclose(getattr(m, name), ref[name], rtol=1e-12, atol=0)


class TestPipeline:
    def test_deterministic_disk_central_moments(self):
        # Disk of radius 1 through the full chain at n = 3: the central mean
        # is exactly pi/3 and v_alpha solves (4/3) = (k_s(0) + 2 k_s(pi/3)) v.
        c = pipeline_estimate(DeterministicBody(Disk(1.0)), 3, 10, seed=0)
        assert c.mean_alpha == pytest.approx(np.pi / 3.0, abs=1e-12)
        v_expected = (4.0 / 3.0) / (k_s(0.0) + 2.0 * k_s(np.pi / 3.0))
        assert v_expected == pytest.approx(1.0946947384989716, abs=1e-12)
        np.testing.assert_allclose(c.v_alpha, v_expected, atol=1e-10)
        assert not c.psd_repaired

    def test_perimeter_preserved_through_chain(self):
        # Cauchy's formula makes E[U] invariant under isotropization and
        # exactly representable by the recovered zonotope moments.
        c = pipeline_estimate(DeterministicBody(Disk(1.0)), 3, 10, seed=0)
        assert expected_perimeter(c) == pytest.approx(2.0 * np.pi, abs=1e-10)

    def test_stationary_model_skips_isotropization(self):
        model = IsotropicZonotope(2, Fixed([1.0, 1.0]))
        c = pipeline_estimate(model, 2, 5_000, seed=77)
        assert c.mean_alpha == pytest.approx(1.0, abs=0.05)
        np.testing.assert_allclose(c.v_alpha, [1.0, 1.0], atol=0.1)


#: finite models whose diameters, or their products, overflow a float: what
#: feret_sample_block names (None where the diameters are finite), and what
#: the moment routes name
FERET = "the model's Feret diameters"
OVERFLOWING_MODELS = [
    (IsotropicRectangle(Fixed([1e200, 1e200])), None, "second"),
    (IsotropicRectangle(Fixed([1e308, 1e308])), FERET, FERET),
    (IsotropicEllipse(Fixed([1e200, 1.0])), FERET, FERET),
    (DeterministicBody(Scaled(Disk(1.0), 1e308)), FERET, FERET),
]
OVERFLOW_IDS = ["rectangle_1e200", "rectangle_1e308", "ellipse_1e200", "scaled_disk_1e308"]


class TestOverflow:
    """Every Monte-Carlo route checks its sample blocks where they are drawn
    and names what overflowed; pytest's settings make a numpy warning fail."""

    @pytest.mark.parametrize("model, block_name, _", OVERFLOWING_MODELS, ids=OVERFLOW_IDS)
    def test_sample_block_is_finite_or_raises(self, model, block_name, _):
        if block_name is None:
            assert np.all(np.isfinite(feret_sample_block(model, 4, 0, 0, 2)))
            return
        with pytest.raises(ParameterError, match=f"^{block_name} must be finite$"):
            feret_sample_block(model, 4, 0, 0, 2)

    @pytest.mark.parametrize("route", [estimate_process_moments, pipeline_estimate],
                             ids=["estimate_process_moments", "pipeline_estimate"])
    @pytest.mark.parametrize("model, _, name", OVERFLOWING_MODELS, ids=OVERFLOW_IDS)
    def test_moment_routes_name_the_value(self, route, model, _, name):
        with pytest.raises(ParameterError, match=f"^{name} must be finite$"):
            route(model, 4, 10, 0)

    def test_threaded_reduction_is_quiet(self, monkeypatch):
        # numpy's error state is per thread: each worker silences its own
        monkeypatch.setenv("ZONOFIT_THREADS", "2")
        with pytest.raises(ParameterError, match="^second must be finite$"):
            estimate_process_moments(OVERFLOWING_MODELS[0][0], 4, 2 * CHUNK, 0)
