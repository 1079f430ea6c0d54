"""Grid interpolants, the a priori bound, and rotation-optimized fits."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zonofit import (
    Disk,
    Ellipse,
    ParameterError,
    Rotated,
    Segment,
    SymmetricPolygon,
    Zonotope,
    c0_approximate,
    cinf_approximate,
    confidence_bound,
    contains,
    diameter,
    hausdorff_bound,
    hausdorff_distance,
    offset_distances,
    regular_subdivision,
    scan_offsets,
    worst_offset,
)
from zonofit import approx
from zonofit.bodies import RTOL
from zonofit.metrics import SUP_ANGLE_TOL, SUP_GRID_SIZE, refine_sup, sup_grid


#: minor page faults of five 256-offset calls of one kernel, after a warm-up
_FAULT_COUNT = """
import resource
import numpy as np
from zonofit import Ellipse, approx
distances = approx._distance_kernel(Ellipse(3.0, 1.0, phi=0.4), 8)
offsets = np.arange(256) * (np.pi / 8 / 256)
distances(offsets)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    distances(offsets)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class _FakeBody:
    """Feret-like callable that is not the width function of any convex body."""

    def feret(self, theta):
        th = np.asarray(theta, dtype=float)
        return 1.0 + 0.9 * np.cos(4.0 * th)


class TestC0:
    def test_square_is_its_own_interpolant(self, unit_square):
        z = c0_approximate(unit_square, 2)
        np.testing.assert_allclose(z.alpha, [1.0, 1.0], atol=1e-12)
        assert hausdorff_distance(unit_square, z) <= 1e-12

    def test_ellipse_3_1_n2_face_lengths(self):
        # H(0) = 2, H(pi/2) = 6 for semiaxes (3, 1); solving the 2x2 system
        # [[0, 1], [1, 0]] alpha = H gives alpha = (6, 2).
        z = c0_approximate(Ellipse(3.0, 1.0), 2)
        np.testing.assert_allclose(z.alpha, [6.0, 2.0], atol=1e-12)

    def test_interpolates_at_grid_angles(self):
        x = Ellipse(2.0, 1.0, phi=0.3)
        for n in (2, 3, 4, 6, 8):
            z = c0_approximate(x, n)
            th = regular_subdivision(n)
            np.testing.assert_allclose(z.feret(th), x.feret(th), atol=1e-9)

    def test_contains_target(self):
        for x in (Disk(1.0), Ellipse(3.0, 1.0), Ellipse(2.0, 0.5, phi=1.1)):
            for n in (2, 3, 5, 8):
                assert contains(c0_approximate(x, n), x)

    def test_tiny_negative_solution_clamped(self):
        # A disk's grid system is exactly solvable; perturbations at roundoff
        # scale must not trip the consistency check.
        z = c0_approximate(Disk(1.0), 16)
        assert np.all(z.alpha >= 0.0)

    def test_inconsistent_samples_rejected(self):
        with pytest.raises(ParameterError, match="not the Feret diameters"):
            c0_approximate(_FakeBody(), 8)

    @pytest.mark.parametrize("fit", [c0_approximate,
                                     lambda x, n: cinf_approximate(x, n, grid_points=8)[1]])
    def test_diameters_beyond_a_quarter_of_the_float_range_rejected(self, fit):
        # at n = 2 the stencil adds two samples, so a 1e308 segment overflowed
        # it; 4e307 is within the limit and fits, its face lengths exact
        with pytest.raises(ParameterError, match=r"^Feret diameter \S+ is too large"):
            fit(Segment(1e308, 0.3), 2)
        z = fit(Segment(4e307, 0.0), 2)
        assert np.all(np.isfinite(z.alpha)) and z.alpha.max() == pytest.approx(4e307)

    def test_bad_n(self):
        with pytest.raises(ParameterError):
            c0_approximate(Disk(1.0), 1)
        with pytest.raises(ParameterError):
            c0_approximate(Disk(1.0), 2.5)


class TestBound:
    def test_value_at_n2(self):
        # (6 + 2 sqrt 2) sin(pi/4) = 4 sqrt 2 + 2 = 6.2426406871...
        assert hausdorff_bound(2, 1.0) == pytest.approx(6.242640687119285, abs=1e-12)

    def test_zero_diameter(self):
        assert hausdorff_bound(7, 0.0) == 0.0

    def test_decreasing_in_n(self):
        vals = [hausdorff_bound(n, 1.0) for n in range(2, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominates_actual_distance(self):
        for a, b in ((1.0, 1.0), (3.0, 1.0), (10.0, 1.0)):
            x = Ellipse(a, b)
            diam = 2.0 * max(a, b)
            for n in (2, 3, 4, 8, 16):
                d = hausdorff_distance(x, c0_approximate(x, n))
                assert d <= hausdorff_bound(n, diam)

    def test_validation(self):
        with pytest.raises(ParameterError):
            hausdorff_bound(1, 1.0)
        with pytest.raises(ParameterError):
            hausdorff_bound(4, -1.0)

    def test_overflowing_bound_raises(self):
        # 6.24 x 4e307 is beyond the float range at n = 2; at n = 4 the
        # factor is 3.38 and the bound fits
        with pytest.raises(ParameterError, match=r"^Hausdorff bound of diameter 4\.000e\+307 "
                                                 r"at n = 2 overflows a float$"):
            hausdorff_bound(2, 4e307)
        assert hausdorff_bound(4, 4e307) == pytest.approx(1.3514e308, rel=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diameter(self, bad):
        # NaN < 0 is false, so the sign check alone lets NaN through
        with pytest.raises(ParameterError, match="diam must be finite"):
            hausdorff_bound(4, bad)
        with pytest.raises(ParameterError, match="diam must be finite"):
            confidence_bound(0.1, 4, bad)


class TestCinf:
    def test_disk_offset_irrelevant(self):
        # For a disk every offset gives the same hexagon distance
        # R (sec(pi/2n) - 1); at n = 3 that is 2/sqrt(3) - 1.
        tau, z = cinf_approximate(Disk(1.0), 3, grid_points=32)
        d = hausdorff_distance(Disk(1.0), z)
        assert d == pytest.approx(2.0 / np.sqrt(3.0) - 1.0, abs=1e-6)

    def test_square_best_offset_is_exact(self, unit_square):
        tau, z = cinf_approximate(unit_square, 2, grid_points=64)
        assert hausdorff_distance(unit_square, z) <= 1e-7
        assert tau == pytest.approx(0.0, abs=1e-3)

    def test_never_worse_than_unrotated(self):
        for x in (Ellipse(3.0, 1.0, phi=0.7), Ellipse(2.0, 0.5, phi=1.2)):
            for n in (2, 3, 4):
                d0 = hausdorff_distance(x, c0_approximate(x, n))
                _, z = cinf_approximate(x, n, grid_points=64)
                assert hausdorff_distance(x, z) <= d0 + 1e-6

    def test_rotated_ellipse_much_better_than_c0(self):
        # A 3:1 ellipse tilted to pi/4 is poorly served by the axis-aligned
        # two-direction grid; the optimized offset recovers the good fit.
        x = Ellipse(3.0, 1.0, phi=np.pi / 4.0)
        d0 = hausdorff_distance(x, c0_approximate(x, 2))
        tau, z = cinf_approximate(x, 2, grid_points=64)
        dinf = hausdorff_distance(x, z)
        assert dinf < 0.5 * d0
        assert tau == pytest.approx(np.pi / 4.0, abs=1e-3)

    def test_rotation_invariance_of_value(self):
        x = Ellipse(2.0, 1.0)
        _, z = cinf_approximate(x, 3, grid_points=64)
        base = hausdorff_distance(x, z)
        for eta in (0.2, 0.9, 1.7):
            xr = Ellipse(2.0, 1.0, phi=eta)
            _, zr = cinf_approximate(xr, 3, grid_points=64)
            assert hausdorff_distance(xr, zr) == pytest.approx(base, abs=1e-5)

    def test_returned_zonotope_carries_offset(self):
        tau, z = cinf_approximate(Ellipse(3.0, 1.0, phi=0.5), 2, grid_points=64)
        assert z.t == pytest.approx(tau)

    def test_validation(self):
        for scan in (cinf_approximate, worst_offset):
            with pytest.raises(ParameterError):
                scan(Disk(1.0), 1)
            for grid_points in (0, 2.5):
                with pytest.raises(ParameterError):
                    scan(Disk(1.0), 3, grid_points=grid_points)


class TestWorstOffset:
    def test_at_least_best(self):
        x = Ellipse(3.0, 1.0)
        for n in (2, 3, 4):
            _, z = cinf_approximate(x, n, grid_points=64)
            best = hausdorff_distance(x, z)
            _, worst = worst_offset(x, n, grid_points=64)
            assert worst >= best

    @pytest.mark.parametrize("x, ns", [
        (Ellipse(1.0000001, 1.0, 0.2), range(2, 41)),
        (Disk(0.3), (9, 13, 17, 28, 33)),
    ], ids=["near_disk_ellipse", "disk"])
    def test_never_below_cinf_on_flat_profiles(self, x, ns):
        for n in ns:
            _, z = cinf_approximate(x, n, grid_points=16)
            _, worst = worst_offset(x, n, grid_points=16)
            assert worst >= hausdorff_distance(x, z)

    def test_disk_flat_profile(self):
        _, worst = worst_offset(Disk(1.0), 3, grid_points=32)
        _, z = cinf_approximate(Disk(1.0), 3, grid_points=32)
        assert worst == pytest.approx(hausdorff_distance(Disk(1.0), z), abs=1e-6)

    def test_matches_offset_distances_grid(self):
        x = Ellipse(2.0, 1.0)
        offsets = np.arange(16) * (np.pi / 3.0 / 16.0)
        vals = offset_distances(x, 3, offsets)
        tau, worst = worst_offset(x, 3, grid_points=16)
        assert worst >= vals.max() - 1e-9


class TestOffsetDistances:
    def test_matches_direct_computation(self):
        x = Ellipse(3.0, 1.0, phi=0.4)
        offsets = [0.0, 0.3, 0.7]
        vals = offset_distances(x, 2, offsets)
        for t, v in zip(offsets, vals):
            alpha = np.linalg.solve(
                [[0.0, 1.0], [1.0, 0.0]], x.feret(regular_subdivision(2) + t)
            )
            z = Zonotope(alpha, t=t)
            assert v == pytest.approx(hausdorff_distance(x, z), abs=1e-9)

    def test_same_bits_in_one_call_or_one_at_a_time(self, regular_hexagon):
        offsets = 0.01 + np.arange(40) * (np.pi / 8 / 40)
        whole = offset_distances(regular_hexagon, 8, offsets)
        single = [offset_distances(regular_hexagon, 8, t) for t in offsets]
        np.testing.assert_array_equal(whole, single)

    def test_period_pi_over_n(self):
        x = Ellipse(2.0, 1.0, phi=0.9)
        vals = offset_distances(x, 4, [0.1, 0.1 + np.pi / 4.0])
        assert vals[0] == pytest.approx(vals[1], abs=1e-9)


class TestScanOffsets:
    def test_best_distance_is_the_hausdorff_distance(self, unit_square):
        shapes = (
            Ellipse(3.0, 1.0, phi=0.4),
            Rotated(unit_square, 0.3),
            Segment(1.3, 0.7),
        )
        for x in shapes:
            for n in (4, 8, 16):
                (tau, d_best), _ = scan_offsets(x, n, grid_points=16)
                tau_c, z = cinf_approximate(x, n, grid_points=16)
                assert tau == tau_c
                assert d_best == hausdorff_distance(x, z)

    @pytest.mark.parametrize("scan, lanes", [
        (cinf_approximate, 1),
        (worst_offset, 2),
        (scan_offsets, 2),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_objective_calls(self, monkeypatch, scan, lanes):
        # one grid call evaluates each grid offset exactly once; every later
        # call is one section-search step with at most _BLOCK probes for each
        # searched offset: the best one for cinf_approximate, the best and
        # the worst as lanes of the same calls for worst_offset and
        # scan_offsets, which so make no more calls than cinf_approximate
        calls = []
        kernel = approx._distance_kernel

        def counted_kernel(x, n):
            distances = kernel(x, n)

            def counted(t):
                calls.append(np.array(t))
                return distances(t)

            return counted

        monkeypatch.setattr(approx, "_distance_kernel", counted_kernel)
        x, n, grid_points = Ellipse(3.0, 1.0, phi=0.4), 8, 16
        refinements = []
        for run in (cinf_approximate, scan):
            calls.clear()
            run(x, n, grid_points=grid_points)
            refinements.append(calls[1:])
        grid = np.arange(grid_points) * (np.pi / n / grid_points)
        evaluated = np.concatenate([np.ravel(t) for t in calls]).tolist()
        for t in grid:
            assert evaluated.count(t) == 1
        np.testing.assert_array_equal(calls[0], grid)
        probes = refinements[-1]
        assert probes[0].shape == (lanes, approx._BLOCK)
        for t in probes:
            assert t.ndim == 2 and t.shape[0] <= lanes and t.shape[1] <= approx._BLOCK
        step = np.pi / n / grid_points
        bound = np.ceil(np.log(2 * step / approx.OFFSET_ANGLE_TOL)
                        / np.log((approx._BLOCK + 1) / 2)) + 1
        assert len(probes) <= bound
        assert len(probes) <= len(refinements[0])

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_section_search_reaches_the_dense_minimum(self, n):
        # the refined distance is hausdorff_distance, the scans below are the
        # kernel's sup estimate; the two differ by roundoff-sized amounts, so
        # d_best is bounded only from above
        x = Ellipse(3.0, 1.0, phi=0.4)
        (_, d_best), _ = scan_offsets(x, n)
        period = np.pi / n
        step = period / 256
        grid = offset_distances(x, n, np.arange(256) * step)
        assert d_best <= grid.min()
        assert d_best <= hausdorff_distance(x, c0_approximate(x, n))
        t = np.argmin(grid) * step
        dense = offset_distances(x, n, np.linspace(t - step, t + step, 4097) % period)
        assert d_best <= dense.min() + 1e-6

    def test_ties_break_toward_the_smallest_offset(self, monkeypatch):
        # no probe is strictly better than grid offset 0
        monkeypatch.setattr(approx, "_distance_kernel",
                            lambda x, n: lambda t: np.full(np.shape(t), 0.25))
        x = Ellipse(3.0, 1.0, phi=0.4)
        (tau_best, _), (tau_worst, _) = scan_offsets(x, 8, grid_points=16)
        assert tau_best == tau_worst == 0.0
        assert cinf_approximate(x, 8, grid_points=16)[0] == 0.0

    @pytest.mark.parametrize("x, ns", [
        (Ellipse(1.0000001, 1.0, 0.2), range(2, 41)),
        (Disk(0.3), (9, 13, 17, 28, 33)),
    ], ids=["near_disk_ellipse", "disk"])
    def test_worst_never_below_best(self, x, ns):
        # on these near-flat profiles the kernel's sup estimate and
        # hausdorff_distance order some offsets differently; the best offset
        # stays a candidate for the worst
        for n in ns:
            (tau, d_best), (_, d_worst) = scan_offsets(x, n, grid_points=16)
            assert d_worst >= d_best
            z = Zonotope(approx._interpolant(x, n, tau)[1], t=tau)
            assert d_best == hausdorff_distance(x, z)


class TestDistanceKernel:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 16, 33, 64])
    def test_matches_per_offset_route(self, unit_square, n):
        shapes = (
            Ellipse(3.0, 1.0, phi=0.4),
            Rotated(unit_square, 0.3),
            Segment(1.3, 0.7),
            Disk(1.0),
        )
        offsets = 0.01 + np.arange(9) * (np.pi / n / 9)
        for x in shapes:
            got = approx._distance_kernel(x, n)(offsets)
            for t, d in zip(offsets, got):
                z = Zonotope(approx._interpolant(x, n, t)[1], t=t)
                # where n divides the metrics grid both routes search the same
                # grid; elsewhere each stops within SUP_ANGLE_TOL of a sup that
                # may sit at a kink, so they differ by up to the gap's
                # Lipschitz bound times that tolerance; the Lipschitz
                # constant of a Feret function is at most the body's diameter
                tol = 1e-9
                if SUP_GRID_SIZE % n:
                    tol += (diameter(x) + z.alpha.sum()) * SUP_ANGLE_TOL
                assert d == pytest.approx(hausdorff_distance(x, z), abs=tol)

    @pytest.mark.parametrize("n", [8, 64, 1024, 4096])
    def test_matches_hausdorff_distance_at_large_n(self, n):
        # from n = 1024 on, a refinement bracket of +-pi/G can cross a node,
        # and at n = 4096 the sup grid has one point per face interval
        # (G = n), so the kernel looks up the face interval of every probe;
        # the oracle sums the n clipped faces, whose roundoff grows like
        # n^2 eps, so the two agree to RTOL times the body's size
        k = 0.3 + np.arange(4) * (np.pi / 2.0)
        square = SymmetricPolygon(np.stack([np.cos(k), np.sin(k)], axis=1))
        offsets = 0.013 + np.arange(8) * (np.pi / n / 8)
        for x in (Ellipse(3.0, 1.0, phi=0.4), square, Segment(1.3, 0.7)):
            want = [hausdorff_distance(x, Zonotope(approx._interpolant(x, n, t)[1], t=t))
                    for t in offsets]
            np.testing.assert_allclose(offset_distances(x, n, offsets), want, rtol=0,
                                       atol=RTOL * np.max(x.feret(sup_grid(n))))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64, 100])
    def test_grid_pass_matches_dense_reference(self, monkeypatch, unit_square, n):
        # each offset's grid maximum, caught where it enters the refinement,
        # against max_j |H_x(eta_j) - sum_i alpha_i |sin(eta_j - t - theta_i)||
        caught = []
        monkeypatch.setattr(approx, "refine_sup",
                            lambda f, grid, i, value: caught.append(value)
                            or refine_sup(f, grid, i, value))
        period, eta = np.pi / n, sup_grid(n)
        step = np.pi / len(eta)
        # negative, past one period, exact grid steps, and just below pi/n,
        # where the first grid point of the period lies G/n steps on
        offsets = np.array([-1.0, -0.3, 0.4 * period, period, 2.5 * period, 17 * step,
                            3 * step - 5 * period, np.nextafter(period, 0.0)])
        theta = regular_subdivision(n)
        # at its own offset the zonotope is its interpolant, so only a grid
        # point evaluated on the wrong side of a node leaves a gap there
        own = Zonotope(1.0 + np.arange(n) % 3, t=offsets[2])
        for x in (Ellipse(3.0, 1.0, phi=0.4), Rotated(unit_square, 0.3),
                  Segment(1.3, 0.7), Disk(1.0), own):
            caught.clear()
            approx._distance_kernel(x, n)(offsets)
            hx = x.feret(eta)
            dense = [np.max(np.abs(hx - np.abs(np.sin(np.subtract.outer(eta, t + theta)))
                                   @ approx._interpolant(x, n, t)[1]))
                     for t in offsets]
            np.testing.assert_allclose(caught[0], dense, rtol=0, atol=1e-12 * hx.max())

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64, 100])
    def test_period_on_test_bodies(self, unit_square, n):
        # distances differ only by the roundoff of the node values and of the
        # face lengths, which the refinement's gap sums; measured against
        # the body's size, as the distance can be far smaller
        period = np.pi / n
        t = 0.013 + np.arange(5) * (period / 5)
        for x in (Ellipse(3.0, 1.0, phi=0.4), Rotated(unit_square, 0.3),
                  Segment(1.3, 0.7), Disk(1.0)):
            base = offset_distances(x, n, t)
            scale = np.max(x.feret(sup_grid(n)))
            for k in (1, 3, -2):
                np.testing.assert_allclose(offset_distances(x, n, t + k * period), base,
                                           rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("n", [3, 8, 33])
    def test_independent_of_block_and_lane_counts(self, monkeypatch, unit_square, n):
        # bodies whose feret bits do not depend on the batch shape of the
        # angles; the hexagon's case is
        # TestOffsetDistances::test_same_bits_in_one_call_or_one_at_a_time
        shapes = (Ellipse(3.0, 1.0, phi=0.4), Rotated(unit_square, 0.3),
                  Segment(1.3, 0.7), Disk(1.0))
        offsets = np.arange(40) * (np.pi / n / 40)
        for x in shapes:
            got = []
            for rows, lanes in ((1, 256), (7, 256), (16, 256), (16, 16), (7, 5)):
                monkeypatch.setattr(approx, "_BLOCK", rows)
                monkeypatch.setattr(approx, "_LANES", lanes)
                got.append(approx._distance_kernel(x, n)(offsets))
            for d in got[1:]:
                np.testing.assert_array_equal(d, got[0])

    def test_reused_workspace_leaves_results_alone(self):
        # the workspace is shared by every call of one kernel: earlier
        # results must be fresh arrays, and repeated calls repeat their bits
        distances = approx._distance_kernel(Ellipse(3.0, 1.0, phi=0.4), 8)
        calls = [0.05 + np.arange(p) * 0.011 for p in (1, 3, 17, 40)]
        kept = []
        for t in calls + calls[::-1]:
            d = distances(t)
            kept.append((d, d.copy()))
        for d, copy in kept:
            np.testing.assert_array_equal(d, copy)
        for (first, _), (again, _) in zip(kept, kept[::-1]):
            np.testing.assert_array_equal(first, again)

    def test_no_page_faults_after_warm_up(self):
        # counted in a fresh interpreter: after other tests the allocator may
        # keep freed blocks and hide the faults of fresh temporaries; fresh
        # (_BLOCK, G) temporaries per block took about 28k
        pytest.importorskip("resource")
        env = dict(os.environ, PYTHONPATH=str(Path(approx.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", _FAULT_COUNT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 500

    def test_workspace_freed_without_garbage_collection(self):
        # a reference cycle through the kernel's closures would keep each
        # scan's 1 MB workspace alive until the collector runs
        x = Ellipse(3.0, 1.0, phi=0.4)
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(3):
                cinf_approximate(x, 16, grid_points=16)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert current < 2 ** 20

    def test_keeps_offset_shape(self):
        distances = approx._distance_kernel(Ellipse(2.0, 1.0), 4)
        assert distances(0.1).shape == ()
        assert distances(np.zeros(0)).shape == (0,)
        grid = np.arange(40).reshape(2, 20) * 0.01
        np.testing.assert_array_equal(distances(grid).ravel(), distances(grid.ravel()))

    def test_numpy_integer_n(self):
        x = Ellipse(2.0, 1.0, phi=0.3)
        assert cinf_approximate(x, np.int64(5), grid_points=8)[0] == \
            cinf_approximate(x, 5, grid_points=8)[0]

    def test_non_body_rejected(self):
        with pytest.raises(ParameterError, match="face length"):
            approx._distance_kernel(_FakeBody(), 8)(np.linspace(0.0, 0.3, 20))
        with pytest.raises(ParameterError, match="face length"):
            cinf_approximate(_FakeBody(), 8, grid_points=16)
