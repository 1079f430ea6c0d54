"""Zonotope approximation of symmetric convex bodies from Feret samples.

The interpolation route solves F alpha = H on the regular n-direction grid;
the rotation-optimized route additionally searches the grid offset that
minimizes the Hausdorff distance to the target.  The offset scan evaluates
blocks of offsets at once: one circulant solve for all their interpolants,
their widths on the sup grid as one FFT circular convolution, and their sups
refined in lockstep.
"""

import numpy as np

from .bodies import regular_subdivision
from .circulant import feret_matrix
from .errors import ParameterError
from .metrics import SUP_ANGLE_TOL, SUP_GRID_SIZE, golden_section_max, hausdorff_distance
from .zonotopes import Zonotope

#: Face lengths computed from valid Feret data are nonnegative up to roundoff;
#: anything below this is rejected as inconsistent input.
NEGATIVE_FACE_TOL = -1e-9

#: Offsets the scan evaluates together; bounds its (block, sup grid) arrays.
_BLOCK = 16


def _interpolating_alpha(x, n, offset=0.0):
    """Face lengths whose zonotope matches H_x on the offset regular grid.

    For a 1-D array of offsets, returns an (n, offsets) array whose columns
    are the face lengths at each offset.
    """
    th = np.add.outer(regular_subdivision(n), np.asarray(offset, dtype=float))
    h = np.asarray(x.feret(th), dtype=float)
    alpha = feret_matrix(n).solve(h)
    worst = float(alpha.min()) if alpha.size else 0.0
    if worst < NEGATIVE_FACE_TOL:
        raise ParameterError(
            "samples are not the Feret diameters of a symmetric convex body "
            f"(face length {worst:.3e} < {NEGATIVE_FACE_TOL:.0e})"
        )
    return np.maximum(alpha, 0.0)


def c0_approximate(x, n):
    """Zonotope on the regular n-direction grid interpolating H_x at the grid angles.

    The result contains x and its Hausdorff distance from x obeys
    hausdorff_bound(n, diameter(x)).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2 directions, got {n!r}")
    return Zonotope(_interpolating_alpha(x, n))


def hausdorff_bound(n, diam):
    """A priori distance bound (6 + 2 sqrt(2)) sin(pi/2n) * diam for the grid zonotope."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2, got {n!r}")
    if diam < 0:
        raise ParameterError(f"diameter must be >= 0, got {diam}")
    return (6.0 + 2.0 * np.sqrt(2.0)) * np.sin(np.pi / (2.0 * n)) * float(diam)


def _distance_kernel(x, n):
    """distances(t): Hausdorff distance from x to its grid interpolant rotated
    by each offset in the array t.

    Sups over angle start on a regular grid of G = n 2^k points, the smallest
    such G >= SUP_GRID_SIZE (the metrics grid whenever n divides it).  There
    H_z(j pi/G) = sum_i alpha_i |sin((j - i G/n) pi/G - t)| is the circular
    convolution of the face lengths, upsampled by G/n, with a |sin| table
    whose rfft is the n-point DFT of alpha tiled.  Each grid maximum is then
    refined by golden section, all offsets of a block in lockstep, and kept
    unless the refinement beats it.
    """
    size = int(n)
    while size < SUP_GRID_SIZE:
        size *= 2
    eta = regular_subdivision(size)
    sin_eta, cos_eta = np.sin(eta), np.cos(eta)
    hx = np.asarray(x.feret(eta), dtype=float)
    theta = regular_subdivision(n)
    tiled = np.arange(size // 2 + 1) % n
    step = np.pi / size

    def block(t):
        alpha = _interpolating_alpha(x, n, t)
        table = np.abs(np.outer(np.cos(t), sin_eta) - np.outer(np.sin(t), cos_eta))
        spectrum = np.fft.rfft(table, axis=1) * np.fft.fft(alpha, axis=0)[tiled].T
        gaps = np.abs(np.fft.irfft(spectrum, size, axis=1) - hx)
        i = np.argmax(gaps, axis=1)
        grid_max = gaps[np.arange(len(t)), i]

        def gap(e):
            hz = np.einsum("pi,ip->p", np.abs(np.sin((e - t)[:, None] - theta)), alpha)
            return np.abs(np.asarray(x.feret(e), dtype=float) - hz)

        _, v = golden_section_max(gap, eta[i] - step, eta[i] + step, SUP_ANGLE_TOL)
        return 0.5 * np.where(grid_max >= v, grid_max, v)

    def distances(t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty(flat.size)
        for s in range(0, flat.size, _BLOCK):
            out[s:s + _BLOCK] = block(flat[s:s + _BLOCK])
        return out.reshape(t.shape)

    return distances


def _offset_scan(x, n, grid_points, angle_tol):
    """Scan for `scan_offsets`; refine(sign) refines the grid max of sign * distance."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2 directions, got {n!r}")
    if not isinstance(grid_points, (int, np.integer)) or grid_points < 1:
        raise ParameterError(f"grid_points must be an integer >= 1, got {grid_points!r}")
    if not angle_tol > 0:
        raise ParameterError(f"angle_tol must be > 0, got {angle_tol!r}")
    period = np.pi / n
    step = period / grid_points
    offsets = np.arange(grid_points) * step
    distances = _distance_kernel(x, n)
    values = distances(offsets)

    def refine(sign):
        i = int(np.argmax(sign * values))
        lo, hi = max(0.0, offsets[i] - step), min(period, offsets[i] + step)
        t, v = golden_section_max(lambda t: sign * distances(t), lo, hi, angle_tol)
        tau = float(t) if v > sign * values[i] else float(offsets[i])
        return tau, Zonotope(_interpolating_alpha(x, n, tau), t=tau)

    return refine


def _with_distance(x, fit):
    """(tau, z) -> (tau, Hausdorff distance from x to z)."""
    tau, z = fit
    return tau, hausdorff_distance(x, z)


def scan_offsets(x, n, grid_points=256, angle_tol=1e-6):
    """Best and worst rotation offsets: returns ((tau_best, d_best), (tau_worst, d_worst)).

    Evaluates the interpolant distance once at each of `grid_points` offsets
    over [0, pi/n) (the objective's period), then refines the first grid
    minimum and the first grid maximum by golden-section search to
    `angle_tol`.  A refined offset replaces its grid offset only when it is
    strictly better, so ties break toward the smallest offset.  Each reported
    distance is hausdorff_distance of x and the interpolant at its offset.
    """
    refine = _offset_scan(x, n, grid_points, angle_tol)
    return _with_distance(x, refine(-1.0)), _with_distance(x, refine(1.0))


def cinf_approximate(x, n, grid_points=256, angle_tol=1e-6):
    """Best rotation of the grid zonotope: returns (tau, Zonotope with offset tau).

    The best offset of `scan_offsets`, without refining the worst one.  The
    returned distance never exceeds the unrotated interpolant's distance.
    """
    return _offset_scan(x, n, grid_points, angle_tol)(-1.0)


def offset_distances(x, n, offsets):
    """Hausdorff distance from x to its grid interpolant at each rotation offset."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2 directions, got {n!r}")
    return _distance_kernel(x, n)(offsets)


def worst_offset(x, n, grid_points=256, angle_tol=1e-6):
    """Rotation offset maximizing the interpolant distance: returns (tau, distance).

    The worst offset of `scan_offsets`, without refining the best one.
    """
    return _with_distance(x, _offset_scan(x, n, grid_points, angle_tol)(1.0))


def contains(z, x, tol=1e-9, grid=1024):
    """True when the zonotope z contains the symmetric body x.

    Checks H_x <= H_z + tol at the zonotope's face directions and on a
    `grid`-point angle grid; sufficient in practice because H_z is piecewise
    trigonometric between faces.
    """
    angles = np.concatenate([z.theta + z.t, regular_subdivision(grid)])
    hx = np.asarray(x.feret(angles), dtype=float)
    hz = np.asarray(z.feret(angles), dtype=float)
    return bool(np.all(hx <= hz + tol))
