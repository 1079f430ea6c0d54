"""Zonotope approximation of symmetric convex bodies from Feret samples.

The interpolation route solves F alpha = H on the regular n-direction grid;
the rotation-optimized route additionally searches the grid offset that
minimizes the Hausdorff distance to the target.
"""

import numpy as np

from .bodies import regular_subdivision
from .circulant import feret_matrix
from .errors import ParameterError
from .metrics import _SUP_GRID, golden_section_max, sup_over_angles
from .zonotopes import Zonotope

#: Face lengths computed from valid Feret data are nonnegative up to roundoff;
#: anything below this is rejected as inconsistent input.
NEGATIVE_FACE_TOL = -1e-9


def _interpolating_alpha(x, n, offset=0.0):
    """Face lengths whose zonotope matches H_x on the offset regular grid."""
    th = regular_subdivision(n) + offset
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


def _distance_to(x, hx_grid, z):
    """Hausdorff distance from x to z reusing cached grid values of H_x."""
    hz = np.asarray(z.feret(_SUP_GRID), dtype=float)

    def gap(t):
        return abs(float(x.feret(t)) - float(z.feret(t)))

    _, v = sup_over_angles(gap, grid_values=np.abs(hz - hx_grid))
    return 0.5 * v


def _profile(x, n, offsets):
    """Objective t -> distance from x to its grid interpolant rotated by t, and
    its values at `offsets`."""
    hx_grid = np.asarray(x.feret(_SUP_GRID), dtype=float)

    def objective(t):
        return _distance_to(x, hx_grid, Zonotope(_interpolating_alpha(x, n, t), t=t))

    return objective, np.array([objective(t) for t in np.asarray(offsets, dtype=float)])


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
    objective, values = _profile(x, n, offsets)

    def refine(sign):
        i = int(np.argmax(sign * values))
        lo, hi = max(0.0, offsets[i] - step), min(period, offsets[i] + step)
        t, v = golden_section_max(lambda t: sign * objective(t), lo, hi, angle_tol)
        if v > sign * values[i]:
            return float(t), sign * float(v)
        return float(offsets[i]), float(values[i])

    return refine


def scan_offsets(x, n, grid_points=256, angle_tol=1e-6):
    """Best and worst rotation offsets: returns ((tau_best, d_best), (tau_worst, d_worst)).

    Evaluates the interpolant distance once at each of `grid_points` offsets
    over [0, pi/n) (the objective's period), then refines the first grid
    minimum and the first grid maximum by golden-section search to
    `angle_tol`.  A refined offset replaces its grid offset only when it is
    strictly better, so ties break toward the smallest offset.
    """
    refine = _offset_scan(x, n, grid_points, angle_tol)
    return refine(-1.0), refine(1.0)


def cinf_approximate(x, n, grid_points=256, angle_tol=1e-6):
    """Best rotation of the grid zonotope: returns (tau, Zonotope with offset tau).

    The best offset of `scan_offsets`, without refining the worst one.  The
    returned distance never exceeds the unrotated interpolant's distance.
    """
    tau, _ = _offset_scan(x, n, grid_points, angle_tol)(-1.0)
    return tau, Zonotope(_interpolating_alpha(x, n, tau), t=tau)


def offset_distances(x, n, offsets):
    """Hausdorff distance from x to its grid interpolant at each rotation offset."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2 directions, got {n!r}")
    return _profile(x, n, offsets)[1]


def worst_offset(x, n, grid_points=256, angle_tol=1e-6):
    """Rotation offset maximizing the interpolant distance: returns (tau, distance).

    The worst offset of `scan_offsets`, without refining the best one.
    """
    return _offset_scan(x, n, grid_points, angle_tol)(1.0)


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
