"""Metric and integral functionals of symmetric convex bodies.

Every sup over angle in zonofit, here and in the offset scan, is one search:
the grid of `sup_grid`, then `refine_sup` around the grid maximum.  Bodies
and convex polygons alike are evaluated through their `feret` method.
No functional here imports scipy: `perimeter_cauchy` sums its Simpson rule
in numpy.
"""

import numpy as np

from .bodies import face_lengths, regular_subdivision
from .errors import ParameterError

SUP_GRID_SIZE = 4096
SUP_ANGLE_TOL = 1e-8

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, a, b, tol):
    """Maximum of f on [a, b] by golden-section search; returns (x, f(x)).

    Assumes f is unimodal on the bracket; on plateaus or multimodal brackets
    it still returns the best point it evaluated.  `a` and `b` may also be
    arrays of brackets of equal width, searched in lockstep: f then maps an
    array of points to an array of values, each lane steps as a scalar
    search on its bracket would, until every bracket is narrower than tol,
    and x and f(x) are arrays.  Raises ParameterError unless tol > 0, which
    the loop needs to stop.
    """
    if not tol > 0:
        raise ParameterError(f"golden-section tolerance must be > 0, got {tol!r}")
    if np.ndim(a):
        select, any_ = np.where, np.any
    else:
        select, any_ = (lambda cond, x, y: x if cond else y), bool
    w = _INVPHI * (b - a)
    c, d = b - w, a + w
    fc, fd = f(c), f(d)
    left = fc >= fd
    best_x, best_v = select(left, c, d), select(left, fc, fd)
    while any_(b - a > tol):
        # left lanes keep [a, d] and evaluate a new c; the others keep [c, b]
        # and evaluate a new d
        a, b = select(left, a, c), select(left, d, b)
        w = _INVPHI * (b - a)
        x = select(left, b - w, a + w)
        fx = f(x)
        c, d = select(left, x, d), select(left, c, x)
        fc, fd = select(left, fx, fd), select(left, fc, fx)
        left = fc >= fd
        v = select(left, fc, fd)
        better = v > best_v
        best_x = select(better, select(left, c, d), best_x)
        best_v = select(better, v, best_v)
    return best_x, best_v


def sup_grid(n=1):
    """Regular grid of G = n 2^k angles on [0, pi), the least G >= SUP_GRID_SIZE."""
    while n < SUP_GRID_SIZE:
        n *= 2
    return regular_subdivision(n)


def refine_sup(f, grid, i, grid_max):
    """(angle mod pi, value) of a golden section search of grid[i] +- pi/G to
    SUP_ANGLE_TOL, or of the grid maximum grid_max = f(grid[i]) unless the
    search is strictly higher.  i and grid_max may be arrays of lanes."""
    step = np.pi / len(grid)
    x, v = golden_section_max(f, grid[i] - step, grid[i] + step, SUP_ANGLE_TOL)
    return np.where(grid_max >= v, (grid[i], grid_max), (np.mod(x, np.pi), v))


def sup_over_angles(f):
    """sup over [0, pi) of a pi-periodic function.

    `f` maps an array of angles to an array of values and a scalar angle to a
    scalar; it is evaluated on `sup_grid()`, then refined by `refine_sup`.
    Returns (angle, value) of the refined maximum.
    """
    grid = sup_grid()
    grid_values = np.asarray(f(grid))
    i = int(np.argmax(grid_values))
    return tuple(refine_sup(f, grid, i, grid_values[i]).tolist())


def hausdorff_distance(x, y):
    """Hausdorff distance between two symmetric bodies: (1/2) sup |H_x - H_y|.

    Either argument may also be a ConvexPolygon, compared through its Feret
    function.
    """
    return 0.5 * sup_over_angles(lambda t: np.abs(x.feret(t) - y.feret(t)))[1]


def diameter(x):
    """sup of H over angles (the usual set diameter for symmetric bodies)."""
    return sup_over_angles(x.feret)[1]


def perimeter_cauchy(x):
    """Perimeter via Cauchy's formula: integral of H over [0, pi].

    Composite Simpson with 8192 panels of width pi/8192, for smooth and kinked
    H alike; x needs only `feret`.  Around a kink the quadrature order degrades
    to roughly O(panels^-2).
    """
    h = np.asarray(x.feret(np.linspace(0.0, np.pi, 8193)), dtype=float)
    return float(np.sum(h[:-1:2] + 4.0 * h[1::2] + h[2::2]) * (np.pi / 8192 / 3.0))


def mixed_area_with_zonotope(x, z):
    """Mixed area W(x, z) of a convex set x with a zonotope z.

    Equals (1/2) sum_i alpha_i H_x(theta_i + t); x may be any SymmetricConvexBody
    or a ConvexPolygon (symmetry of x is not required).
    """
    h = np.asarray(x.feret(z.theta + z.t), dtype=float)
    return 0.5 * float(np.dot(z.alpha, h))


def mixed_area_limit(y, x, n):
    """Zonotopal approximation of the mixed area W(y, x) on an n-direction grid.

    (1/2) H_y(N)^T F(N)^-1 H_x(N), by `face_lengths`; converges to W(y, x) as n
    grows when x is symmetric.  y may be an arbitrary convex polygon.
    """
    th = regular_subdivision(n)
    hy = np.asarray(y.feret(th), dtype=float)
    hx = np.asarray(x.feret(th), dtype=float)
    alpha = face_lengths(hx, np.pi / n)
    return 0.5 * float(np.dot(hy, alpha))


def steiner_mixed_area(px, py):
    """Mixed area of two convex polygons from the Steiner/area expansion:
    W = (A(px + py) - A(px) - A(py)) / 2, via the edge-merge Minkowski sum."""
    from .polygons import minkowski_sum_polygons

    s = minkowski_sum_polygons(px, py)
    return 0.5 * (s.area() - px.area() - py.area())
