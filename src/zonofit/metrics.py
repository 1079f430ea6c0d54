"""Metric and integral functionals of symmetric convex bodies.

Every sup over angle in zonofit, here and in the offset scan, is one search:
the grid of `sup_grid`, then `refine_sup` around the grid maximum, a section
search whose every step evaluates _PROBES points of every lane in one call of
the function.  The offset scan's search over rotation offsets is the same
`section_search`.  Bodies and convex polygons alike are evaluated through
their `feret` method, which takes arrays of angles of any shape.
No functional here imports scipy: `perimeter_cauchy` sums its Simpson rule
in numpy.
"""

import numpy as np

from .bodies import face_lengths, regular_subdivision
from .errors import ParameterError

SUP_GRID_SIZE = 4096
SUP_ANGLE_TOL = 1e-8

#: Evenly spaced interior probes of a bracket that one search step evaluates;
#: each step narrows the bracket by 2/(_PROBES + 1).
_PROBES = 16

_FRAC = np.arange(_PROBES + 2) / (_PROBES + 1)


def section_search(f, lo, width, tol, best=None):
    """Maximum of f on the brackets [lo, lo + width] by a section search;
    returns (x, f(x)).

    Each step evaluates _PROBES evenly spaced interior points of every
    bracket in one call of f, then narrows each bracket to the two points
    beside its step's best probe, until the brackets are at most tol wide.
    lo holds one bracket start per lane, of shape (lanes..., 1), width is
    one for all lanes or one per lane, and f maps the (lanes..., _PROBES)
    array of probes to their values; x and f(x) have lo's shape.  The
    search starts from best = (x, f(x)) when given, else from the first
    step's best probe, and a probe replaces the best point only when it is
    strictly higher, so ties keep the earlier point.  Assumes f is unimodal
    on the bracket; on plateaus or multimodal brackets it still returns the
    best point it evaluated.  Raises ParameterError unless tol > 0, which
    the loop needs to stop.
    """
    if not tol > 0:
        raise ParameterError(f"section-search tolerance must be > 0, got {tol!r}")
    while best is None or np.any(width > tol):
        values = np.asarray(f(lo + width * _FRAC[1:-1]), dtype=float)
        j = np.argmax(values, axis=-1)[..., None]
        x, v = lo + width * _FRAC[j + 1], values.max(axis=-1, keepdims=True)
        lo, width = lo + width * _FRAC[j], width * 2.0 / (_PROBES + 1)
        if best is not None:
            better = v > best[1]
            x, v = np.where(better, x, best[0]), np.where(better, v, best[1])
        best = x, v
    return best


def golden_section_max(f, a, b, tol):
    """Maximum of f on [a, b] by `section_search`; returns (x, f(x)).

    f maps a (_PROBES,) array of points to their values.  `a` and `b` may
    also be arrays of brackets of equal width, searched in lockstep: f then
    maps a (lanes, _PROBES) array, each lane steps as a scalar search on its
    bracket would, and x and f(x) are arrays.  (It keeps the name of the
    golden-section search it replaced, under which perfbench traces it.)
    """
    x, v = section_search(f, np.asarray(a, dtype=float)[..., None],
                          np.asarray(b - a, dtype=float)[..., None], tol)
    return x[..., 0], v[..., 0]


def sup_grid(n=1):
    """Regular grid of G = n 2^k angles on [0, pi), the least G >= SUP_GRID_SIZE."""
    while n < SUP_GRID_SIZE:
        n *= 2
    return regular_subdivision(n)


def refine_sup(f, grid, i, grid_max):
    """(angle mod pi, value) of a section search of grid[i] +- pi/G to
    SUP_ANGLE_TOL, or of the grid maximum grid_max = f(grid[i]) unless the
    search is strictly higher.  i and grid_max may be arrays of lanes: f then
    maps a (lanes, probes) array of angles, one row per lane."""
    step = np.pi / len(grid)
    x, v = golden_section_max(f, grid[i] - step, grid[i] + step, SUP_ANGLE_TOL)
    return np.where(grid_max >= v, (grid[i], grid_max), (np.mod(x, np.pi), v))


def sup_over_angles(f):
    """sup over [0, pi) of a pi-periodic function.

    `f` maps an array of angles to the array of its values, of the same
    shape; it is evaluated on `sup_grid()`, then refined by `refine_sup`.
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
