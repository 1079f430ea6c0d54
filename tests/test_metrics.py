import numpy as np
import pytest
from scipy import special

from zonofit import (
    ConvexPolygon,
    ParameterError,
    Disk,
    Ellipse,
    Segment,
    Zonotope,
    c0_approximate,
    diameter,
    hausdorff_distance,
    mixed_area_limit,
    mixed_area_with_zonotope,
    perimeter_cauchy,
    steiner_mixed_area,
)
from zonofit.metrics import (
    SUP_ANGLE_TOL,
    SUP_GRID_SIZE,
    golden_section_max,
    refine_sup,
    sup_grid,
    sup_over_angles,
)


def test_golden_section_max():
    x, v = golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0, 1e-10)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_golden_section_lanes_match_scalar_searches():
    # each lane of a lockstep search takes the scalar search's steps bit for bit
    fs = [
        lambda t: -(t - 0.3) ** 2,
        lambda t: np.abs(np.sin(3.0 * t)) - np.abs(t - 0.2),
        lambda t: np.floor(7.0 * t),
    ]
    rng = np.random.default_rng(5)
    for f in fs:
        for _ in range(20):
            a = rng.uniform(-2.0, 2.0)
            b = a + rng.uniform(1e-6, 2.0)
            tol = 10.0 ** rng.uniform(-12, -2)
            x, v = golden_section_max(f, a, b, tol)
            xs, vs = golden_section_max(f, np.array([a]), np.array([b]), tol)
            assert xs.shape == vs.shape == (1,)
            assert (xs[0], vs[0]) == (x, v)
    a = np.array([0.1, 0.4, 1.0])
    xs, vs = golden_section_max(fs[1], a, a + 0.5, 1e-9)
    for lane, (x, v) in enumerate(zip(xs, vs)):
        assert (x, v) == golden_section_max(fs[1], a[lane], a[lane] + 0.5, 1e-9)


@pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan])
def test_golden_section_needs_positive_tolerance(tol):
    # a tolerance the bracket can never reach would loop forever
    with pytest.raises(ParameterError):
        golden_section_max(lambda t: t, 0.0, 1.0, tol)

def test_sup_over_angles_refines_past_the_grid():
    # peak deliberately placed off the 4096-point grid
    peak = 0.5000001
    f = lambda t: np.cos(4 * (t - peak))
    ang, v = sup_over_angles(f)
    assert v == pytest.approx(1.0, abs=1e-12)
    assert ang == pytest.approx(peak, abs=1e-6)


@pytest.mark.parametrize("n, size", [(1, 4096), (2, 4096), (3, 6144), (7, 7168),
                                     (4096, 4096), (5000, 5000)])
def test_sup_grid_is_the_least_n_2k_at_least_sup_grid_size(n, size):
    np.testing.assert_array_equal(sup_grid(n), np.arange(size) * (np.pi / size))


def test_refine_sup_lanes_match_sup_over_angles():
    # one lockstep refinement of three lanes against three scalar searches
    grid = sup_grid()
    kink = grid[1234]
    fs = [
        lambda t: np.exp(np.cos(2.0 * (t - 1.2345678))),
        # the max is a kink on a grid point: the search cannot beat it
        lambda t: 1.0 - np.abs(np.sin(t - kink)),
        # the peak lies less than a grid step below pi, so the grid max is at
        # angle 0 and the refined angle wraps back into [0, pi)
        lambda t: np.cos(2.0 * (t - (np.pi - 0.3 * grid[1]))),
    ]
    values = [np.asarray(f(grid)) for f in fs]
    i = np.array([int(np.argmax(v)) for v in values])
    grid_max = np.array([v[j] for v, j in zip(values, i)])
    lanes = lambda e: np.array([f(x) for f, x in zip(fs, e)])
    angle, value = refine_sup(lanes, grid, i, grid_max)
    for lane, f in enumerate(fs):
        assert (angle[lane], value[lane]) == sup_over_angles(f)
    assert (angle[1], value[1]) == (kink, 1.0)
    assert i[2] == 0 and np.pi - grid[1] < angle[2] < np.pi
    assert angle[0] != grid[i[0]] and value[0] > grid_max[0]


_GRID = np.arange(SUP_GRID_SIZE) * (np.pi / SUP_GRID_SIZE)


def _sup_from_grid_values(f, grid_values):
    """sup of f given its values on the sup grid: the grid maximum, refined by a
    golden-section search on the two grid steps around it."""
    i = int(np.argmax(grid_values))
    step = np.pi / SUP_GRID_SIZE
    _, v = golden_section_max(f, _GRID[i] - step, _GRID[i] + step, SUP_ANGLE_TOL)
    return float(grid_values[i]) if grid_values[i] >= v else float(v)


def test_distances_match_grid_values_and_scalar_closure(unit_square):
    # oracle: grid values evaluated once, plus a scalar closure for the
    # refinement, which is how these functionals are spelled out by hand
    zonotope = Zonotope([0.7, 1.3, 0.4], theta=[0.1, 1.2, 2.5], t=0.05)
    shapes = [Ellipse(3.0, 1.0, 0.4), unit_square, Segment(1.3, 0.7), zonotope,
              zonotope.vertices(), c0_approximate(Ellipse(2.0, 1.0, 0.2), 5)]
    for x in shapes:
        want = _sup_from_grid_values(lambda t: float(x.feret(t)),
                                     np.asarray(x.feret(_GRID), dtype=float))
        assert diameter(x) == want
        for y in shapes:
            gap = np.abs(np.asarray(x.feret(_GRID), dtype=float)
                         - np.asarray(y.feret(_GRID), dtype=float))
            want = 0.5 * _sup_from_grid_values(
                lambda t: abs(float(x.feret(t)) - float(y.feret(t))), gap)
            assert hausdorff_distance(x, y) == want


def test_hausdorff_identity_and_disks(unit_square):
    assert hausdorff_distance(unit_square, unit_square) == 0.0
    assert hausdorff_distance(Disk(1.0), Disk(2.0)) == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_disk_vs_hexagon():
    hexagon = c0_approximate(Disk(1.0), 3)
    want = 2 / np.sqrt(3) - 1
    assert hausdorff_distance(Disk(1.0), hexagon) == pytest.approx(want, abs=1e-9)


def test_diameter():
    assert diameter(Ellipse(3, 1, 0.7)) == pytest.approx(6.0, abs=1e-9)
    assert diameter(Disk(1.0)) == pytest.approx(2.0, abs=1e-12)
    assert diameter(Segment(1.0, 0.2)) == pytest.approx(1.0, abs=1e-9)


class _FeretOnly:
    """A body that has `feret` and nothing else."""

    def feret(self, theta):
        return Ellipse(2.0, 1.0, 0.3).feret(theta)


def test_perimeter_cauchy_needs_only_feret():
    triangle = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert perimeter_cauchy(triangle) == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-12)
    assert perimeter_cauchy(_FeretOnly()) == perimeter_cauchy(Ellipse(2.0, 1.0, 0.3))


def test_perimeter_cauchy(unit_square):
    assert perimeter_cauchy(Disk(1.0)) == pytest.approx(2 * np.pi, abs=1e-10)
    assert perimeter_cauchy(unit_square) == pytest.approx(4.0, abs=1e-9)
    # ellipse against the complete elliptic integral
    for a, b in [(3.0, 1.0), (2.0, 1.5), (1.0, 1.0)]:
        want = 4 * a * special.ellipe(1 - (b / a) ** 2)
        assert perimeter_cauchy(Ellipse(a, b)) == pytest.approx(want, abs=1e-9)


def test_perimeter_cauchy_is_scipys_simpson_rule(unit_square):
    # the numpy sum is the composite Simpson rule of scipy.integrate.simpson
    # on the same 8193 angles, to within roundoff of the sum's order
    from scipy.integrate import simpson
    t = np.linspace(0.0, np.pi, 8193)
    rng = np.random.default_rng(0)
    bodies = [Ellipse(b * k, b, phi)
              for b, k, phi in rng.uniform([0.1, 1.0, 0.0], [10.0, 8.0, np.pi], (300, 3))]
    bodies += [unit_square, Zonotope([2 / np.sqrt(3)] * 3)]
    for body in bodies:
        want = simpson(body.feret(t), x=t)
        assert perimeter_cauchy(body) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_mixed_area_with_zonotope(unit_square):
    seg = Zonotope([1.0], theta=[0.3])
    assert mixed_area_with_zonotope(Disk(1.0), seg) == pytest.approx(1.0, abs=1e-14)
    sq = Zonotope([1.0, 1.0])
    assert mixed_area_with_zonotope(unit_square, sq) == pytest.approx(1.0, abs=1e-12)
    zero = Zonotope([0.0], theta=[0.1])
    assert mixed_area_with_zonotope(unit_square, zero) == 0.0


def test_mixed_area_against_steiner_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        na, nb = rng.integers(2, 6), rng.integers(2, 6)
        za = Zonotope(rng.uniform(0.2, 2.0, na), theta=np.sort(rng.uniform(0, np.pi, na)))
        zb = Zonotope(rng.uniform(0.2, 2.0, nb), theta=np.sort(rng.uniform(0, np.pi, nb)))
        want = steiner_mixed_area(za.vertices(), zb.vertices())
        assert mixed_area_with_zonotope(za, zb) == pytest.approx(want, abs=1e-10)


def test_mixed_area_limit(unit_square):
    assert mixed_area_limit(unit_square, unit_square, 2) == pytest.approx(1.0, abs=1e-12)
    assert mixed_area_limit(Disk(1.0), Disk(1.0), 256) == pytest.approx(np.pi, abs=1e-3)
    squashed = Zonotope([0.0, 0.0])
    assert mixed_area_limit(unit_square, squashed, 2) == pytest.approx(0.0, abs=1e-14)


def test_width_dispatch_accepts_polygons(unit_square):
    # hausdorff between a body and the equivalent raw polygon is zero
    p = ConvexPolygon(unit_square.vertices)
    assert hausdorff_distance(unit_square, p) <= 1e-12
