"""Scale equivariance: results on s X are s^p times the results on X.

The fit and the moment map are homogeneous: the zonotope of s X is s times
the zonotope of X, distances, diameters and perimeters scale by s, areas and
second moments by s^2.  With s a power of two every floating-point step
scales exactly, so a result that depends on the units through a tolerance
shows up as a bitwise difference.
"""

import numpy as np
import pytest

from zonofit import (
    Disk,
    Ellipse,
    IsotropicZonotope,
    LogNormal,
    Segment,
    SymmetricPolygon,
    Zonotope,
    c0_approximate,
    central_from_feret,
    cinf_approximate,
    contains,
    deterministic_process_moments,
    diameter,
    empirical_moments,
    hausdorff_distance,
    regular_subdivision,
)
from zonofit.process import _nnls_central
from zonofit.simulate import feret_sample_block
from zonofit.zonotopes import point_in_zonotope

SCALES = [2.0**k for k in (-40, -20, 20, 40)]

_TILT = 0.4
_SQUARE = 0.5 * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) @ np.array(
    [[np.cos(_TILT), np.sin(_TILT)], [-np.sin(_TILT), np.cos(_TILT)]])

BODIES = {
    "ellipse_3_1": lambda s: Ellipse(3.0 * s, s, 0.3),
    "segment": lambda s: Segment(1.3 * s, 0.7),
    "tilted_square": lambda s: SymmetricPolygon(s * _SQUARE),
    "polygon_4": lambda s: SymmetricPolygon(
        s * np.array([[1.0, 0.2], [-0.3, 0.9], [-1.0, -0.2], [0.3, -0.9]])),
}

FITS = {
    "c0_16": lambda x: c0_approximate(x, 16),
    "c0_64": lambda x: c0_approximate(x, 64),
    "c0_256": lambda x: c0_approximate(x, 256),
    "cinf_16": lambda x: cinf_approximate(x, 16, grid_points=16)[1],
}


def _results(x, z):
    return {
        "alpha": z.alpha,
        "d_hausdorff": hausdorff_distance(x, z),
        "diameter": diameter(z),
        "perimeter": z.perimeter(),
        "area": z.area(),
        "vertex_count": len(z.vertices().vertices),
    }


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("fit", FITS)
@pytest.mark.parametrize("body", BODIES)
def test_fit_is_scale_equivariant_bit_for_bit(body, fit, s):
    x1, x = BODIES[body](1.0), BODIES[body](s)
    z1, z = FITS[fit](x1), FITS[fit](x)
    want, got = _results(x1, z1), _results(x, z)
    power = {"area": 2, "vertex_count": 0}
    for key, value in want.items():
        np.testing.assert_array_equal(got[key], s ** power.get(key, 1) * value, err_msg=key)
    assert z.t == z1.t
    half = Zonotope(0.5 * z.alpha, None if z.regular else z.theta, z.t)
    assert contains(z, x)
    assert not contains(half, x)


def _lognormal_table():
    model = IsotropicZonotope(16, LogNormal(16, sigma=0.3))
    return feret_sample_block(model, 16, 3, 0, 3000)


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("source", ["lognormal_table", "deterministic_64"])
def test_moment_maps_are_scale_equivariant_bit_for_bit(source, s):
    if source == "lognormal_table":
        h = _lognormal_table()
        m1, m = empirical_moments(h), empirical_moments(s * h)
    else:
        m1 = deterministic_process_moments(Ellipse(3.0, 1.0, 0.3), 64)
        m = deterministic_process_moments(Ellipse(3.0 * s, s, 0.3), 64)
    theta = regular_subdivision(m.n)
    for route in (central_from_feret,
                  lambda p: _nnls_central(theta, p.second, float(p.mean.mean()), p.n)):
        c1, c = route(m1), route(m)
        assert c.mean_alpha == s * c1.mean_alpha
        np.testing.assert_array_equal(c.v_alpha, s * s * c1.v_alpha)
        assert c.psd_repaired == c1.psd_repaired
        if c1.stderr_v_alpha is not None:
            assert c.stderr_mean_alpha == s * c1.stderr_mean_alpha
            np.testing.assert_array_equal(c.stderr_v_alpha, s * s * c1.stderr_v_alpha)


def test_deterministic_moments_exercise_the_psd_repair():
    # the n = 64 case above keeps a repaired fit repaired at every scale
    m = deterministic_process_moments(Ellipse(3.0, 1.0, 0.3), 64)
    assert central_from_feret(m).psd_repaired


class TestTinyBody:
    """A 3e-12 x 1e-12 ellipse: absolute tolerances would swamp it."""

    x = Ellipse(3e-12, 1e-12)

    def test_half_size_fit_does_not_contain_it(self):
        z = c0_approximate(self.x, 8)
        assert contains(z, self.x)
        assert not contains(Zonotope(0.5 * z.alpha), self.x)

    def test_point_ten_semiaxes_out_is_outside(self):
        z = c0_approximate(self.x, 8)
        assert point_in_zonotope((0.0, 0.0), z)
        assert not point_in_zonotope((0.0, 3e-11), z)

    def test_every_face_is_a_vertex_pair(self):
        assert len(c0_approximate(self.x, 8).vertices().vertices) == 16


@pytest.mark.parametrize("x", [Disk(0.0), Segment(0.0, 0.3), Ellipse(0.0, 0.0)],
                         ids=["disk", "segment", "ellipse"])
def test_zero_size_bodies_fit_the_point(x):
    for z in (c0_approximate(x, 8), cinf_approximate(x, 8, grid_points=8)[1]):
        np.testing.assert_array_equal(z.alpha, np.zeros(8))
        np.testing.assert_array_equal(z.vertices().vertices, [[0.0, 0.0]])
        assert hausdorff_distance(x, z) == 0.0
        assert contains(z, x)
        assert point_in_zonotope((0.0, 0.0), z)
