import tracemalloc

import numpy as np
import pytest

from zonofit import (
    MinkowskiSum,
    ParameterError,
    Segment,
    SymmetricPolygon,
    Zonotope,
    c0_approximate,
    point_in_zonotope,
    regular_subdivision,
)

HEX_ALPHA = [2 / np.sqrt(3)] * 3


def test_constructor_validation():
    with pytest.raises(ParameterError):
        Zonotope([1.0, -0.5])
    with pytest.raises(ParameterError):
        Zonotope([1.0, 1.0], theta=[0.5, 0.5])  # not strictly increasing
    with pytest.raises(ParameterError):
        Zonotope([1.0, 1.0], theta=[0.0, np.pi])  # out of [0, pi)
    with pytest.raises(ParameterError):
        Zonotope([1.0, 1.0, 1.0], theta=[0.0, 1.0])
    assert Zonotope([1.0, 1.0]).regular
    assert not Zonotope([1.0, 1.0], theta=[0.0, 1.0]).regular


def test_empty_zonotope_is_the_origin():
    z = Zonotope([])
    th = np.linspace(0.0, np.pi, 12).reshape(3, 4)
    np.testing.assert_array_equal(z.feret(th), np.zeros((3, 4)))
    assert np.shape(z.feret(0.3)) == ()
    assert z.feret(0.3) == 0.0
    assert z.area() == 0.0
    assert point_in_zonotope([0.0, 0.0], z)


def test_feret_known_values():
    sq = Zonotope([1.0, 1.0])
    assert sq.feret(np.pi / 4) == pytest.approx(np.sqrt(2), abs=1e-12)
    assert sq.feret(0.0) == pytest.approx(1.0, abs=1e-15)
    assert Zonotope([2.0], theta=[0.8]).feret(0.8) == pytest.approx(0.0, abs=1e-15)


def test_feret_matches_segment_sum_route():
    rng = np.random.default_rng(5)
    th = np.linspace(0, np.pi, 33)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        alpha = rng.uniform(0.0, 2.0, n)
        angles = np.sort(rng.uniform(0, np.pi, n))
        angles += np.linspace(0, 1e-6, n)  # keep strictly increasing
        z = Zonotope(alpha, theta=angles)
        segs = MinkowskiSum([Segment(a, t) for a, t in zip(alpha, angles)])
        assert np.allclose(z.feret(th), segs.feret(th), atol=1e-12)


def test_rotation_offset():
    z = Zonotope([1.0, 2.0, 0.5])
    zr = z.rotated(0.4)
    th = np.linspace(0, np.pi, 15)
    assert np.allclose(zr.feret(th), z.feret(th - 0.4), atol=1e-12)
    assert zr.t == pytest.approx(z.t + 0.4)


def test_perimeter():
    assert Zonotope([1.0, 1.0]).perimeter() == pytest.approx(4.0, abs=1e-15)
    hexagon = Zonotope(HEX_ALPHA)
    assert hexagon.perimeter() == pytest.approx(4 * np.sqrt(3), abs=1e-12)
    # Cauchy quadrature of its own width function agrees
    from zonofit import perimeter_cauchy
    assert perimeter_cauchy(hexagon) == pytest.approx(4 * np.sqrt(3), abs=1e-9)
    assert Zonotope([]).perimeter() == 0.0


def test_area():
    assert Zonotope([1.0, 1.0]).area() == pytest.approx(1.0, abs=1e-15)
    assert Zonotope(HEX_ALPHA).area() == pytest.approx(2 * np.sqrt(3), abs=1e-12)
    assert Zonotope([3.0], theta=[1.0]).area() == 0.0


def test_many_faces_bound_the_temporaries():
    # feret and area go by row blocks of the |sin| matrix: at n = 4096 one
    # (4096, 4096) matrix would take 128 MB, a block 8 MB
    z = Zonotope(np.linspace(1.0, 2.0, 4096), t=0.3)
    eta = regular_subdivision(4096)
    tracemalloc.start()
    try:
        h = z.feret(eta)
        area = z.area()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    np.testing.assert_allclose(h[::97], [z.feret(e) for e in eta[::97]], rtol=1e-12, atol=0)
    assert area == pytest.approx(z.vertices().area(), rel=1e-9)


def test_blocked_feret_keeps_the_angle_shape():
    z = Zonotope(np.linspace(1.0, 2.0, 4096))
    eta = np.linspace(0.0, 3.0, 600).reshape(2, 300)
    h = z.feret(eta)
    assert h.shape == (2, 300)
    np.testing.assert_allclose(h[1, ::50], [z.feret(e) for e in eta[1, ::50]], rtol=1e-12,
                               atol=0)


def _dense_feret(z, eta):
    """sum_i alpha_i |sin(eta - t - theta_i)| through the (angles, faces) matrix."""
    return np.abs(np.sin(np.subtract.outer(eta, z.theta) - z.t)) @ z.alpha


def test_feret_matches_the_dense_face_sum():
    # the per-interval sinusoid against the face sum, on regular and irregular
    # directions with faces spanning several decades, at every face direction
    # and its pi-shifts, and at random angles and offsets within 2 pi
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(1, 300))
        alpha = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-4, 4, n)
        theta = None if trial % 2 else np.sort(rng.choice(
            np.linspace(0.0, np.pi, 4 * n, endpoint=False), n, replace=False))
        z = Zonotope(alpha, theta=theta, t=rng.uniform(-2 * np.pi, 2 * np.pi))
        faces = np.add.outer(np.arange(-3, 3) * np.pi, z.theta + z.t).ravel()
        eta = np.concatenate([faces[np.abs(faces) <= 2 * np.pi],
                              rng.uniform(-2 * np.pi, 2 * np.pi, 200)])
        err = np.abs(z.feret(eta) - _dense_feret(z, eta)).max()
        assert err <= 16 * (n + 1) * np.finfo(float).eps * alpha.sum()


def test_feret_of_a_scalar_angle_is_a_scalar():
    z = Zonotope([0.7, 1.3, 0.4], theta=[0.1, 1.2, 2.5], t=0.05)
    assert np.shape(z.feret(0.3)) == ()


def test_feret_builds_no_angles_by_faces_array():
    # 65536 angles at n = 8192: one (angles, faces) block of 2^20 |sin|
    # entries alone is 8 MB, the per-interval sinusoid a few angle arrays
    z = Zonotope(np.linspace(1.0, 2.0, 8192), t=0.3)
    eta = np.linspace(-7.0, 7.0, 65536)
    tracemalloc.start()
    try:
        h = z.feret(eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    np.testing.assert_allclose(h[::4099], _dense_feret(z, eta[::4099]), rtol=1e-11)


def test_vertices_known_shapes():
    sq = Zonotope([1.0, 1.0]).vertices()
    got = sorted(map(tuple, np.round(sq.vertices, 12)))
    assert got == [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]
    assert len(Zonotope(HEX_ALPHA).vertices().vertices) == 6
    seg = Zonotope([1.0, 0.0]).vertices()
    assert len(seg.vertices) == 2


def tilted_square_vertices(side, tilt):
    c, d = 0.5 * side * np.cos(tilt), 0.5 * side * np.sin(tilt)
    return [[c - d, d + c], [-c - d, -d + c], [-c + d, -d - c], [c + d, d - c]]


def test_vertices_drop_roundoff_faces():
    # The interpolating zonotope of a tilted square at n = 8 has two pairs of
    # real faces and entries of roundoff size (~1e-16) elsewhere.
    z = c0_approximate(SymmetricPolygon(tilted_square_vertices(1.0, 0.3)), 8)
    assert 0.0 < z.alpha[z.alpha < 1e-12].max() < 1e-14
    poly = z.vertices()
    assert len(poly.vertices) == 8
    assert poly.area() == pytest.approx(z.area(), abs=1e-12)
    for th in np.linspace(0, np.pi, 9):
        assert poly.feret(th) == pytest.approx(float(z.feret(th)), abs=1e-12)


def test_vertices_consistent_with_widths_and_area():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        z = Zonotope(rng.uniform(0.1, 2.0, n),
                     theta=np.sort(rng.uniform(0, np.pi, n)) * 0.999,
                     t=rng.uniform(0, np.pi))
        poly = z.vertices()
        assert poly.area() == pytest.approx(z.area(), abs=1e-12)
        for th in np.linspace(0, np.pi, 9):
            assert poly.feret(th) == pytest.approx(float(z.feret(th)), abs=1e-12)


def test_point_membership():
    z = Zonotope([1.0, 1.0], t=0.3)
    assert point_in_zonotope([0.0, 0.0], z)
    assert not point_in_zonotope([2.0, 2.0], z)
    v = z.vertices().vertices[0]
    assert point_in_zonotope(v, z)  # boundary point, inside up to tol
