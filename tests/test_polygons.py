import numpy as np
import pytest

from zonofit import (
    ConvexPolygon,
    ParameterError,
    SymmetricPolygon,
    Zonotope,
    minkowski_sum_polygons,
)

SQ = ConvexPolygon([[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]])


def test_validation():
    with pytest.raises(ParameterError):
        ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])  # clockwise
    with pytest.raises(ParameterError):
        ConvexPolygon([[0, 0], [1, 0], [1, 0], [0, 1]])  # repeated vertex
    # degenerate 1- and 2-gons are allowed as Minkowski building blocks
    ConvexPolygon([[0.0, 0.0]])
    ConvexPolygon([[-1.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertices(bad):
    # every comparison with NaN is false, so the shape checks alone pass it
    with pytest.raises(ParameterError, match="vertices must be finite"):
        ConvexPolygon([[bad, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_area_and_perimeter():
    assert SQ.area() == pytest.approx(1.0, abs=1e-15)
    assert SQ.perimeter() == pytest.approx(4.0, abs=1e-12)
    assert ConvexPolygon([[-1.0, 0.0], [1.0, 0.0]]).area() == 0.0
    hexagon = Zonotope([2 / np.sqrt(3)] * 3).vertices()
    assert hexagon.area() == pytest.approx(2 * np.sqrt(3), abs=1e-12)


def test_width_matches_projection():
    for th in np.linspace(0, np.pi, 9):
        u = np.array([-np.sin(th), np.cos(th)])
        p = SQ.vertices @ u
        assert SQ.feret(th) == pytest.approx(p.max() - p.min(), abs=1e-14)


def test_feret_matches_symmetric_polygon_bitwise():
    # one caliper-width routine serves both polygon classes
    verts = Zonotope([0.7, 1.3, 0.4], theta=[0.1, 1.2, 2.5]).vertices().vertices
    th = np.linspace(-1.0, 4.0, 257)
    sym = SymmetricPolygon(verts)
    poly = ConvexPolygon(sym.vertices)
    np.testing.assert_array_equal(poly.feret(th), sym.feret(th))
    for t in th[:9]:
        assert poly.feret(t) == sym.feret(t)


def test_minkowski_sum_known_cases():
    s1 = ConvexPolygon([[-0.5, 0.0], [0.5, 0.0]])
    s2 = ConvexPolygon([[0.0, -0.5], [0.0, 0.5]])
    sq = minkowski_sum_polygons(s1, s2)
    assert sq.area() == pytest.approx(1.0, abs=1e-14)
    big = minkowski_sum_polygons(SQ, SQ)
    assert big.area() == pytest.approx(4.0, abs=1e-13)
    assert len(big.vertices) == 4  # parallel edges merged
    point = ConvexPolygon([[0.3, -0.2]])
    same = minkowski_sum_polygons(SQ, point)
    assert same.area() == pytest.approx(1.0, abs=1e-14)


def test_minkowski_sum_against_hull_oracle():
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(3)
    for _ in range(10):
        za = Zonotope(rng.uniform(0.2, 2.0, 3), theta=np.sort(rng.uniform(0, np.pi, 3)))
        zb = Zonotope(rng.uniform(0.2, 2.0, 4), theta=np.sort(rng.uniform(0, np.pi, 4)))
        pa, pb = za.vertices(), zb.vertices()
        s = minkowski_sum_polygons(pa, pb)
        cloud = (pa.vertices[:, None, :] + pb.vertices[None, :, :]).reshape(-1, 2)
        hull = ConvexHull(cloud)
        assert s.area() == pytest.approx(hull.volume, abs=1e-10)
        for th in np.linspace(0, np.pi, 7):
            assert s.feret(th) == pytest.approx(pa.feret(th) + pb.feret(th), abs=1e-10)


@pytest.mark.parametrize("exponent", [-1000, -300, 0, 300, 1000])
def test_checks_decide_alike_at_any_scale(exponent):
    # the checks run on the vertices scaled by a power of two, so no edge
    # length or cross product overflows, and scaled copies decide alike
    square = np.array([[0.5, -0.5], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]])
    dented = np.array([[0.5, -0.5], [0.0, -0.4], [0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]])
    ok = ConvexPolygon(np.ldexp(square, exponent))
    np.testing.assert_array_equal(ok.vertices, np.ldexp(square, exponent))
    with pytest.raises(ParameterError, match="convex position"):
        ConvexPolygon(np.ldexp(dented, exponent))
    with pytest.raises(ParameterError, match="repeated"):
        ConvexPolygon(np.ldexp(np.vstack([square[:1], square]), exponent))
