"""Convex polygons: Minkowski sums by edge merging and shoelace areas.

These run independently of the Feret machinery and serve as the geometric
cross-check route for mixed-area and zonotope computations.
"""

import numpy as np

from .bodies import ANGLE_TOL, EDGE_RTOL, caliper_width
from .errors import ParameterError


class ConvexPolygon:
    """Convex polygon with counterclockwise vertices; 1 or 2 vertices allowed.

    Vertices must be in convex position and ordered counterclockwise.  With
    s the largest vertex coordinate magnitude, cross products of consecutive
    edges must be >= -EDGE_RTOL * s^2, and consecutive vertices more than
    EDGE_RTOL * s apart.  Degenerate inputs (a point or a segment) are
    accepted so Minkowski sums compose.
    """

    def __init__(self, vertices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        if v.ndim != 2 or v.shape[1] != 2 or len(v) == 0:
            raise ParameterError("polygon needs an (m, 2) vertex array")
        scale = float(np.abs(v).max())
        if len(v) >= 2:
            d = np.diff(np.vstack([v, v[:1]]), axis=0)
            if np.any(np.hypot(d[:, 0], d[:, 1]) <= EDGE_RTOL * scale):
                raise ParameterError("repeated consecutive vertices")
        if len(v) >= 3:
            e = np.diff(np.vstack([v, v[:2]]), axis=0)
            cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
            if np.any(cross < -EDGE_RTOL * scale**2):
                raise ParameterError("vertices are not in counterclockwise convex position")
        self.vertices = v

    def area(self):
        """Shoelace area; 0 for degenerate polygons."""
        v = self.vertices
        if len(v) < 3:
            return 0.0
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def feret(self, theta):
        """Feret (caliper) diameter along u(theta) = (-sin theta, cos theta)."""
        return caliper_width(self.vertices, theta)

    def perimeter(self):
        v = self.vertices
        if len(v) < 2:
            return 0.0
        d = np.diff(np.vstack([v, v[:1]]), axis=0)
        edges = np.hypot(d[:, 0], d[:, 1])
        if len(v) == 2:
            return float(edges[0] * 2.0)
        return float(edges.sum())

    def __repr__(self):
        return f"ConvexPolygon({len(self.vertices)} vertices)"


def _edge_loop(p):
    """Edge vectors of a polygon as a CCW loop starting at its bottom-most vertex.

    Returns (start_vertex, edges).  A point has no edges; a segment becomes a
    degenerate 2-gon with two opposite edges.
    """
    v = p.vertices
    if len(v) == 1:
        return v[0], np.zeros((0, 2))
    start = int(np.lexsort((v[:, 0], v[:, 1]))[0])
    rolled = np.roll(v, -start, axis=0)
    if len(v) == 2:
        e = rolled[1] - rolled[0]
        return rolled[0], np.array([e, -e])
    edges = np.diff(np.vstack([rolled, rolled[:1]]), axis=0)
    return rolled[0], edges


def minkowski_sum_polygons(p, q):
    """Minkowski sum of two convex polygons by merging edges in angular order.

    Edges of both polygons, each sorted by polar angle starting at the
    bottom-most vertex, are merged; parallel edges are combined.  The result
    starts at the sum of the two bottom-most vertices and is convex by
    construction.
    """
    if not isinstance(p, ConvexPolygon) or not isinstance(q, ConvexPolygon):
        raise ParameterError("minkowski_sum_polygons expects ConvexPolygon inputs")
    p0, pe = _edge_loop(p)
    q0, qe = _edge_loop(q)
    edges = np.vstack([pe, qe])
    if len(edges) == 0:
        return ConvexPolygon([p0 + q0])
    ang = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * np.pi)
    order = np.argsort(ang, kind="stable")
    edges, ang = edges[order], ang[order]
    # combine runs of parallel edges
    merged = [edges[0].copy()]
    for k in range(1, len(edges)):
        if abs(ang[k] - ang[k - 1]) <= ANGLE_TOL:
            merged[-1] += edges[k]
        else:
            merged.append(edges[k].copy())
    merged = np.array(merged)
    verts = (p0 + q0) + np.vstack([np.zeros(2), np.cumsum(merged, axis=0)[:-1]])
    return ConvexPolygon(verts)
