"""Centrally symmetric zonotopes: Minkowski sums of centered segments.

A zonotope here is sum_i alpha_i * S_(theta_i + t) with face lengths
alpha_i >= 0, strictly increasing base directions theta_i in [0, pi), and a
rotation offset t.  Closed forms:

    H(eta) = sum_i alpha_i |sin(eta - t - theta_i)|
    U      = 2 * sum_i alpha_i
    A      = (1/2) * sum_{i,j} alpha_i alpha_j |sin(theta_i - theta_j)|

Between two neighbouring face directions H is one sinusoid: with
u = (eta - t) mod pi in the face interval i, theta_(i-1) <= u < theta_i,

    H(eta) = sin u * P_i - cos u * Q_i,
    P_i = sum_j s_ij alpha_j cos theta_j,  Q_i = sum_j s_ij alpha_j sin theta_j,

where s_ij = +1 for j < i and -1 for j >= i.  `feret` evaluates that form,
so its cost per angle does not grow with the number of faces.
"""

import numpy as np

from .bodies import (
    EDGE_RTOL,
    RTOL,
    SymmetricConvexBody,
    direction,
    is_regular_subdivision,
    regular_subdivision,
    require_finite,
    scaled_back,
)
from .errors import ParameterError
from .polygons import ConvexPolygon

#: |sin| entries that `area` evaluates at once: it goes through its faces in
#: row blocks of at most this many entries, so its temporaries stay near 2^20
#: floats however many faces there are.
_SIN_ENTRIES = 2**20


class Zonotope(SymmetricConvexBody):
    """Zonotope from face lengths, directions, and a rotation offset.

    Parameters
    ----------
    alpha : array_like
        Nonnegative face lengths (may be empty: the degenerate point).
    theta : array_like, optional
        Strictly increasing directions in [0, pi).  Defaults to the regular
        subdivision theta_i = (i-1)pi/n, in which case `regular` is True.
        Directions that `is_regular_subdivision` accepts are replaced by
        that grid and also set `regular`.
    t : float
        Rotation offset applied to every direction.
    """

    def __init__(self, alpha, theta=None, t=0.0):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        if alpha.ndim != 1:
            raise ParameterError("alpha must be a 1-D array")
        require_finite(alpha=alpha, theta=theta, t=t)
        if alpha.size and alpha.min() < 0.0:
            raise ParameterError(
                f"face lengths must be nonnegative (min was {alpha.min():.3e})"
            )
        if theta is not None:
            theta = np.atleast_1d(np.asarray(theta, dtype=float))
            if theta.shape != alpha.shape:
                raise ParameterError("theta and alpha must have the same length")
            if theta.size and (theta.min() < 0.0 or theta.max() >= np.pi):
                raise ParameterError("directions must lie in [0, pi)")
            if theta.size > 1 and np.any(np.diff(theta) <= 0.0):
                raise ParameterError("directions must be strictly increasing")
        self.regular = theta is None or is_regular_subdivision(theta)
        if self.regular:
            theta = regular_subdivision(len(alpha)) if len(alpha) else np.zeros(0)
        self.alpha = alpha
        self.theta = theta
        self.t = float(t)
        self.n = len(alpha)
        # P_i and Q_i of the module docstring, for i = 0..n, summed over
        # alpha * 2^-e with its max in [1/2, 1) so that no sum overflows
        self._exp = np.frexp(alpha.max(initial=0.0))[1]
        sides = np.ldexp(alpha, -self._exp) * np.stack([np.cos(theta), np.sin(theta)])
        zero = np.zeros((2, 1))
        self._p, self._q = (np.hstack([zero, np.cumsum(sides, axis=1)])
                            - np.hstack([np.cumsum(sides[:, ::-1], axis=1)[:, ::-1], zero]))

    def feret(self, eta):
        """sin u * P_i - cos u * Q_i at u = (eta - t) mod pi in face interval i,
        scaled back by 2^e; any shape of angles, a scalar for a scalar."""
        u = np.mod(np.asarray(eta, dtype=float) - self.t, np.pi)
        i = np.searchsorted(self.theta, u, side="right")
        return np.ldexp(np.sin(u) * self._p[i] - np.cos(u) * self._q[i], self._exp)

    def perimeter(self):
        """2 * sum of face lengths."""
        return 2.0 * float(self.alpha.sum())

    def _faces(self):
        """(alpha, theta) of the faces longer than EDGE_RTOL * sum(alpha)."""
        keep = self.alpha > EDGE_RTOL * float(self.alpha.sum())
        return self.alpha[keep], self.theta[keep]

    def area(self):
        """(1/2) sum_{i,j} alpha_i alpha_j |sin(theta_i - theta_j)|.

        Summed over the faces `vertices` keeps, their lengths times 2^-e that
        brings their max into [1/2, 1), exactly, then scaled back by 2^2e; an
        area beyond the float range raises ParameterError.  The sum goes by
        row blocks of the |sin| matrix.
        """
        alpha, theta = self._faces()
        e = np.frexp(alpha.max(initial=0.0))[1]
        a = np.ldexp(alpha, -e)
        rows = max(_SIN_ENTRIES // max(len(a), 1), 1)
        area = 0.5 * sum(float(a[i:i + rows] @ np.abs(np.sin(theta[i:i + rows, None]
                                                            - theta[None, :])) @ a)
                         for i in range(0, len(a), rows))
        return float(scaled_back("zonotope area", area, 2 * e))

    def vertices(self):
        """Boundary vertices as a counterclockwise ConvexPolygon.

        Faces of length at most EDGE_RTOL * sum(alpha) are dropped as
        roundoff (they would repeat a vertex); an empty or all-zero zonotope
        collapses to the origin, a single face to a segment.
        """
        alpha, theta = self._faces()
        if len(alpha) == 0:
            return ConvexPolygon([[0.0, 0.0]])
        theta = theta + self.t
        edges = alpha[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        v0 = -0.5 * edges.sum(axis=0)
        half = np.vstack([v0, v0 + np.cumsum(edges, axis=0)[:-1]])
        return ConvexPolygon(np.vstack([half, -half]))

    def rotated(self, angle):
        """Same face lengths with the rotation offset advanced by `angle`."""
        return Zonotope(self.alpha, None if self.regular else self.theta, self.t + angle)

    def __repr__(self):
        tag = "regular, " if self.regular else ""
        return f"Zonotope(n={self.n}, {tag}t={self.t:.6g})"


def point_in_zonotope(point, z):
    """Slab test: |<p, u(eta)>| <= H(eta)/2 + RTOL * max H at every face
    direction eta = theta_i + t; a zonotope without faces is the origin."""
    p = np.asarray(point, dtype=float)
    if z.n == 0:
        return bool(np.hypot(p[0], p[1]) == 0.0)
    ang = z.theta + z.t
    h = z.feret(ang)
    return bool(np.all(np.abs(direction(ang) @ p) <= 0.5 * h + RTOL * h.max()))
