"""Symmetric convex bodies known through their Feret (caliper) diameter.

The Feret diameter H(theta) of a planar convex body is its width in the
direction u(theta) = (-sin theta, cos theta), i.e. the distance between the
two supporting lines orthogonal to u(theta).  For a body that is symmetric
about the origin, H = 2h where h is the support function, H is pi-periodic,
and H determines the body.  Every shape here evaluates H on scalar or array
angles; `feret` is the whole interface of a body.
"""

import numpy as np

from .errors import ParameterError, SymmetryError

#: Roundoff levels of the whole package.  A tolerance on a length, an area or
#: a moment is a level times the magnitude of the data the checked value was
#: computed from, so a check answers alike for a body and its scaled copies.
EDGE_RTOL = 1e-12  # a face, edge or vertex gap that roundoff could make
RTOL = 1e-9  # a computed value that meets its constraint up to roundoff
SPECTRAL_RTOL = 1e-8  # eigenvalues and palindromes of FFT-computed moments
SINGULAR_RTOL = 1e-12  # a circulant eigenvalue this small against the largest
#: Angles do not scale: their tolerances are absolute radians.
GRID_ANGLE_TOL = 1e-9  # an angle this close to the regular grid lies on it
ANGLE_TOL = 1e-12  # angles this close are one: edge directions, lags, range ends


def require_finite(**values):
    """Raise ParameterError naming the first given value with a NaN or infinite entry."""
    for name, x in values.items():
        if x is not None and not np.all(np.isfinite(np.asarray(x, dtype=float))):
            raise ParameterError(f"{name} must be finite")


def feret_values(name, feret, *args):
    """feret(*args) as a float array; a NaN or an overflow to inf raises
    ParameterError naming `name`, before numpy warns about it.  The fits'
    Feret samples and every Monte-Carlo sample block go through here."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.asarray(feret(*args), dtype=float)
    require_finite(**{name: h})
    return h


def require_count(name, value, least):
    """Raise ParameterError naming `name` unless value is an integer >= least:
    a Python or numpy integer, neither a bool nor a float such as 4.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def direction(theta):
    """Unit direction u(theta) = (-sin theta, cos theta), stacked on the last axis."""
    t = np.asarray(theta, dtype=float)
    return np.stack([-np.sin(t), np.cos(t)], axis=-1)


def caliper_width(points, theta):
    """Width of a point set along u(theta): the spread of its projections.

    Elementwise, so the bits of one angle's width never depend on the shape
    of the angle array, as a matmul's can.
    """
    u = direction(theta)
    proj = u[..., :1] * points[:, 0] + u[..., 1:] * points[:, 1]
    return proj.max(axis=-1) - proj.min(axis=-1)


def regular_subdivision(n):
    """Angles theta_i = (i-1)*pi/n for i = 1..n."""
    require_count("subdivision size", n, 1)
    return np.arange(n) * (np.pi / float(n))


def is_regular_subdivision(theta):
    """True when theta is a nonempty 1-D array of n angles, each within
    GRID_ANGLE_TOL of its regular_subdivision(n) value (i-1)*pi/n."""
    theta = np.asarray(theta, dtype=float)
    return bool(theta.ndim == 1 and theta.size and np.all(
        np.abs(theta - regular_subdivision(theta.size)) <= GRID_ANGLE_TOL))


def face_lengths(h, gaps):
    """Face lengths of the zonotope whose Feret diameters are h, along axis 0,
    at m >= 2 angles sorted mod pi; gaps are the cyclic gaps g_k from angle k
    to k + 1, the last to the first plus pi, or pi/m on the regular grid.

    Between neighbouring angles the zonotope's Feret function is the sinusoid
    through their two values, and a face is the slope jump at its angle:
    a_k = [H_(k-1) sin g_k + H_(k+1) sin g_(k-1) - H_k sin(g_(k-1) + g_k)]
    / (2 sin g_(k-1) sin g_k), the surface-area measure h + h'' of the
    samples.  No symmetric convex body has the diameters h if some a_k < 0.
    """
    h = np.asarray(h, dtype=float)
    require_count("n", len(h), 2)
    # concatenations, not np.roll, whose overhead is most of a small call
    g = (np.zeros(len(h)) + gaps).reshape((-1,) + (1,) * (h.ndim - 1))
    g_prev = np.concatenate([g[-1:], g[:-1]])
    s, s_prev = np.sin(g), np.sin(g_prev)
    return ((np.concatenate([h[-1:], h[:-1]]) * s + np.concatenate([h[1:], h[:1]]) * s_prev
             - h * np.sin(g_prev + g)) / (2.0 * s_prev * s))


class SymmetricConvexBody:
    """Base class: a centrally symmetric convex set evaluated via H(theta)."""

    def feret(self, theta):
        """Feret diameter at angle(s) theta; returns a scalar for scalar input."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}>"


class Segment(SymmetricConvexBody):
    """Centered segment of given length along direction `angle`.

    H(theta) = length * |sin(angle - theta)|.
    """

    def __init__(self, length, angle=0.0):
        if length < 0:
            raise ParameterError(f"segment length must be >= 0, got {length}")
        self.length = float(length)
        self.angle = float(angle)
        require_finite(length=self.length, angle=self.angle)

    def feret(self, theta):
        return self.length * np.abs(np.sin(self.angle - np.asarray(theta, dtype=float)))

    def __repr__(self):
        return f"Segment(length={self.length}, angle={self.angle})"


class Disk(SymmetricConvexBody):
    """Centered disk of radius r; H is the constant 2r."""

    def __init__(self, r):
        if r < 0:
            raise ParameterError(f"disk radius must be >= 0, got {r}")
        self.r = float(r)
        require_finite(r=self.r)

    def feret(self, theta):
        return np.full_like(np.asarray(theta, dtype=float), 2.0 * self.r)

    def __repr__(self):
        return f"Disk(r={self.r})"


class Ellipse(SymmetricConvexBody):
    """Centered ellipse with semiaxes (a, b); the a-axis points along `phi`.

    H(theta) = 2 * sqrt(a^2 sin^2(theta - phi) + b^2 cos^2(theta - phi)).
    """

    def __init__(self, a, b, phi=0.0):
        if a < 0 or b < 0:
            raise ParameterError(f"ellipse semiaxes must be >= 0, got ({a}, {b})")
        self.a = float(a)
        self.b = float(b)
        self.phi = float(phi)
        require_finite(a=self.a, b=self.b, phi=self.phi)
        # rounding is monotone, so every (a sin)^2 + (b cos)^2 of `feret`
        # stays at most a^2 + b^2: finite here, finite at every angle
        if np.isinf(self.a * self.a + self.b * self.b):
            raise ParameterError(f"ellipse semiaxes ({self.a:.3e}, {self.b:.3e}) are too "
                                 "large: a^2 + b^2 overflows a float")

    def feret(self, theta):
        t = np.asarray(theta, dtype=float) - self.phi
        return 2.0 * np.sqrt((self.a * np.sin(t)) ** 2 + (self.b * np.cos(t)) ** 2)

    def __repr__(self):
        return f"Ellipse(a={self.a}, b={self.b}, phi={self.phi})"


class SymmetricPolygon(SymmetricConvexBody):
    """Convex polygon that is centrally symmetric about its vertex centroid.

    The construction recenters the vertices on the centroid and rejects vertex
    sets that do not match their own point reflection within RTOL times the
    largest recentered vertex norm.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 2:
            raise ParameterError("polygon needs an (m, 2) vertex array with m >= 2")
        require_finite(vertices=v)
        # with M the largest |coordinate|, the centroid's sums stay within
        # m M, and the symmetry test's and the widths' within 8 M: past
        # either bound a float overflows
        extent = float(np.abs(v).max())
        if np.isinf(extent * max(len(v), 8)):
            raise ParameterError(f"polygon vertex coordinates up to {extent:.3e} are too "
                                 "large: its centroid or widths overflow a float")
        center = v.mean(axis=0)
        v = v - center
        tol = RTOL * float(np.hypot(v[:, 0], v[:, 1]).max())
        for p in v:
            if np.min(np.hypot(v[:, 0] + p[0], v[:, 1] + p[1])) > tol:
                raise SymmetryError(
                    "vertex set is not centrally symmetric within tolerance "
                    f"{tol:.3e} (offending vertex {p + center})"
                )
        self.vertices = v
        self.center = center

    def feret(self, theta):
        return caliper_width(self.vertices, theta)

    def __repr__(self):
        return f"SymmetricPolygon({len(self.vertices)} vertices)"


class MinkowskiSum(SymmetricConvexBody):
    """Minkowski sum of symmetric bodies; H is the sum of the parts' H."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ParameterError("minkowski_sum needs at least one part")
        self.parts = parts

    def feret(self, theta):
        t = np.asarray(theta, dtype=float)
        total = np.zeros_like(t)
        for p in self.parts:
            total = total + p.feret(t)
        return total

    def __repr__(self):
        return f"MinkowskiSum({self.parts!r})"


class Rotated(SymmetricConvexBody):
    """Body rotated counterclockwise by `angle`: H(theta) = H_base(theta - angle)."""

    def __init__(self, body, angle):
        self.body = body
        self.angle = float(angle)
        require_finite(angle=self.angle)

    def feret(self, theta):
        return self.body.feret(np.asarray(theta, dtype=float) - self.angle)

    def __repr__(self):
        return f"Rotated({self.body!r}, angle={self.angle})"


class Scaled(SymmetricConvexBody):
    """Body scaled by a real factor r: H(theta) = |r| * H_base(theta)."""

    def __init__(self, body, factor):
        self.body = body
        self.factor = float(factor)
        require_finite(factor=self.factor)

    def feret(self, theta):
        return abs(self.factor) * self.body.feret(theta)

    def __repr__(self):
        return f"Scaled({self.body!r}, factor={self.factor})"


class FeasibilityReport:
    """Outcome of checking sampled (angle, value) pairs against width axioms.

    Attributes hold the worst violation of each tested property and `scale`,
    the largest finite |value| sampled; `worst` aggregates the violations and
    `ok(tol)` bounds them by tol times `scale`.
    """

    def __init__(self, negativity, periodicity_gap, subadditivity, triples_checked, scale):
        self.negativity = float(negativity)
        self.periodicity_gap = float(periodicity_gap)
        self.subadditivity = float(subadditivity)
        self.triples_checked = int(triples_checked)
        self.scale = float(scale)

    @property
    def worst(self):
        return max(self.negativity, self.periodicity_gap, self.subadditivity)

    def ok(self, tol=RTOL):
        return self.worst <= tol * self.scale

    def __repr__(self):
        return (
            f"FeasibilityReport(negativity={self.negativity:.3e}, "
            f"periodicity_gap={self.periodicity_gap:.3e}, "
            f"subadditivity={self.subadditivity:.3e}, "
            f"triples_checked={self.triples_checked}, scale={self.scale:.3e})"
        )


def feret_feasibility_check(samples, angle_tol=1e-9):
    """Check whether sampled Feret values could come from a symmetric convex body.

    `samples` is a sequence of (angle, value) pairs.  Sorted mod pi, angles
    within `angle_tol` of their neighbour form a run, whose values must agree
    (pi-periodicity) and whose first sample in input order stands for it.
    With three or more runs each value H_k is tested against S_k, the
    sinusoid through its neighbours' values: H_k <= S_k is `face_lengths`
    a_k >= 0 in units of H, and exact, as the faces a_k match every run.

    Returns a FeasibilityReport with worst violation magnitudes, the number
    of neighbour triples tested and the largest finite |value|, the scale
    its `ok` measures them by.  An infinite value makes `subadditivity`
    infinite, NaN values never raise a violation, and non-finite angles
    raise ParameterError.
    """
    pairs = [(float(a), float(v)) for a, v in samples]
    if not pairs:
        raise ParameterError("need at least one sample")
    ang, val = np.array(pairs).T
    require_finite(**{"sample angles": ang})

    negativity = float(np.max(-val, initial=0.0, where=~np.isnan(val)))
    # an infinite value is no width: it fails subadditivity outright, and
    # below it is a NaN, which raises neither a violation nor a warning
    infinite = np.isinf(val)
    subadd = np.inf if infinite.any() else 0.0
    val = np.where(infinite, np.nan, val)

    # neighbours in angle mod pi, the last and first wrapping around
    red = np.mod(ang, np.pi)
    order = np.argsort(red)
    r, v = red[order], val[order]
    close = np.diff(r, append=r[0] + np.pi) <= angle_tol
    jumps = np.abs(np.diff(v, append=v[0]))
    periodicity = float(np.max(jumps, initial=0.0, where=close & (jumps > 0.0)))

    # each run's first sample in input order; the leading part of a run
    # wrapping past pi is numbered -1, the last run
    run = np.cumsum(~np.roll(close, 1)) - 1
    first = np.full(max(run[-1] + 1, 1), len(pairs))
    np.minimum.at(first, run, order)
    triples = len(first) if len(first) >= 3 else 0
    if triples:
        g = np.mod(np.roll(red[first], -1) - red[first], np.pi)
        g_prev = np.roll(g, 1)
        excess = -face_lengths(val[first], g) * (
            2.0 * np.sin(g_prev) * np.sin(g) / np.sin(g_prev + g))
        subadd = max(subadd, float(np.max(excess, initial=0.0, where=excess > 0.0)))

    scale = float(np.max(np.abs(val), initial=0.0, where=np.isfinite(val)))
    return FeasibilityReport(negativity, periodicity, subadd, triples, scale)
