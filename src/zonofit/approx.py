"""Zonotope approximation of symmetric convex bodies from Feret samples.

The interpolation route is `face_lengths` on the regular n-direction grid;
the rotation-optimized route additionally searches the grid offset that
minimizes the Hausdorff distance to the target.  The distance kernel
evaluates blocks of offsets at once: one stencil pass for all their
interpolants, and their widths on the sup grid from the n node values of
each, one sinusoid per face interval at O(G) cost per offset, written into a
workspace that each kernel allocates once; its sups are the one search of
metrics, on up to _LANES offsets in lockstep, whose refinement evaluates the
same sinusoid at O(1) cost per offset and step.  So the kernel measures the
distance to the interpolant through the node samples.
The offset scan calls the kernel once on a grid of offsets, then refines the
best and the worst grid offset to OFFSET_ANGLE_TOL by a section search whose
every step is one kernel call on _BLOCK probes of each bracket.
"""

import numpy as np

from .bodies import (RTOL, face_lengths, feret_values, regular_subdivision, require_count,
                     require_finite)
from .errors import ParameterError
from .metrics import hausdorff_distance, refine_sup, sup_grid
from .zonotopes import Zonotope

#: Width in radians below which the offset scan stops narrowing its brackets.
OFFSET_ANGLE_TOL = 1e-6

#: Largest Feret diameter the fit takes: the stencil's sums, the offset scan's
#: sinusoids and the distances stay within 4 times the largest sample.
_FERET_LIMIT = np.finfo(float).max / 4.0

#: Offsets the kernel evaluates together, and the probes of one section-search
#: step; bounds the kernel's (block, sup grid) arrays.
_BLOCK = 16

#: Offsets whose sups one golden loop refines; bounds its (lanes, n) arrays.
_LANES = 256


def _interpolant(x, n, offset=0.0):
    """(node values, face lengths) of the zonotope matching H_x on the offset
    regular grid.

    The node values are H_x at the n grid angles.  For a 1-D array of
    offsets both are (n, offsets) arrays, one column per offset.  Non-finite
    Feret samples, samples above _FERET_LIMIT, and face lengths below -RTOL
    times the largest |H| sampled, raise ParameterError; roundoff above that
    is clipped to zero.
    """
    th = np.add.outer(regular_subdivision(n), np.asarray(offset, dtype=float))
    h = feret_values("Feret diameters", x.feret, th)
    scale = float(np.max(np.abs(h), initial=0.0))
    if scale > _FERET_LIMIT:
        raise ParameterError(f"Feret diameter {scale:.3e} is too large: the fit takes at "
                             f"most {_FERET_LIMIT:.3e}, a quarter of the float range")
    alpha = face_lengths(h, np.pi / n)
    worst = float(np.min(alpha, initial=0.0))
    tol = RTOL * scale
    if worst < -tol:
        raise ParameterError(
            "samples are not the Feret diameters of a symmetric convex body "
            f"(face length {worst:.3e} < {-tol:.3e})"
        )
    return h, np.maximum(alpha, 0.0)


def c0_approximate(x, n):
    """Zonotope on the regular n-direction grid interpolating H_x at the grid angles.

    The result contains x and its Hausdorff distance from x obeys
    hausdorff_bound(n, diameter(x)).
    """
    require_count("n", n, 2)
    return Zonotope(_interpolant(x, n)[1])


def hausdorff_bound(n, diam):
    """A priori distance bound (6 + 2 sqrt(2)) sin(pi/2n) * diam for the grid
    zonotope; a bound beyond the float range raises ParameterError."""
    require_count("n", n, 2)
    require_finite(diam=diam)
    if diam < 0:
        raise ParameterError(f"diameter must be >= 0, got {diam}")
    # a Python float product: an overflow gives inf, no warning
    bound = float((6.0 + 2.0 * np.sqrt(2.0)) * np.sin(np.pi / (2.0 * n))) * float(diam)
    if np.isinf(bound):
        raise ParameterError(f"Hausdorff bound of diameter {float(diam):.3e} at n = {n} "
                             "overflows a float")
    return bound


def _distance_kernel(x, n):
    """distances(t): Hausdorff distance from x to its grid interpolant rotated
    by each offset in the array t.

    Each sup is the metrics search on the G angles of `sup_grid(n)`.  Between
    two neighbouring face directions t + i pi/n and t + (i+1) pi/n the
    interpolant's Feret function is the one sinusoid through its node values
    h_i = H_x(theta_i + t) and h_(i+1), so the grid pass needs only the n
    node values of each offset, which the interpolant's stencil evaluates
    anyway.  With q = ceil(t G/pi) and delta = q pi/G - t, the grid angle of
    index (q + i G/n + l) mod G lies u = l pi/G + delta past node i, where
    H_z = h_i cos u + g_i sin u, g_i = (h_(i+1) - cos(pi/n) h_i) / sin(pi/n).
    By the addition formula that is a_i cos(l pi/G) + b_i sin(l pi/G), two
    products with fixed (G/n,) tables, so a pass costs O(G) per offset.
    Offsets go through it in blocks of _BLOCK, each filling rows of two
    (_BLOCK, G) float arrays that the kernel allocates once: the widths and
    H_x read from index q mod G on.  One `refine_sup` call then refines the
    grid maxima of up to _LANES offsets with the same formula: at an angle e
    it takes the face interval i of (e - t) mod pi and the offset u into it,
    so each step costs O(1) per offset.  The node values are the samples
    themselves, so the clip of roundoff-negative face lengths, below RTOL
    times max |H|, reaches neither pass: the distance is to the interpolant
    through the node samples, which the clipped zonotope's n-face Feret sum
    matches to roundoff growing like n^2 eps.  Every call pays for one grid
    pass and one sup refinement, so the offset scan batches its probes: one
    call per section-search step.  The returned array is fresh, never a view
    of the workspace.
    """
    eta = sup_grid(n)
    size = len(eta)
    step, face = np.pi / size, np.pi / n
    hx = feret_values("Feret diameters", x.feret, eta)
    wrapped = np.concatenate([hx, hx])
    cos_l, sin_l = np.cos(eta[:size // n]), np.sin(eta[:size // n])
    cos_n, sin_n = np.cos(face), np.sin(face)
    rows = _BLOCK
    widths, shifted = np.empty((2, rows, size))

    def block(t):
        """(h, g, grid-peak index, grid max of |H_x - H_z|) for the offsets t."""
        p = len(t)
        h = _interpolant(x, n, t)[0]
        q = np.ceil(t / step)
        delta = q * step - t
        q = np.mod(q, size).astype(np.intp)
        g = (np.roll(h, -1, axis=0) - cos_n * h) / sin_n
        cos_d, sin_d = np.cos(delta), np.sin(delta)
        wid, hxq = widths[:p], shifted[:p]
        np.multiply((h * cos_d + g * sin_d).T[:, :, None], cos_l,
                    out=wid.reshape(p, n, -1))
        np.multiply((g * cos_d - h * sin_d).T[:, :, None], sin_l,
                    out=hxq.reshape(p, n, -1))
        np.add(wid, hxq, out=wid)
        # hxq held the sine terms; now H_x from each row's index q on
        for row, start in zip(hxq, q.tolist()):
            row[:] = wrapped[start:start + size]
        np.subtract(wid, hxq, out=wid)
        np.abs(wid, out=wid)
        i = np.argmax(wid, axis=1)
        return h, g, (i + q) % size, wid[np.arange(p), i]

    def refined(t):
        """Distances for the offsets t: the grid pass, then one refinement."""
        parts = [block(t[s:s + rows]) for s in range(0, len(t), rows)]
        h, g, peak, grid_max = (np.concatenate(c, axis=-1) for c in zip(*parts))
        lanes = np.arange(len(t))

        def gap(e):
            u = np.mod(e - t, np.pi)
            i = np.minimum(u // face, n - 1).astype(np.intp)
            u -= i * face
            hz = h[i, lanes] * np.cos(u) + g[i, lanes] * np.sin(u)
            return np.abs(np.asarray(x.feret(e), dtype=float) - hz)

        return 0.5 * refine_sup(gap, eta, peak, grid_max)[1]

    def distances(t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty(flat.size)
        for s in range(0, flat.size, _LANES):
            out[s:s + _LANES] = refined(flat[s:s + _LANES])
        return out.reshape(t.shape)

    return distances


def _offset_scan(x, n, grid_points, signs):
    """Scan for `scan_offsets`: (tau, Zonotope) at the refined first grid max
    of sign * distance, for each sign, the signs searched in lockstep."""
    require_count("n", n, 2)
    require_count("grid_points", grid_points, 1)
    period = np.pi / n
    step = period / grid_points
    offsets = np.arange(grid_points) * step
    distances = _distance_kernel(x, n)
    signs = np.asarray(signs, dtype=float)
    objective = np.multiply.outer(signs, distances(offsets))
    i = np.argmax(objective, axis=1)
    tau, best = offsets[i], objective[np.arange(len(signs)), i]
    # each bracket's ends and _BLOCK evenly spaced probes between them; the
    # objective has period pi/n, so a bracket may reach past [0, pi/n) and
    # every bracket keeps the same width
    frac = np.arange(_BLOCK + 2) / (_BLOCK + 1)
    lo, width = tau - step, 2.0 * step
    while width > OFFSET_ANGLE_TOL:
        points = np.add.outer(lo, width * frac)
        probes = points[:, 1:-1] % period
        values = signs[:, None] * distances(probes)
        j = np.argmax(values, axis=1)
        r = np.arange(len(j))
        better = values[r, j] > best
        tau = np.where(better, probes[r, j], tau)
        best = np.where(better, values[r, j], best)
        lo, width = points[r, j], width * 2.0 / (_BLOCK + 1)
    return [(t, Zonotope(_interpolant(x, n, t)[1], t=t)) for t in tau.tolist()]


def scan_offsets(x, n, grid_points=256):
    """Best and worst rotation offsets: returns ((tau_best, d_best), (tau_worst, d_worst)).

    Evaluates the interpolant distance once at each of `grid_points` offsets
    over [0, pi/n) (the objective's period), then refines the first grid
    minimum and the first grid maximum to OFFSET_ANGLE_TOL by a section search:
    each step evaluates _BLOCK evenly spaced probes of both brackets in one
    kernel call and keeps the probes on either side of the first best one.
    A probe replaces the running offset only when it is strictly better, so
    ties break toward the smallest offset.  Each reported distance is
    hausdorff_distance of x and the interpolant at its offset.  The scan
    ranks offsets by the kernel's sup estimate, which can order a near-flat
    profile differently, so the best offset stays a candidate for the worst:
    d_worst >= d_best always holds.
    """
    best, worst = [(tau, hausdorff_distance(x, z))
                   for tau, z in _offset_scan(x, n, grid_points, (-1.0, 1.0))]
    return best, worst if worst[1] >= best[1] else best


def cinf_approximate(x, n, grid_points=256):
    """Best rotation of the grid zonotope: returns (tau, Zonotope with offset tau).

    The best offset of `scan_offsets`, without refining the worst one.  The
    returned distance never exceeds the unrotated interpolant's distance.
    """
    return _offset_scan(x, n, grid_points, (-1.0,))[0]


def offset_distances(x, n, offsets):
    """Hausdorff distance from x to its grid interpolant at each rotation offset.

    The interpolant is the one through H_x at the n offset grid angles; its
    `Zonotope`, whose face lengths are clipped at zero, has the same distance
    up to roundoff.
    """
    require_count("n", n, 2)
    return _distance_kernel(x, n)(offsets)


def worst_offset(x, n, grid_points=256):
    """Rotation offset maximizing the interpolant distance: returns (tau, distance).

    The worst offset of `scan_offsets`, so its distance is never below
    `cinf_approximate`'s.
    """
    return scan_offsets(x, n, grid_points)[1]


def contains(z, x):
    """True when the zonotope z contains the symmetric body x.

    Checks H_x <= H_z + RTOL * max H_z at the zonotope's face directions and
    on a 1024-point angle grid, max H_z over the same angles; sufficient in
    practice because H_z is piecewise trigonometric between faces.
    """
    angles = np.concatenate([z.theta + z.t, regular_subdivision(1024)])
    hx = np.asarray(x.feret(angles), dtype=float)
    hz = np.asarray(z.feret(angles), dtype=float)
    return bool(np.all(hx <= hz + RTOL * hz.max()))
