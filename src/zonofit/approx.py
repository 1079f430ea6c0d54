"""Zonotope approximation of symmetric convex bodies from Feret samples.

The interpolation route solves F alpha = H on the regular n-direction grid;
the rotation-optimized route additionally searches the grid offset that
minimizes the Hausdorff distance to the target.  The distance kernel
evaluates blocks of offsets at once: one circulant solve for all their
interpolants and their widths on the sup grid as one FFT circular
convolution, written into a workspace that each kernel allocates once.  One
golden section search then refines the sups of up to _LANES offsets in
lockstep.  The offset scan calls the kernel once on a grid of offsets, then
refines the best and the worst grid offset to OFFSET_ANGLE_TOL by a section
search whose every step is one kernel call on _BLOCK probes of each bracket.
"""

import numpy as np

from .bodies import RTOL, regular_subdivision
from .circulant import feret_matrix
from .errors import ParameterError
from .metrics import SUP_ANGLE_TOL, SUP_GRID_SIZE, golden_section_max, hausdorff_distance
from .zonotopes import Zonotope

#: Width in radians below which the offset scan stops narrowing its brackets.
OFFSET_ANGLE_TOL = 1e-6

#: Offsets the kernel evaluates together, and the probes of one section-search
#: step; bounds the kernel's (block, sup grid) arrays.
_BLOCK = 16

#: Offsets whose sups one golden loop refines; bounds its (lanes, n) arrays.
_LANES = 256


def _interpolating_alpha(x, n, offset=0.0):
    """Face lengths whose zonotope matches H_x on the offset regular grid.

    For a 1-D array of offsets, returns an (n, offsets) array whose columns
    are the face lengths at each offset.  Non-finite Feret samples, and face
    lengths below -RTOL times the largest |H| sampled, raise ParameterError;
    roundoff above that is clipped to zero.
    """
    th = np.add.outer(regular_subdivision(n), np.asarray(offset, dtype=float))
    h = np.asarray(x.feret(th), dtype=float)
    if not np.all(np.isfinite(h)):
        raise ParameterError("Feret diameters must be finite")
    alpha = feret_matrix(n).solve(h)
    worst = float(np.min(alpha, initial=0.0))
    tol = RTOL * float(np.max(np.abs(h), initial=0.0))
    if worst < -tol:
        raise ParameterError(
            "samples are not the Feret diameters of a symmetric convex body "
            f"(face length {worst:.3e} < {-tol:.3e})"
        )
    return np.maximum(alpha, 0.0)


def c0_approximate(x, n):
    """Zonotope on the regular n-direction grid interpolating H_x at the grid angles.

    The result contains x and its Hausdorff distance from x obeys
    hausdorff_bound(n, diameter(x)).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2 directions, got {n!r}")
    return Zonotope(_interpolating_alpha(x, n))


def hausdorff_bound(n, diam):
    """A priori distance bound (6 + 2 sqrt(2)) sin(pi/2n) * diam for the grid zonotope."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2, got {n!r}")
    if diam < 0:
        raise ParameterError(f"diameter must be >= 0, got {diam}")
    return (6.0 + 2.0 * np.sqrt(2.0)) * np.sin(np.pi / (2.0 * n)) * float(diam)


def _distance_kernel(x, n):
    """distances(t): Hausdorff distance from x to its grid interpolant rotated
    by each offset in the array t.

    Sups over angle start on a regular grid of G = n 2^k points, the smallest
    such G >= SUP_GRID_SIZE (the metrics grid whenever n divides it).  There
    H_z(j pi/G) = sum_i alpha_i |sin((j - i G/n) pi/G - t)| is the circular
    convolution of the face lengths, upsampled by G/n, with a |sin| table
    whose rfft is the n-point DFT of alpha tiled.  Offsets go through this
    grid pass in blocks of _BLOCK, each filling rows of one workspace that the
    kernel allocates once: the table and the widths, (_BLOCK, G) floats, and
    the table's spectrum and the tiled DFT, (_BLOCK, G/2 + 1) complex.  The
    grid maxima of up to _LANES offsets are then refined by one golden
    section search in lockstep, and each is kept unless the refinement beats
    it.  Every call pays for one grid pass and one sup refinement, so the
    offset scan batches its probes: one call per section-search step.  The
    returned array is fresh, never a view of the workspace.
    """
    size = int(n)
    while size < SUP_GRID_SIZE:
        size *= 2
    eta = regular_subdivision(size)
    sin_eta, cos_eta = np.sin(eta), np.cos(eta)
    hx = np.asarray(x.feret(eta), dtype=float)
    theta = regular_subdivision(n)
    tiled = np.arange(size // 2 + 1) % n
    step = np.pi / size
    rows = _BLOCK
    table, widths = np.empty((rows, size)), np.empty((rows, size))
    spectrum, dft = np.empty((2, rows, size // 2 + 1), dtype=complex)

    def block(t):
        """(alpha, grid-peak angle, grid max of |H_x - H_z|) for the offsets t."""
        p = len(t)
        alpha = _interpolating_alpha(x, n, t)
        tab, wid, spec, tile = table[:p], widths[:p], spectrum[:p], dft[:p]
        np.multiply.outer(np.cos(t), sin_eta, out=tab)
        np.subtract(tab, np.multiply.outer(np.sin(t), cos_eta, out=wid), out=tab)
        np.abs(tab, out=tab)
        np.fft.rfft(tab, axis=1, out=spec)
        # tiled is in range; the default mode='raise' would buffer `out`
        np.take(np.fft.fft(alpha, axis=0).T, tiled, axis=1, out=tile, mode="clip")
        spec *= tile
        np.fft.irfft(spec, size, axis=1, out=wid)
        np.subtract(wid, hx, out=wid)
        np.abs(wid, out=wid)
        i = np.argmax(wid, axis=1)
        return alpha, eta[i], wid[np.arange(p), i]

    def refined(t):
        """Distances for the offsets t: the grid pass, then one golden loop."""
        p = len(t)
        # einsum sums a lone lane's terms in another order than many lanes'
        t = np.repeat(t, 2) if p == 1 else t
        parts = [block(t[s:s + rows]) for s in range(0, len(t), rows)]
        alpha, peak, grid_max = (np.concatenate(c, axis=-1) for c in zip(*parts))

        def gap(e):
            hz = np.einsum("pi,ip->p", np.abs(np.sin((e - t)[:, None] - theta)), alpha)
            return np.abs(np.asarray(x.feret(e), dtype=float) - hz)

        _, v = golden_section_max(gap, peak - step, peak + step, SUP_ANGLE_TOL)
        return 0.5 * np.where(grid_max >= v, grid_max, v)[:p]

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
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2 directions, got {n!r}")
    if not isinstance(grid_points, (int, np.integer)) or grid_points < 1:
        raise ParameterError(f"grid_points must be an integer >= 1, got {grid_points!r}")
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
    return [(t, Zonotope(_interpolating_alpha(x, n, t), t=t)) for t in tau.tolist()]


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
    """Hausdorff distance from x to its grid interpolant at each rotation offset."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ParameterError(f"need an integer n >= 2 directions, got {n!r}")
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
