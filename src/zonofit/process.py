"""Second-order description of random symmetric convex sets via Feret processes.

The Feret diameters of a random symmetric convex body form a pi-periodic
random process H(theta).  For rotation-invariant (isotropic) bodies the
process is stationary, and for isotropic zonotopes on the regular direction
grid the first two moments of H determine the first two moments of the
central face-length vector through a circulant kernel matrix.  This module
implements both directions of that correspondence, the isotropization
averaging, and supporting diagnostics.
"""

import numpy as np

from .approx import hausdorff_bound
from .bodies import (ANGLE_TOL, EDGE_RTOL, RTOL, SPECTRAL_RTOL, face_lengths,
                     regular_subdivision, require_count, require_finite)
from .circulant import CirculantMatrix
from .errors import ParameterError, SolverError, UnderdeterminedError
from .nnls import nnls as _nnls_solve

#: points of the auxiliary grid on which isotropize_moments integrates a body
_ISOTROPIZE_GRID = 1024


def k_s(t):
    """Rotation-averaged product kernel of two unit segments at angular lag t.

    k_s(t) = (1/pi) * integral_0^pi |sin(t + z) sin(z)| dz, pi-periodic, even,
    with closed form (2 sin^3 t + cos t (pi - 2t + sin 2t)) / (2 pi) on [0, pi].
    """
    y = np.mod(np.asarray(t, dtype=float), np.pi)
    return (2.0 * np.sin(y) ** 3 + np.cos(y) * (np.pi - 2.0 * y + np.sin(2.0 * y))) / (
        2.0 * np.pi
    )


def k_matrix(n):
    """Circulant kernel matrix K(0) with entries k_s(theta_i - theta_j)."""
    require_count("n", n, 1)
    return CirculantMatrix(k_s(regular_subdivision(n)))


def _palindrome_index(n):
    """Index map d -> (n - d) mod n pairing each lag with its mirror."""
    return (-np.arange(n)) % n


def _stderr(name, value, shape):
    """value as a float array, or None: standard errors must have the shape
    of the moments they belong to and be nonnegative; finiteness is checked
    by require_finite with the moments."""
    if value is None:
        return None
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ParameterError(f"{name} has wrong shape {value.shape}")
    if value.min() < 0:
        raise ParameterError(f"{name} must be nonnegative")
    return value


def _symmetric(x):
    """Mean of x and its lag mirror x[(n - d) mod n]: exactly palindromic."""
    return 0.5 * (x + x[_palindrome_index(len(x))])


class FeretProcessMoments:
    """First and second moments of a Feret process on the regular angle grid.

    Held as measured: `stationarity_diagnostic` measures how far they are
    from stationary, and `central_from_feret` lag-averages them either way.

    Parameters
    ----------
    mean : (n,) array
        E[H(theta_i)].
    second : (n, n) array
        E[H(theta_i) H(theta_j)]; must be symmetric with nonnegative diagonal
        and satisfy the Cauchy-Schwarz inequality entrywise.
    stderr_mean, stderr_second : arrays or None
        Standard errors when the moments are Monte-Carlo estimates.

    Every entry of the four arrays must be finite: a NaN or infinite entry
    raises ParameterError naming its array, so the maps and diagnostics that
    take the record compute on finite numbers without checking again.
    """

    def __init__(self, mean, second, stderr_mean=None, stderr_second=None):
        mean = np.asarray(mean, dtype=float)
        second = np.asarray(second, dtype=float)
        n = len(mean)
        if mean.ndim != 1 or n == 0:
            raise ParameterError("mean must be a nonempty vector")
        if second.shape != (n, n):
            raise ParameterError(f"second must be {n}x{n}, got {second.shape}")
        require_finite(mean=mean, second=second, stderr_mean=stderr_mean,
                       stderr_second=stderr_second)
        # the checks run on second times the power of two 2^-e that brings its
        # largest |entry| into [1/2, 1): they decide as on second itself, and
        # neither its squares nor the symmetrized sum can overflow
        e = np.frexp(np.abs(second).max())[1]
        s = np.ldexp(second, -e)
        scale = float(np.abs(s).max())
        if np.abs(s - s.T).max() > RTOL * scale:
            raise ParameterError("second-moment matrix must be symmetric")
        s = 0.5 * (s + s.T)
        if s.diagonal().min() < -RTOL * scale:
            raise ParameterError("second-moment diagonal must be nonnegative")
        d = np.maximum(s.diagonal(), 0.0)
        if np.any(s**2 > np.outer(d, d) + RTOL * scale**2):
            raise ParameterError("second moments violate the Cauchy-Schwarz bound")
        second = np.ldexp(s, e)
        self.stderr_mean = _stderr("stderr_mean", stderr_mean, (n,))
        self.stderr_second = _stderr("stderr_second", stderr_second, (n, n))
        self.n = n
        self.theta = regular_subdivision(n)
        self.mean = mean
        self.second = second

    def __repr__(self):
        return f"FeretProcessMoments(n={self.n}, estimated={self.stderr_mean is not None})"


class CentralFaceMoments:
    """Moments of the central face-length vector of an isotropic regular zonotope.

    `mean_alpha` is the common face-length mean; `v_alpha[d]` is
    E[alpha_1 alpha_(1+d)], which by exchangeability under cyclic shifts is a
    palindrome: v[d] = v[n-d] within SPECTRAL_RTOL * max|v|.  This is the one
    admissibility rule, on spectral solves, NNLS fits and JSON records: v is
    the second moment of a nonnegative face vector, v >= 0 and Circ(v) PSD,
    within SPECTRAL_RTOL.  Relative to the spectral radius, eigenvalues of
    Circ(v) down to -n eps are FFT roundoff and left alone, and every one
    below is clipped to zero, the nearest-PSD projection of v
    (`psd_repaired`).  A projected v with a lag below -SPECTRAL_RTOL * max|v|
    raises ParameterError.  `mean_alpha` must be >= -RTOL * sqrt(max|v|), the
    face-length scale of v.  v_alpha[0] >= mean_alpha^2 is deliberately not
    required: non-zonotopal inputs can produce a smaller second moment.
    """

    def __init__(self, n, mean_alpha, v_alpha, stderr_mean_alpha=None,
                 stderr_v_alpha=None):
        require_count("n", n, 1)
        v = np.asarray(v_alpha, dtype=float)
        if v.shape != (n,):
            raise ParameterError(f"v_alpha must have length {n}, got shape {v.shape}")
        mean_alpha = float(mean_alpha)
        require_finite(mean_alpha=mean_alpha, v_alpha=v,
                       stderr_mean_alpha=stderr_mean_alpha,
                       stderr_v_alpha=stderr_v_alpha)
        scale = float(np.abs(v).max())
        if mean_alpha < -RTOL * np.sqrt(scale):
            raise ParameterError(f"mean_alpha must be nonnegative, got {mean_alpha}")
        if np.abs(v - v[_palindrome_index(n)]).max() > SPECTRAL_RTOL * scale:
            raise ParameterError("v_alpha is not a palindrome vector")
        lam = np.fft.fft(v).real
        self.psd_repaired = bool(lam.min() < -n * np.finfo(float).eps * np.abs(lam).max())
        if self.psd_repaired:
            v = np.fft.ifft(np.maximum(lam, 0.0)).real
        if v.min() < -SPECTRAL_RTOL * scale:
            raise ParameterError(f"v_alpha has a negative lag ({v.min():.3e})")
        self.n = int(n)
        self.mean_alpha = max(mean_alpha, 0.0)
        self.v_alpha = v
        stderr_mean_alpha = _stderr("stderr_mean_alpha", stderr_mean_alpha, ())
        self.stderr_mean_alpha = None if stderr_mean_alpha is None else float(stderr_mean_alpha)
        self.stderr_v_alpha = _stderr("stderr_v_alpha", stderr_v_alpha, (n,))

    def __repr__(self):
        return (
            f"CentralFaceMoments(n={self.n}, mean_alpha={self.mean_alpha:.6g}, "
            f"psd_repaired={self.psd_repaired})"
        )


class C0FaceMoments:
    """Moments of the random interpolating face vector alpha = F^-1 H on the grid."""

    def __init__(self, n, mean, second, cov, stderr_mean=None, stderr_second=None):
        require_count("n", n, 1)
        mean = np.asarray(mean, dtype=float)
        second = np.asarray(second, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (n,) or second.shape != (n, n) or cov.shape != (n, n):
            raise ParameterError("inconsistent moment shapes")
        require_finite(mean=mean, second=second, cov=cov, stderr_mean=stderr_mean,
                       stderr_second=stderr_second)
        if mean.min() < -RTOL * float(np.abs(mean).max()):
            raise ParameterError(f"face mean has negative component {mean.min():.3e}")
        scale = float(np.abs(second).max())
        if np.abs(second - second.T).max() > RTOL * scale:
            raise ParameterError("second-moment matrix must be symmetric")
        if np.linalg.eigvalsh(0.5 * (second + second.T)).min() < -SPECTRAL_RTOL * scale:
            raise ParameterError("second-moment matrix is not positive semidefinite")
        self.n = int(n)
        self.mean = mean
        self.second = second
        self.cov = cov
        self.stderr_mean = _stderr("stderr_mean", stderr_mean, (n,))
        self.stderr_second = _stderr("stderr_second", stderr_second, (n, n))

    def __repr__(self):
        return f"C0FaceMoments(n={self.n})"


def deterministic_process_moments(body, n):
    """Moments of the (degenerate) Feret process of a fixed body: zero variance."""
    h = np.asarray(body.feret(regular_subdivision(n)), dtype=float)
    return FeretProcessMoments(
        mean=h,
        second=np.outer(h, h),
        stderr_mean=np.zeros(n),
        stderr_second=np.zeros((n, n)),
    )


def _lag_sums(m):
    """Sums s[d] = sum_i m[i, (i + d) % n] along every cyclic diagonal of m."""
    i = np.arange(len(m))
    return m[i, (i[:, None] + i) % len(m)].sum(axis=1)


def _stationary_matrix(lags):
    """Symmetric circulant second-moment matrix of the symmetrized lag vector."""
    return CirculantMatrix(_symmetric(lags)).dense()


def isotropize_moments(m, body=None):
    """Rotation-average process moments to their stationary counterpart.

    The isotropized process has mean (1/pi) integral of E[H] and second
    moments depending only on the angular lag.  With only the n grid values
    available the integrals use the periodic trapezoid rule on the n-grid,
    which is coarse for small n.  When the source is a deterministic analytic
    body, pass it as `body`: the integrals then use an auxiliary dense grid
    of at least 1024 points (rounded up to a multiple of n so lag shifts are
    exact), with error O(size^-2) even for kinked H.

    Applying the map to already-stationary moments reproduces them.
    """
    n = m.n
    if body is not None:
        grid_n = int(-(-_ISOTROPIZE_GRID // n) * n)
        g = regular_subdivision(grid_n)
        h = np.asarray(body.feret(g), dtype=float)
        mean_c = float(h.mean())
        # a lag of d * grid_n / n shifts the n rows of this reshape by d
        rows = h.reshape(n, grid_n // n)
        lags = _lag_sums(rows @ rows.T) / grid_n
        stderr_mean = np.zeros(n)
        stderr_second = np.zeros((n, n))
    else:
        mean_c = float(m.mean.mean())
        lags = _lag_sums(m.second) / n
        stderr_mean = None
        stderr_second = None
        if m.stderr_mean is not None:
            stderr_mean = np.full(n, float(m.stderr_mean.mean()))
        if m.stderr_second is not None:
            stderr_second = _stationary_matrix(_lag_sums(m.stderr_second) / n)
    return FeretProcessMoments(
        mean=np.full(n, mean_c),
        second=_stationary_matrix(lags),
        stderr_mean=stderr_mean,
        stderr_second=stderr_second,
    )


def feret_second_lags(face_second, n):
    """Lag vector E[H(0) H(theta_d)] from an arbitrary face second-moment matrix.

    For an isotropic zonotope on the regular grid with face moments
    C[i, j] = E[alpha_i alpha_j] (not necessarily circulant),
    E[H(s) H(s + theta_d)] = sum_ij C[i, j] k_s(theta_d + theta_i - theta_j),
    which is K(0) times the cyclic-diagonal sums of C.  Cyclically shifting the
    face distribution leaves the result unchanged.
    """
    C = np.asarray(face_second, dtype=float)
    if C.shape != (n, n):
        raise ParameterError(f"face second-moment matrix must be {n}x{n}")
    return k_matrix(n).matvec(_lag_sums(C))


def forward_zonotope_moments(c):
    """Feret-process moments of the isotropic zonotope with central moments `c`.

    mean = (2/pi) n E[alpha_1] at every angle and
    second = Circ(n K(0) v_alpha); the result is stationary by construction.
    """
    n = c.n
    mean = np.full(n, (2.0 / np.pi) * n * c.mean_alpha)
    lags = float(n) * k_matrix(n).matvec(c.v_alpha)
    return FeretProcessMoments(mean=mean, second=_stationary_matrix(lags))


def expected_perimeter(c):
    """E[U] = 2 n E[alpha_1] for an isotropic regular zonotope."""
    return 2.0 * c.n * c.mean_alpha


def expected_area(c):
    """E[A] = (n/2) sum_d v_alpha[d] |sin(theta_d)| for an isotropic regular zonotope."""
    th = regular_subdivision(c.n)
    return 0.5 * c.n * float(np.dot(c.v_alpha, np.abs(np.sin(th))))


def central_from_feret(m):
    """Recover central face moments from Feret-process moments on the regular grid.

    Inverts mean = (2/pi) n E[alpha_1] and V[H] = n K(0) V[alpha] in the
    spectral domain of the circulant K(0).  The lag vector is the average of
    `m.second` over its n cyclic diagonals, symmetrized: the sufficient
    statistic of a stationary process, where row 0 alone would discard n - 1
    of the n rows.  With the mean averaged over the grid, it is the grid
    route of `isotropize_moments`, so it isotropizes non-stationary moments.
    Standard errors on `m` are averaged likewise and propagate through the
    linear map by conservative absolute-value row sums.

    Returns the solve's `CentralFaceMoments` record, eigenvalue clip and all.
    Only where the clip leaves v a negative lag, so the record rejects it, is
    it the `central_nnls` fit of the same lags, with the solve's standard
    errors: on this grid that fit projects the answer onto the admissible
    set, as the clip does wherever v stays >= 0.  Standard errors that
    overflow raise ParameterError; SolverError is raised where the fit does,
    and where K(0) is numerically singular: for every n >= 1194.
    """
    n = m.n
    K0 = k_matrix(n)
    mean_alpha = (np.pi / (2.0 * n)) * float(m.mean.mean())
    lags = _symmetric(_lag_sums(m.second) / n)
    v = _symmetric(K0.solve(lags) / n)

    stderr_mean_alpha = stderr_v = None
    with np.errstate(over="ignore", invalid="ignore"):
        if m.stderr_mean is not None:
            stderr_mean_alpha = (np.pi / (2.0 * n)) * float(m.stderr_mean.mean())
        if m.stderr_second is not None:
            full_map = K0.solve(_symmetric(np.eye(n))) / n
            stderr_v = np.abs(full_map) @ (_lag_sums(m.stderr_second) / n)
    require_finite(stderr_mean_alpha=stderr_mean_alpha, stderr_v_alpha=stderr_v)
    try:
        return CentralFaceMoments(n, mean_alpha, v, stderr_mean_alpha, stderr_v)
    except ParameterError:  # a negative lag that the eigenvalue clip leaves
        central = central_nnls(zip(regular_subdivision(n), lags[: n // 2 + 1]), n, mean_alpha)
    central.stderr_mean_alpha, central.stderr_v_alpha = stderr_mean_alpha, stderr_v
    return central


def central_nnls(observations, n, mean_alpha=0.0):
    """Central face second moments from noisy lag observations, by NNLS.

    `observations` is a sequence of (angle, value) pairs with angles in
    [0, pi/2] and values estimating E[H(0) H(angle)].  At least
    floor(n/2) + 1 distinct angles are required.  The palindrome v = u[fold],
    fold[d] = min(d, n - d), has n//2 + 1 distinct lags u, so each column of
    the design A in u sums the mirror pair of columns of
    Q[i, j] = n k_s(z_i - theta_j).  An interior angle z also observes the
    lag pi - z, which on palindromes repeats the row of z: its row carries
    weight sqrt(2) instead of a mirrored copy, so on the regular grid the fit
    is the projection of the spectral answer that `central_from_feret`
    returns where its clip leaves a negative lag.  The fit keeps u >= 0 and
    Circ(v) PSD, which v = 0 meets: scipy's NNLS fits u >= 0, and primal
    active-set steps move it onto the PSD cone.  Its eigenvalues are >= 0 up
    to the roundoff that CentralFaceMoments clips, u entries at or below
    EDGE_RTOL of the maximum are zeroed, and `mean_alpha` passes unfitted.
    Raises SolverError when the NNLS or the 30 (n//2 + 1) steps hit a limit.
    """
    require_count("n", n, 1)
    obs = np.array([(float(a), float(v)) for a, v in observations]).reshape(-1, 2)
    if not len(obs):
        raise UnderdeterminedError("no observations")
    angles, ys = obs.T
    require_finite(observations=ys)
    if angles.min() < -ANGLE_TOL or angles.max() > np.pi / 2 + ANGLE_TOL:
        raise ParameterError("observation angles must lie in [0, pi/2]")
    distinct = 1 + int(np.sum(np.diff(np.sort(angles)) > ANGLE_TOL))
    needed = n // 2 + 1
    if distinct < needed:
        raise UnderdeterminedError(
            f"need at least {needed} distinct observation angles for n={n}, "
            f"got {distinct}"
        )
    fold = np.minimum(np.arange(n), n - np.arange(n))
    w = np.where((angles > ANGLE_TOL) & (angles < np.pi / 2 - ANGLE_TOL), np.sqrt(2.0), 1.0)
    A = w[:, None] * (n * k_s(angles[:, None] - regular_subdivision(n)) @ np.eye(needed)[fold])
    _, e = np.frexp(np.abs(ys).max())  # a power of two, so the fit scales exactly
    b = np.ldexp(w * ys, -e)
    # C u are the distinct eigenvalues of Circ(u[fold]), C[:, 0] = 1; the rows
    # of G are the unit normals of the constraints u >= 0 and C u >= 0
    k = np.arange(needed)
    C = np.cos((2.0 * np.pi / n) * np.outer(k, k)) * np.bincount(fold)
    G = np.vstack([np.eye(needed), C / np.linalg.norm(C, axis=1)[:, None]])
    # the NNLS fit for u >= 0, raised along u[0] onto C u >= 0, then primal
    # active-set steps (Nocedal & Wright, alg. 16.3), each an exact solve on
    # the face of the working set W, which keeps the met constraints exact
    u, _ = _nnls_solve(A, b)
    lam = C @ u
    u[0] -= min(lam.min(), 0.0)
    W = list(np.flatnonzero(u == 0.0)) + [needed + int(lam.argmin())] * int(lam.min() < 0.0)
    tol, released = EDGE_RTOL * np.abs(A.T @ b).max(), None
    for _ in range(30 * needed):
        N = np.linalg.qr(G[W].T, mode="complete")[0][:, len(W):]  # W stays independent
        p = N @ np.linalg.lstsq(A @ N, b - A @ u)[0]
        p *= np.abs(p).max() > EDGE_RTOL * np.abs(u).max()  # a smaller step is roundoff
        Gp = G @ p
        blocking = Gp < -EDGE_RTOL * np.abs(p).max()
        blocking[W] = False
        if released is not None and blocking[released]:
            break  # the step closes the constraint just released: its multiplier was roundoff
        released = None
        step = np.full(2 * needed, np.inf)
        step[blocking] = np.maximum(G[blocking] @ u, 0.0) / -Gp[blocking]
        i = int(step.argmin())
        u += min(step[i], 1.0) * p
        if step[i] < 1.0:
            W.append(i)
            continue
        if not W:
            break
        mu = np.linalg.lstsq(G[W].T, A.T @ (A @ u - b))[0]
        if mu.min() >= -tol:
            break
        released = W.pop(int(mu.argmin()))
    else:
        raise SolverError("the constrained NNLS fit did not converge")
    u = N @ (N.T @ u)  # onto the face, so met constraints hold to roundoff of u
    u = np.ldexp(np.where(u > EDGE_RTOL * u.max(), u, 0.0), e)
    return CentralFaceMoments(n, mean_alpha, u[fold])


def _nnls_central(theta, second, mean_h, n):
    """`central_nnls` on a second-moment matrix over any angle grid.

    Under isotropy every angle pair (i, j) observes the covariance lag
    |theta_i - theta_j|; the pooled (lag, mean E[H H']) pairs feed the
    least-squares kernel fit, and mean_alpha is (pi/2n) mean_h.  On the
    regular grid the pooled means are the cyclic-diagonal averages of
    `second`.  Raises UnderdeterminedError through central_nnls when the
    design has too few distinct lags for n.
    """
    # lags z and pi - z are equivalent: fold to [0, pi/2], then pool runs of
    # sorted lags with gaps <= ANGLE_TOL, which no rounding boundary can split;
    # each pool keeps its smallest lag unrounded
    upper = np.triu_indices(len(theta))
    z = np.abs(theta[:, None] - theta[None, :])[upper] % np.pi
    folded = np.minimum(z, np.pi - z)
    order = np.argsort(folded)
    starts = np.diff(folded[order], prepend=-np.inf) > ANGLE_TOL
    pool = np.empty_like(order)
    pool[order] = np.cumsum(starts) - 1
    lags = folded[order][starts]
    means = np.bincount(pool, weights=second[upper]) / np.bincount(pool)
    mean_alpha = np.pi / (2.0 * n) * mean_h
    return central_nnls(list(zip(lags, means)), n, mean_alpha=mean_alpha)


def c0_random_moments(m, n):
    """Moments of the random interpolating face vector alpha = F^-1 H^(n).

    Since the interpolation map is linear and almost surely defined,
    E[alpha] = F^-1 E[H] and E[alpha alpha^T] = F^-1 E[H H^T] F^-1; the
    covariance follows, with F^-1 the stencil `face_lengths`.  Works for
    stationary and non-stationary inputs.
    """
    if n != m.n:
        raise ParameterError(f"moment grid has n={m.n}, requested n={n}")
    g = np.pi / n
    mean = face_lengths(m.mean, g)
    second = face_lengths(face_lengths(m.second, g).T, g).T
    second = 0.5 * (second + second.T)
    cov = second - np.outer(mean, mean)
    stderr_mean = stderr_second = None
    if m.stderr_mean is not None:
        Finv_abs = np.abs(face_lengths(np.eye(n), g))
        stderr_mean = Finv_abs @ m.stderr_mean
        if m.stderr_second is not None:
            stderr_second = Finv_abs @ m.stderr_second @ Finv_abs.T
    return C0FaceMoments(n, mean, second, cov, stderr_mean, stderr_second)


def confidence_bound(epsilon, n, mean_diameter):
    """Markov bound a with P(d_H(X, X0) > a) <= epsilon, from mean_diameter >= E[diam X].

    Raises ParameterError unless 0 < epsilon <= 1.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")
    return hausdorff_bound(n, mean_diameter) / epsilon


class StationarityReport:
    """Deviation of moment data from exact stationarity, against 3-sigma thresholds."""

    def __init__(self, mean_deviation, mean_threshold, second_deviation,
                 second_threshold):
        self.mean_deviation = float(mean_deviation)
        self.mean_threshold = float(mean_threshold)
        self.second_deviation = float(second_deviation)
        self.second_threshold = float(second_threshold)

    @property
    def passed(self):
        return (self.mean_deviation <= self.mean_threshold
                and self.second_deviation <= self.second_threshold)

    def __repr__(self):
        return (
            f"StationarityReport(passed={self.passed}, "
            f"mean={self.mean_deviation:.3e}/{self.mean_threshold:.3e}, "
            f"second={self.second_deviation:.3e}/{self.second_threshold:.3e})"
        )


def stationarity_diagnostic(m):
    """Compare moment data against the stationary shape it should have.

    Measures the largest deviation of the mean vector from its average and of
    the second-moment matrix from its circulant projection, each against
    3 x the provided standard errors plus a roundoff allowance of RTOL times
    the largest |mean| or |second|.  Data without standard errors is held to
    the roundoff allowance alone.
    """

    def threshold(x, stderr):
        noise = 0.0 if stderr is None else 3.0 * float(stderr.max())
        return noise + RTOL * float(np.abs(x).max())

    mean_dev = float(np.abs(m.mean - m.mean.mean()).max())
    proj = _stationary_matrix(_lag_sums(m.second) / m.n)
    second_dev = float(np.abs(m.second - proj).max())
    return StationarityReport(mean_dev, threshold(m.mean, m.stderr_mean), second_dev,
                              threshold(m.second, m.stderr_second))


class ExistenceReport:
    """E[U] and the E[U^2] proxy of a random body; passed when both are finite."""

    def __init__(self, perimeter_mean, perimeter_second_moment_proxy):
        self.perimeter_mean = float(perimeter_mean)
        self.perimeter_second_moment_proxy = float(perimeter_second_moment_proxy)

    @property
    def passed(self):
        return bool(np.isfinite(self.perimeter_mean)
                    and np.isfinite(self.perimeter_second_moment_proxy))

    def __repr__(self):
        return (
            f"ExistenceReport(passed={self.passed}, "
            f"E[U]~{self.perimeter_mean:.6g}, "
            f"E[U^2]~{self.perimeter_second_moment_proxy:.6g})"
        )


def existence_check(m):
    """Sanity-check that the moments describe a square-integrable perimeter.

    Cauchy's formula U = integral_0^pi H(theta) dtheta gives
    E[U] ~ (pi/n) sum_i E[H(theta_i)] and E[U^2] as the double integral of
    E[H(theta) H(phi)], taken over the grid as w * sum_ij E[H_i H_j].  The
    weight w = 4 / (n sum_d k_s(theta_d)) is the one that is exact for every
    isotropic zonotope on the grid, where E[U^2] = 4 E[(sum alpha)^2] and
    sum_ij E[H_i H_j] = n sum_d k_s(theta_d) E[(sum alpha)^2]; it tends to
    the rectangle weight (pi/n)^2 as n grows.  Both values are exact for
    stationary moments of such zonotopes, and isotropizing grid moments by
    lag averages leaves them unchanged.  The moments themselves are finite,
    as `FeretProcessMoments` requires; only these sums can overflow.
    """
    eu = (np.pi / m.n) * float(m.mean.sum())
    weight = 4.0 / (m.n * float(k_s(regular_subdivision(m.n)).sum()))
    eu2 = weight * float(m.second.sum())
    return ExistenceReport(eu, eu2)
