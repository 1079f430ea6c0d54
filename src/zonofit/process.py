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
from .bodies import ANGLE_TOL, RTOL, SPECTRAL_RTOL, regular_subdivision
from .circulant import CirculantMatrix, feret_matrix
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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"need a positive integer n, got {n!r}")
    return CirculantMatrix(k_s(regular_subdivision(n)))


def _palindrome_index(n):
    """Index map d -> (n - d) mod n pairing each lag with its mirror."""
    return (-np.arange(n)) % n


def _symmetric(x):
    """Mean of x and its lag mirror x[(n - d) mod n]: exactly palindromic."""
    return 0.5 * (x + x[_palindrome_index(len(x))])


def _require_finite(**values):
    """Raise ParameterError naming the first given value with a NaN or infinite entry."""
    for name, x in values.items():
        if x is not None and not np.all(np.isfinite(np.asarray(x, dtype=float))):
            raise ParameterError(f"{name} must be finite")


def _require_finite_moments(m):
    """Raise ParameterError unless every array of the process moments m is finite."""
    _require_finite(mean=m.mean, second=m.second, stderr_mean=m.stderr_mean,
                    stderr_second=m.stderr_second)


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

    Moments with NaN or infinite entries are held as given, without the
    checks on `second`, for `existence_check` to report; the diagnostics and
    maps that compute with them raise ParameterError before any arithmetic.
    """

    def __init__(self, mean, second, stderr_mean=None, stderr_second=None):
        mean = np.asarray(mean, dtype=float)
        second = np.asarray(second, dtype=float)
        n = len(mean)
        if mean.ndim != 1 or n == 0:
            raise ParameterError("mean must be a nonempty vector")
        if second.shape != (n, n):
            raise ParameterError(f"second must be {n}x{n}, got {second.shape}")
        if np.all(np.isfinite(second)):
            scale = float(np.abs(second).max())
            if np.abs(second - second.T).max() > RTOL * scale:
                raise ParameterError("second-moment matrix must be symmetric")
            second = 0.5 * (second + second.T)
            if second.diagonal().min() < -RTOL * scale:
                raise ParameterError("second-moment diagonal must be nonnegative")
            d = np.maximum(second.diagonal(), 0.0)
            if np.any(second**2 > np.outer(d, d) + RTOL * scale**2):
                raise ParameterError("second moments violate the Cauchy-Schwarz bound")
        for name, arr in (("stderr_mean", stderr_mean), ("stderr_second", stderr_second)):
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != (mean.shape if name == "stderr_mean" else second.shape):
                    raise ParameterError(f"{name} has wrong shape {arr.shape}")
                if arr.min() < 0:
                    raise ParameterError(f"{name} must be nonnegative")
        self.n = n
        self.theta = regular_subdivision(n)
        self.mean = mean
        self.second = second
        self.stderr_mean = None if stderr_mean is None else np.asarray(stderr_mean, float)
        self.stderr_second = None if stderr_second is None else np.asarray(stderr_second, float)

    def __repr__(self):
        return f"FeretProcessMoments(n={self.n}, estimated={self.stderr_mean is not None})"


class CentralFaceMoments:
    """Moments of the central face-length vector of an isotropic regular zonotope.

    `mean_alpha` is the common face-length mean; `v_alpha[d]` is
    E[alpha_1 alpha_(1+d)], which by exchangeability under cyclic shifts is a
    palindrome: v[d] = v[n-d] within SPECTRAL_RTOL * max|v|.  Circ(v_alpha)
    must be positive semidefinite.  Relative to its spectral radius,
    eigenvalues down to -n eps are FFT roundoff and left alone, those in
    [-SPECTRAL_RTOL, -n eps) are clamped to zero (`psd_repaired` records
    this), and larger violations are rejected.  `mean_alpha` must be
    >= -RTOL * sqrt(max|v|), the face-length scale of v.  Note
    v_alpha[0] >= mean_alpha^2 is deliberately not required: non-zonotopal
    inputs can produce a smaller second moment.
    """

    def __init__(self, n, mean_alpha, v_alpha, stderr_mean_alpha=None,
                 stderr_v_alpha=None):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ParameterError(f"need a positive integer n, got {n!r}")
        v = np.asarray(v_alpha, dtype=float)
        if v.shape != (n,):
            raise ParameterError(f"v_alpha must have length {n}, got shape {v.shape}")
        mean_alpha = float(mean_alpha)
        _require_finite(mean_alpha=mean_alpha, v_alpha=v,
                        stderr_mean_alpha=stderr_mean_alpha,
                        stderr_v_alpha=stderr_v_alpha)
        scale = float(np.abs(v).max())
        if mean_alpha < -RTOL * np.sqrt(scale):
            raise ParameterError(f"mean_alpha must be nonnegative, got {mean_alpha}")
        if np.abs(v - v[_palindrome_index(n)]).max() > SPECTRAL_RTOL * scale:
            raise ParameterError("v_alpha is not a palindrome vector")
        lam = np.fft.fft(v).real
        radius = float(np.abs(lam).max())
        if lam.min() < -SPECTRAL_RTOL * radius:
            raise ParameterError(
                f"Circ(v_alpha) is not positive semidefinite (min eigenvalue "
                f"{lam.min():.3e})"
            )
        self.psd_repaired = bool(lam.min() < -n * np.finfo(float).eps * radius)
        if self.psd_repaired:
            v = np.fft.ifft(np.maximum(lam, 0.0)).real
        self.n = int(n)
        self.mean_alpha = max(mean_alpha, 0.0)
        self.v_alpha = v
        self.stderr_mean_alpha = None if stderr_mean_alpha is None else float(stderr_mean_alpha)
        self.stderr_v_alpha = (
            None if stderr_v_alpha is None else np.asarray(stderr_v_alpha, float)
        )

    def __repr__(self):
        return (
            f"CentralFaceMoments(n={self.n}, mean_alpha={self.mean_alpha:.6g}, "
            f"psd_repaired={self.psd_repaired})"
        )


class C0FaceMoments:
    """Moments of the random interpolating face vector alpha = F^-1 H on the grid."""

    def __init__(self, n, mean, second, cov, stderr_mean=None, stderr_second=None):
        mean = np.asarray(mean, dtype=float)
        second = np.asarray(second, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (n,) or second.shape != (n, n) or cov.shape != (n, n):
            raise ParameterError("inconsistent moment shapes")
        _require_finite(mean=mean, second=second, cov=cov, stderr_mean=stderr_mean,
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
        self.stderr_mean = stderr_mean
        self.stderr_second = stderr_second

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
        _require_finite_moments(m)
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


def central_from_feret(m, max_condition=1e12):
    """Recover central face moments from Feret-process moments on the regular grid.

    Inverts mean = (2/pi) n E[alpha_1] and V[H] = n K(0) V[alpha] in the
    spectral domain of the circulant K(0).  The lag vector is the average of
    `m.second` over its n cyclic diagonals, symmetrized: the sufficient
    statistic of a stationary process, where row 0 alone would discard n - 1
    of the n rows.  With the mean averaged over the grid, it is the grid
    route of `isotropize_moments`, so it isotropizes non-stationary moments.
    Standard errors, when present on `m`, are averaged along the same
    diagonals and propagate through the linear map by conservative
    absolute-value row sums.  `max_condition` is the only conditioning check.

    Raises
    ------
    ParameterError
        If any array of `m` is not finite, or unless `max_condition` > 0.
    SolverError
        If cond(K(0)) exceeds `max_condition`.
    """
    if not max_condition > 0:
        raise ParameterError(f"max_condition must be positive, got {max_condition!r}")
    _require_finite_moments(m)
    n = m.n
    K0 = k_matrix(n)
    cond = K0.condition_number()
    if cond > max_condition:
        raise SolverError(
            f"kernel matrix K(0) too ill-conditioned: cond = {cond:.3e} > "
            f"{max_condition:.0e}"
        )
    mean_alpha = (np.pi / (2.0 * n)) * float(m.mean.mean())
    lags = _lag_sums(m.second) / n
    v = _symmetric(K0.solve(_symmetric(lags), rtol=0.0) / n)

    stderr_mean_alpha = None
    stderr_v = None
    if m.stderr_mean is not None:
        stderr_mean_alpha = (np.pi / (2.0 * n)) * float(m.stderr_mean.mean())
    if m.stderr_second is not None:
        full_map = K0.solve(_symmetric(np.eye(n)), rtol=0.0) / n
        stderr_v = np.abs(full_map) @ (_lag_sums(m.stderr_second) / n)
    return CentralFaceMoments(n, mean_alpha, v, stderr_mean_alpha, stderr_v)


def central_nnls(observations, n, mean_alpha=0.0):
    """Central face second moments from noisy lag observations, by NNLS.

    `observations` is a sequence of (angle, value) pairs with angles in
    [0, pi/2] and values estimating E[H(0) H(angle)].  At least
    floor(n/2) + 1 distinct angles are required.  The unknowns are the
    n//2 + 1 distinct lags u of the palindrome v = u[fold], fold[d] =
    min(d, n - d), so each design column sums the mirror pair of columns of
    Q[i, j] = n k_s(z_i - theta_j).  An interior angle z also observes the
    lag pi - z, which on palindromes repeats the row of z: its row carries
    weight sqrt(2) instead of a mirrored copy.  The weighted system is solved
    for u >= 0 by scipy's Lawson-Hanson NNLS; a fit whose Circ(v) is not PSD
    raises SolverError.  `mean_alpha` passes through to the result (first
    moments are not identifiable from second-moment observations).
    """
    obs = np.array([(float(a), float(v)) for a, v in observations]).reshape(-1, 2)
    if not len(obs):
        raise UnderdeterminedError("no observations")
    angles, ys = obs.T
    if not np.all(np.isfinite(ys)):
        raise ParameterError("observations must be finite")
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
    interior = (angles > ANGLE_TOL) & (angles < np.pi / 2 - ANGLE_TOL)
    w = np.where(interior, np.sqrt(2.0), 1.0)
    Q = float(n) * k_s(angles[:, None] - regular_subdivision(n))
    design = Q @ (fold[:, None] == np.arange(needed))
    u, _ = _nnls_solve(w[:, None] * design, w * ys)
    lam = np.fft.fft(u[fold]).real
    if lam.min() < -SPECTRAL_RTOL * float(np.abs(lam).max()):
        raise SolverError(
            f"NNLS fit is not positive semidefinite (min eigenvalue {lam.min():.3e})")
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
    covariance follows.  Works for stationary and non-stationary inputs.
    """
    if n != m.n:
        raise ParameterError(f"moment grid has n={m.n}, requested n={n}")
    _require_finite_moments(m)
    F = feret_matrix(n)
    mean = F.solve(m.mean)
    second = F.solve(F.solve(m.second).T).T
    second = 0.5 * (second + second.T)
    cov = second - np.outer(mean, mean)
    stderr_mean = None
    stderr_second = None
    if m.stderr_mean is not None:
        Finv_abs = np.abs(F.solve(np.eye(n)))
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
    _require_finite_moments(m)

    def threshold(x, stderr):
        noise = 0.0 if stderr is None else 3.0 * float(stderr.max())
        return noise + RTOL * float(np.abs(x).max())

    mean_dev = float(np.abs(m.mean - m.mean.mean()).max())
    proj = _stationary_matrix(_lag_sums(m.second) / m.n)
    second_dev = float(np.abs(m.second - proj).max())
    return StationarityReport(mean_dev, threshold(m.mean, m.stderr_mean), second_dev,
                              threshold(m.second, m.stderr_second))


class ExistenceReport:
    """Finiteness diagnostics for process moments of a random symmetric body."""

    def __init__(self, finite_mean, finite_second, perimeter_mean,
                 perimeter_second_moment_proxy):
        self.finite_mean = bool(finite_mean)
        self.finite_second = bool(finite_second)
        self.perimeter_mean = float(perimeter_mean)
        self.perimeter_second_moment_proxy = float(perimeter_second_moment_proxy)

    @property
    def passed(self):
        return bool(self.finite_mean and self.finite_second
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
    lag averages leaves them unchanged.
    """
    finite_mean = bool(np.all(np.isfinite(m.mean)))
    finite_second = bool(np.all(np.isfinite(m.second)))
    eu = (np.pi / m.n) * float(m.mean.sum()) if finite_mean else np.nan
    weight = 4.0 / (m.n * float(k_s(regular_subdivision(m.n)).sum()))
    eu2 = weight * float(m.second.sum()) if finite_second else np.nan
    return ExistenceReport(finite_mean, finite_second, eu, eu2)
