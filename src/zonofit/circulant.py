"""Circulant linear algebra via FFT diagonalization.

A circulant matrix C with first column c has entries C[i, j] = c[(i - j) mod n]
and eigenvalues equal to the DFT of c.  Products and solves act on a vector or
on the columns of an (n, k) array in the spectral domain; the dense route
serves cross-checks and builds the stationary moment matrices of `process`.
"""

import numpy as np

from .bodies import SINGULAR_RTOL, regular_subdivision, require_count
from .errors import ParameterError, SolverError


class CirculantMatrix:
    """n-by-n circulant matrix stored as its first column."""

    def __init__(self, first_column):
        c = np.asarray(first_column, dtype=float)
        if c.ndim != 1 or len(c) == 0:
            raise ParameterError("first column must be a nonempty 1-D array")
        self.first_column = c
        self.n = len(c)

    def spectrum(self):
        """Eigenvalues, ordered by DFT frequency of the first column."""
        return np.fft.fft(self.first_column)

    def dense(self):
        c = self.first_column
        idx = (np.arange(self.n)[:, None] - np.arange(self.n)[None, :]) % self.n
        return c[idx]

    def _columns(self, x):
        """x as floats with n rows, and the spectrum shaped to broadcast over it."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ParameterError(f"expected {self.n} rows, got shape {x.shape}")
        return x, self.spectrum().reshape((self.n,) + (1,) * (x.ndim - 1))

    def matvec(self, x):
        """C x for a vector x or for each column of an (n, k) array."""
        x, lam = self._columns(x)
        return np.fft.ifft(lam * np.fft.fft(x, axis=0), axis=0).real

    def solve(self, b):
        """Solve C x = b in the spectral domain, for a vector or each column of b.

        Raises SolverError naming the offending frequency when any eigenvalue
        magnitude falls at or below SINGULAR_RTOL times the largest: the one
        conditioning rule of every circulant solve.
        """
        b, lam = self._columns(b)
        mags = np.abs(lam.ravel())
        cutoff = SINGULAR_RTOL * mags.max()
        bad = np.flatnonzero(mags <= cutoff)
        if len(bad):
            k = int(bad[0])
            raise SolverError(
                f"circulant system is numerically singular at spectral index {k} "
                f"(|lambda_{k}| = {mags[k]:.3e} <= {cutoff:.3e})"
            )
        return np.fft.ifft(np.fft.fft(b, axis=0) / lam, axis=0).real

    def condition_number(self):
        """max |lambda| / min |lambda|: a diagnostic, as `solve` checks the spectrum itself."""
        mags = np.abs(self.spectrum())
        if mags.min() == 0.0:
            return np.inf
        return float(mags.max() / mags.min())

    def __repr__(self):
        return f"CirculantMatrix(n={self.n})"


def feret_matrix(n):
    """Circulant matrix F with entries |sin(theta_i - theta_j)| on the regular grid.

    F maps a zonotope's face-length vector to its Feret diameters at the grid
    angles.  Its spectrum has strictly positive magnitudes for n > 1, so the
    map is invertible; F is the tests' reference for its inverse `face_lengths`.
    """
    require_count("n", n, 2)
    return CirculantMatrix(np.abs(np.sin(regular_subdivision(n))))
