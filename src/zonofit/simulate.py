"""Monte-Carlo harness for random-shape models of Feret processes.

Randomness is counter-based: a Philox stream keyed by the seed is treated as
a flat sequence of uniform draws, and sample k owns a fixed window of them
determined by the model's per-sample draw count (size variables first,
rotation angle last; the window is padded to whole 4-word counter blocks,
the unit Philox skips by).  Normal deviates come from uniforms through the
inverse CDF so the budget stays fixed; `LogNormal.transform` imports that
inverse CDF, `scipy.special.ndtri`, when it runs, so models without lognormal
sizes load no scipy module.  Every estimate is then a deterministic function
of (seed, sample index) alone: parallel workers produce bit-identical results
in any configuration, and moments are reduced in a fixed chunked order.

Zonotope models share one spectral sample block: on the regular grid the map
from face lengths to Feret diameters is a circular convolution, evaluated
for a whole chunk of samples with batched real FFTs.  Moments reduce each
fixed chunk of CHUNK rows to a centered state and merge the states in a
fixed pairwise tree, for sampled and for observed diameter tables alike.

Overflow has one rule.  Every sample block is drawn through
`bodies.feret_values`, so a NaN or infinite diameter raises ParameterError
naming the model's Feret diameters, and the reductions silence numpy's
overflow warnings in the threads that run them, leaving FeretProcessMoments
to name the moment that overflowed.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bodies import (RTOL, Ellipse, feret_values, regular_subdivision, require_count,
                     require_finite)
from .errors import ParameterError
from .process import FeretProcessMoments, central_from_feret
from .zonotopes import Zonotope

CHUNK = 4096

#: Philox advances its counter in blocks of four 64-bit words; per-sample
#: draw windows are padded to whole blocks so they can be skipped to exactly.
_WORDS_PER_BLOCK = 4


def _uniform_block(model, seed, start, count):
    """Uniform windows of samples [start, start + count), shape (count, words):
    each sample owns `words_per_sample` words of the seed-keyed Philox stream,
    padded to whole counter blocks (no words for a model without draws)."""
    require_count("seed", seed, 0)
    require_count("start", start, 0)
    require_count("count", count, 0)
    blocks = -(-model.words_per_sample // _WORDS_PER_BLOCK)
    bg = np.random.Philox(key=int(seed))
    if start and blocks:
        bg.advance(int(start) * blocks)
    return np.random.Generator(bg).random((count, blocks * _WORDS_PER_BLOCK))


def worker_count():
    """Worker cap of `estimate_process_moments`: ZONOFIT_THREADS, an integer
    >= 1, else 1.  Any other value raises ParameterError naming the variable."""
    threads = os.environ.get("ZONOFIT_THREADS", "1")
    try:
        threads = int(threads)
    except ValueError:
        pass  # require_count reports the text as given
    require_count("ZONOFIT_THREADS", threads, 1)
    return threads


class SizeDistribution:
    """Base for nonnegative size-vector distributions with a fixed draw budget."""

    #: number of uniform words consumed per sample
    draw_count = 0
    #: length of the produced size vector
    dim = 0

    def transform(self, u):
        """Map a (k, draw_count) uniform block to (k, dim) size vectors."""
        raise NotImplementedError


class Fixed(SizeDistribution):
    """Degenerate distribution concentrated on one nonnegative vector."""

    draw_count = 0

    def __init__(self, value):
        v = np.atleast_1d(np.asarray(value, dtype=float))
        require_count("dimension", len(v), 1)
        if v.min() < 0:
            raise ParameterError("fixed size vector must be nonnegative")
        require_finite(value=v)
        self.value = v
        self.dim = len(v)

    def transform(self, u):
        return np.tile(self.value, (len(u), 1))


class Mixture(SizeDistribution):
    """Finite mixture of nonnegative vectors with given weights."""

    draw_count = 1

    def __init__(self, atoms, weights):
        a = np.atleast_2d(np.asarray(atoms, dtype=float))
        w = np.asarray(weights, dtype=float)
        if len(a) != len(w) or len(a) == 0:
            raise ParameterError("need one weight per atom")
        require_finite(atoms=a, weights=w)
        require_count("dimension", a.shape[1], 1)
        if a.min() < 0:
            raise ParameterError("mixture atoms must be nonnegative")
        if w.min() < 0 or abs(w.sum() - 1.0) > RTOL:
            raise ParameterError("weights must be nonnegative and sum to 1")
        self.atoms = a
        self.weights = w / w.sum()
        self.dim = a.shape[1]
        self._cum = np.cumsum(self.weights)

    def transform(self, u):
        idx = np.searchsorted(self._cum, u[:, 0], side="right")
        return self.atoms[np.minimum(idx, len(self.atoms) - 1)]


class LogNormal(SizeDistribution):
    """Independent lognormal components exp(mu + sigma * Phi^-1(u)); `dim`, the
    number of components, is an integer >= 1."""

    def __init__(self, dim, mu=0.0, sigma=0.25):
        require_count("dim", dim, 1)
        if sigma < 0:
            raise ParameterError("sigma must be >= 0")
        self.dim = int(dim)
        self.draw_count = int(dim)
        self.mu = float(mu)
        self.sigma = float(sigma)
        require_finite(mu=self.mu, sigma=self.sigma)

    def transform(self, u):
        from scipy.special import ndtri

        return np.exp(self.mu + self.sigma * ndtri(u))


class RandomShapeModel:
    """Base for shape-valued random models; see the concrete kinds below."""

    #: uniform words consumed per sample
    words_per_sample = 0

    def feret_block(self, u, n):
        """Feret diameters, shape (samples, n), on the regular n-grid from a uniform block."""
        raise NotImplementedError

    def sample_one(self, u_row):
        """One realization as a shape object from this sample's uniform words."""
        raise NotImplementedError


class DeterministicBody(RandomShapeModel):
    """A fixed symmetric convex body; consumes no randomness."""

    words_per_sample = 0

    def __init__(self, body):
        self.body = body

    def feret_block(self, u, n):
        h = np.asarray(self.body.feret(regular_subdivision(n)), dtype=float)
        return np.tile(h, (len(u), 1))

    def sample_one(self, u_row):
        return self.body


class _IsotropicZonotopeBase(RandomShapeModel):
    """Shared sampling for zonotopes with random faces under uniform rotation.

    The m face directions are the regular subdivision i*pi/m.
    """

    def __init__(self, m, sizes):
        if sizes.dim != m:
            raise ParameterError(
                f"size distribution produces {sizes.dim} components, "
                f"model needs {m}"
            )
        self.m = m
        self.sizes = sizes
        self.words_per_sample = sizes.draw_count + 1

    def feret_block(self, u, n):
        """Feret diameters on the regular n-grid as one batched circular convolution.

        Grid angles g*pi/n and face directions i*pi/m both lie on the lattice
        pi/L with L = lcm(n, m), so H(g*pi/n) = sum_i alpha_i T[g*L/n - i*L/m]
        for the L-periodic lag table T[k] = |sin(k*pi/L - eta)|.  That is the
        circular convolution of T with the faces placed at lattice positions
        i*L/m, read at every (L/n)-th lag: L sines and three length-L real
        FFTs per sample instead of n*m sines.
        """
        faces = self.sizes.transform(u[:, : self.sizes.draw_count])
        eta = np.pi * u[:, self.sizes.draw_count]
        size = math.lcm(n, self.m)
        table = np.abs(np.sin(regular_subdivision(size) - eta[:, None]))
        up = np.zeros((len(u), size))
        up[:, :: size // self.m] = faces
        conv = np.fft.irfft(
            np.fft.rfft(table, axis=1) * np.fft.rfft(up, axis=1), n=size, axis=1
        )
        return np.ascontiguousarray(conv[:, :: size // n])

    def sample_one(self, u_row):
        faces = self.sizes.transform(u_row[None, : self.sizes.draw_count])[0]
        eta = float(np.pi * u_row[self.sizes.draw_count])
        return Zonotope(faces, t=eta)


class IsotropicZonotope(_IsotropicZonotopeBase):
    """Isotropic zonotope on the regular n-direction grid with random face lengths.

    Per sample: the face vector is drawn first, then an independent rotation
    uniform on [0, pi).  `n` is an integer >= 1.
    """

    def __init__(self, n, faces):
        require_count("n", n, 1)
        super().__init__(int(n), faces)
        self.n = int(n)


class IsotropicRectangle(_IsotropicZonotopeBase):
    """Uniformly rotated rectangle with random side lengths (a 2-direction zonotope)."""

    def __init__(self, sides):
        super().__init__(2, sides)


class IsotropicEllipse(RandomShapeModel):
    """Uniformly rotated ellipse with random semiaxes (a, b)."""

    def __init__(self, semiaxes):
        if semiaxes.dim != 2:
            raise ParameterError("ellipse model needs a 2-component size distribution")
        self.semiaxes = semiaxes
        self.words_per_sample = semiaxes.draw_count + 1

    def feret_block(self, u, n):
        ab = self.semiaxes.transform(u[:, : self.semiaxes.draw_count])
        phi = np.pi * u[:, self.semiaxes.draw_count]
        t = regular_subdivision(n)[None, :] - phi[:, None]
        return 2.0 * np.sqrt(
            (ab[:, :1] * np.sin(t)) ** 2 + (ab[:, 1:] * np.cos(t)) ** 2
        )

    def sample_one(self, u_row):
        ab = self.semiaxes.transform(u_row[None, : self.semiaxes.draw_count])[0]
        phi = float(np.pi * u_row[self.semiaxes.draw_count])
        return Ellipse(ab[0], ab[1], phi)


def sample_shape(model, stream_index, seed):
    """Realization number `stream_index`: a pure function of (seed, stream_index),
    both integers >= 0."""
    require_count("stream index", stream_index, 0)
    return model.sample_one(_uniform_block(model, seed, stream_index, 1)[0])


def chunk_state(h):
    """Mergeable state (count, mean, M2) of a chunk of rows h, shape (count, n).

    Row 0 of mean and M2 is for h, rows 1..n for the products h_i h_j; M2 sums
    squared deviations from the chunk mean m.  With d = h - m the products' M2
    comes from d^T d, (d^2)^T d^2 and (d^2)^T d, so no m^2-sized sums cancel.
    Overflows are left to FeretProcessMoments to name; numpy's warnings are
    silenced here, in the thread that reduces the chunk (error state is per thread).
    """
    count, n = h.shape
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.add.reduce(h, axis=0) / count
        x = np.empty((count, 2 * n))  # [d | d^2]: one product x^T x gives all three sums
        np.subtract(h, m, out=x[:, :n])
        np.multiply(x[:, :n], x[:, :n], out=x[:, n:])
        g = x.T @ x
        s, mm = g[:n, :n], np.outer(m, m)
        # v[i, j] = m_i^2 sum d_j^2 + 2 m_j sum d_i^2 d_j; v + v^T holds the cross terms
        v = np.outer(m * m, s.diagonal()) + 2.0 * m * g[n:, :n]
        m2 = g[n:, n:] + v + v.T + s * (2.0 * mm - s / count)
        return count, np.vstack([m, mm + s / count]), np.vstack([s.diagonal(), m2])


def reduce_states(states):
    """Feret-process moments from chunk states, merged pairwise in a fixed tree.

    Two states merge by the update of Chan, Golub & LeVeque ("Algorithms for
    computing the sample variance", 1983); the tree depends only on the order
    of `states`, so the result is bit-identical however they were produced.
    Standard errors are the entrywise sample standard deviations divided by
    sqrt(samples).  The moments are what the samples measured; how far they
    are from stationary is `stationarity_diagnostic`'s to report.  Overflows
    raise ParameterError naming the moment, without warnings (`chunk_state`).
    """
    items = list(states)
    require_count("samples", sum(state[0] for state in items), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(items) > 1:
            merged = []
            for (na, ma, qa), (nb, mb, qb) in zip(items[::2], items[1::2]):
                delta = mb - ma
                merged.append((na + nb, ma + delta * (nb / (na + nb)),
                               qa + qb + delta * delta * (na * nb / (na + nb))))
            items = merged + items[len(merged) * 2 :]
        samples, mean, m2 = items[0]
        stderr = np.sqrt(np.maximum(m2, 0.0) / (samples - 1) / samples)
    return FeretProcessMoments(mean=mean[0], second=mean[1:], stderr_mean=stderr[0],
                               stderr_second=stderr[1:])


def empirical_moments(h):
    """Feret-process moments from an observed diameter table of shape (samples, n).

    The table is reduced in the same CHUNK-row pieces and the same order as
    `estimate_process_moments`, so a table of sampled diameters gives the
    streamed estimate bit for bit.  A table whose products overflow a float
    raises ParameterError naming the moment, without numpy warnings.
    """
    h = np.ascontiguousarray(np.atleast_2d(np.asarray(h, dtype=float)))
    return reduce_states([chunk_state(h[s : s + CHUNK]) for s in range(0, len(h), CHUNK)])


def feret_sample_block(model, n, seed, start, count):
    """Feret diameters of samples [start, start+count) on the regular n-grid;
    a non-finite one raises ParameterError (`bodies.feret_values`)."""
    require_count("grid size", n, 1)
    return feret_values("the model's Feret diameters", model.feret_block,
                        _uniform_block(model, seed, start, count), n)


def estimate_process_moments(model, n, samples, seed):
    """Empirical Feret-process moments on the regular n-grid, as FeretProcessMoments.

    The moments hold what the samples measured, for an isotropic model and a
    fixed body alike.  Samples are generated in fixed chunks of CHUNK rows,
    each drawn as one sample block (for zonotope models a batched spectral
    convolution).  Each chunk reduces to its centered state (`chunk_state`),
    and the states merge in a fixed pairwise tree (`reduce_states`), so the
    result is bit-identical for any worker count.  Standard errors are the
    entrywise sample standard deviations divided by sqrt(samples).  Chunks
    are drawn by up to `worker_count()` threads, the ZONOFIT_THREADS setting.
    """
    require_count("samples", samples, 2)
    threads = worker_count()
    starts = list(range(0, samples, CHUNK))

    def work(start):
        count = min(CHUNK, samples - start)
        return chunk_state(feret_sample_block(model, n, seed, start, count))

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            states = list(pool.map(work, starts))
    else:
        states = [work(s) for s in starts]
    return reduce_states(states)


def pipeline_estimate(model, n, samples, seed):
    """Sample -> process moments -> central face moments (the lag average of
    `central_from_feret` isotropizes the moments of a non-isotropic model).
    The worker count is ZONOFIT_THREADS, as in `estimate_process_moments`."""
    return central_from_feret(estimate_process_moments(model, n, samples, seed))
