"""Monte-Carlo estimation of face moments, and why the results are replayable.

Samples an isotropic random zonotope, estimates its Feret-process moments,
inverts them to face moments, and demonstrates the counter-based randomness:
the same seed gives byte-identical numbers regardless of threading.
"""

import numpy as np

from zonofit import (
    CentralFaceMoments,
    DeterministicBody,
    Disk,
    IsotropicZonotope,
    Mixture,
    central_from_feret,
    estimate_process_moments,
    forward_zonotope_moments,
    k_s,
    pipeline_estimate,
    sample_shape,
)

# two-atom mixture of hexagonal zonotopes, uniformly rotated
n = 6
model = IsotropicZonotope(
    n, Mixture([np.full(n, 0.5), np.full(n, 1.5)], [0.4, 0.6])
)
truth = forward_zonotope_moments(
    CentralFaceMoments(n, 0.4 * 0.5 + 0.6 * 1.5, np.full(n, 0.4 * 0.25 + 0.6 * 2.25))
)

m = estimate_process_moments(model, n, samples=200_000, seed=42)
err = np.abs(m.mean - truth.mean) / m.stderr_mean
print(f"E[H] from 200k samples: {m.mean[0]:.5f} +- {m.stderr_mean[0]:.5f} "
      f"(truth {truth.mean[0]:.5f}, {err.max():.2f} stderr off)")

central = central_from_feret(m)
print(f"recovered mean face length: {central.mean_alpha:.5f} "
      f"+- {central.stderr_mean_alpha:.5f} (truth 1.1)")
print(f"recovered E[alpha_i alpha_j] lags: "
      f"{np.round(central.v_alpha[: n // 2 + 1], 4)} (truth 1.45 each)")
print()

# reproducibility: sample k is a pure function of (seed, k), so thread count
# and chunking cannot change a single bit
a = estimate_process_moments(model, n, 10_000, seed=7, threads=1)
b = estimate_process_moments(model, n, 10_000, seed=7, threads=8)
print("thread count 1 vs 8: moments bitwise equal:",
      bool(np.array_equal(a.second, b.second)))
shape = sample_shape(model, 1234, seed=7)
print(f"sample #1234 is always the same shape: {shape!r}")
print()

# the pipeline also runs on deterministic bodies: a fixed disk is rotation
# invariant, so the lag average that isotropizes the moments is exact and the
# face moments come out closed form
c = pipeline_estimate(DeterministicBody(Disk(1.0)), 3, samples=10, seed=0)
v_exact = (4.0 / 3.0) / (k_s(0.0) + 2.0 * k_s(np.pi / 3.0))
print("deterministic disk, 3 directions:")
print(f"  mean_alpha = {c.mean_alpha:.12f} (exact pi/3 = {np.pi / 3:.12f})")
print(f"  v_alpha[0] = {c.v_alpha[0]:.12f} (exact      {v_exact:.12f})")
