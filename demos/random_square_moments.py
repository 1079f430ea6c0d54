"""The randomly rotated unit square, worked end to end in closed form.

A unit square rotated uniformly on [0, pi) is the simplest isotropic random
zonotope: two perpendicular unit faces.  Every quantity below has an exact
value, which makes the square the canonical check of the moment machinery.
"""

import numpy as np

from zonofit import (
    CentralFaceMoments,
    c0_random_moments,
    central_from_feret,
    existence_check,
    expected_area,
    expected_perimeter,
    forward_zonotope_moments,
    stationarity_diagnostic,
)

# face-length moments: alpha = (1, 1) almost surely
c = CentralFaceMoments(2, 1.0, [1.0, 1.0])
print("central face moments:", c)
print(f"  E[U] = 2 n E[alpha]        = {expected_perimeter(c):.6f}   (exact: 4)")
print(f"  E[A] = (n/2) sum v |sin|   = {expected_area(c):.6f}   (exact: 1)")
print()

# forward map to the Feret-process moments
m = forward_zonotope_moments(c)
print("Feret-process moments on the 2-direction grid:")
print(f"  E[H]      = {m.mean[0]:.12f}   (exact: 4/pi   = {4 / np.pi:.12f})")
print(f"  E[H H']   = {m.second[0, 1]:.12f}   (exact: (pi+2)/pi = "
      f"{(np.pi + 2) / np.pi:.12f})")
diag = stationarity_diagnostic(m)
exist = existence_check(m)
print(f"  stationary: {diag.passed}, perimeter E[U^2] ~ "
      f"{exist.perimeter_second_moment_proxy:.1f}")
print()

# the random interpolating face vector alpha = F^-1 H has correlated noise:
# its covariance is (pi^2 + 2 pi - 16) / pi^2 in every entry
fm = c0_random_moments(m, 2)
exact_cov = (np.pi**2 + 2 * np.pi - 16) / np.pi**2
print("interpolant face-vector moments:")
print(f"  E[alpha]     = {fm.mean[0]:.12f}")
print(f"  Cov[alpha]   = {fm.cov[0, 0]:.12f}   (exact: {exact_cov:.12f})")
print()

# and the map inverts: process moments -> central face moments
back = central_from_feret(m)
print("inverse map recovers the face moments:")
print(f"  mean_alpha = {back.mean_alpha:.12f}, v_alpha = {back.v_alpha}")
assert abs(back.mean_alpha - 1.0) < 1e-12
assert np.abs(back.v_alpha - 1.0).max() < 1e-12
print("  round trip exact to 1e-12")
