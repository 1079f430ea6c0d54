"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single `criterion NN [PASS|FAIL]` line (visible with
`pytest tests/test_acceptance.py -s`) and enforces both the numeric
tolerances and that criterion's wall-clock budget.
"""

import json
import time

import numpy as np
import scipy.integrate
import scipy.linalg

from zonofit import (
    CentralFaceMoments,
    CirculantMatrix,
    Disk,
    Ellipse,
    Fixed,
    IsotropicEllipse,
    IsotropicZonotope,
    Zonotope,
    c0_approximate,
    c0_random_moments,
    central_from_feret,
    central_nnls,
    cinf_approximate,
    contains,
    deterministic_process_moments,
    estimate_process_moments,
    forward_zonotope_moments,
    hausdorff_bound,
    hausdorff_distance,
    k_matrix,
    k_s,
    kkt_residual,
    mixed_area_limit,
    mixed_area_with_zonotope,
    nnls,
    regular_subdivision,
    steiner_mixed_area,
)
from zonofit.cli import entry, square_body

MEAN_H_SQUARE = 4.0 / np.pi
SECOND_H_SQUARE = (np.pi + 2.0) / np.pi
COV_ALPHA_SQUARE = (np.pi**2 + 2.0 * np.pi - 16.0) / np.pi**2


def _verdict(num, desc, problems, elapsed, limit):
    if elapsed >= limit:
        problems = problems + [f"took {elapsed:.1f}s, budget {limit:.0f}s"]
    status = "FAIL" if problems else "PASS"
    print(f"criterion {num:02d} [{status}] {desc} ({elapsed:.2f}s/{limit:.0f}s)")
    assert not problems, f"criterion {num:02d}: " + "; ".join(problems)


def _check(problems, ok, message):
    if not ok:
        problems.append(message)


def _random_central(rng, n):
    """Valid central face moments: palindromic v with Circ(v) >= 0 by construction."""
    base = np.abs(rng.standard_normal(n)) + 0.1
    v = np.array([float(np.dot(base, np.roll(base, d))) for d in range(n)]) / n
    return CentralFaceMoments(n, float(np.abs(rng.standard_normal())) + 0.1, v)


def test_criterion_01_analytic_random_square():
    t0 = time.perf_counter()
    problems = []
    m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
    _check(problems, np.abs(m.mean - MEAN_H_SQUARE).max() <= 1e-9,
           "E[H] of the random unit square is not 4/pi")
    _check(problems, np.abs(m.second - SECOND_H_SQUARE).max() <= 1e-9,
           "E[H H'] of the random unit square is not (pi+2)/pi")
    fm = c0_random_moments(m, 2)
    _check(problems, np.abs(fm.cov - COV_ALPHA_SQUARE).max() <= 1e-9,
           "interpolant face covariance is off the closed form")
    det = c0_random_moments(deterministic_process_moments(square_body(), 2), 2)
    _check(problems, np.abs(det.cov).max() <= 1e-12,
           "deterministic square must have zero face covariance")
    _verdict(1, "closed-form moments of the randomly rotated unit square",
             problems, time.perf_counter() - t0, 1.0)


def test_criterion_02_monte_carlo_matches_analytic():
    t0 = time.perf_counter()
    problems = []
    m = estimate_process_moments(
        IsotropicZonotope(2, Fixed([1.0, 1.0])), 2, 100_000, seed=2024
    )
    _check(problems,
           np.all(np.abs(m.mean - MEAN_H_SQUARE) <= 3.0 * m.stderr_mean),
           "estimated E[H] more than 3 stderr from 4/pi")
    _check(problems,
           np.all(np.abs(m.second - SECOND_H_SQUARE) <= 3.0 * m.stderr_second),
           "estimated E[H H'] more than 3 stderr from (pi+2)/pi")
    fm = c0_random_moments(m, 2)
    cov_err = np.abs(fm.cov - COV_ALPHA_SQUARE)
    cov_tol = 3.0 * (fm.stderr_second + 2.0 * np.abs(fm.mean) * fm.stderr_mean)
    _check(problems, np.all(cov_err <= cov_tol),
           "estimated interpolant covariance outside 3 stderr")
    _verdict(2, "100k-sample Monte Carlo vs the closed forms",
             problems, time.perf_counter() - t0, 30.0)


def test_criterion_03_moment_map_round_trip():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3, 4, 6, 8):
        for _ in range(20):
            c0 = _random_central(rng, n)
            c1 = central_from_feret(forward_zonotope_moments(c0))
            worst = max(worst, abs(c1.mean_alpha - c0.mean_alpha),
                        float(np.abs(c1.v_alpha - c0.v_alpha).max()))
    _check(problems, worst <= 1e-10,
           f"round-trip error {worst:.3e} exceeds 1e-10")
    _verdict(3, "forward/inverse face-moment maps on 100 random vectors",
             problems, time.perf_counter() - t0, 5.0)


def test_criterion_04_bound_and_convergence():
    t0 = time.perf_counter()
    problems = []
    for a, b in ((1.0, 1.0), (3.0, 1.0), (10.0, 1.0)):
        x = Ellipse(a, b)
        diam = 2.0 * a
        dists = {}
        for n in range(2, 65):
            d = hausdorff_distance(x, c0_approximate(x, n))
            dists[n] = d
            _check(problems, d <= hausdorff_bound(n, diam),
                   f"bound violated for axes ({a},{b}) at n={n}")
            if a == b:
                exact = a * (1.0 / np.cos(np.pi / (2.0 * n)) - 1.0)
                _check(problems, abs(d - exact) <= 1e-6,
                       f"disk distance at n={n} off the closed form by "
                       f"{abs(d - exact):.2e}")
        _check(problems, dists[64] < 0.05 * dists[2],
               f"axes ({a},{b}): distance at n=64 not below 5% of n=2")
    _verdict(4, "a priori bound and convergence over n=2..64 ellipses",
             problems, time.perf_counter() - t0, 60.0)


def test_criterion_05_interpolation_and_containment():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    bad_contain = 0
    for _ in range(100):
        a = float(rng.uniform(0.5, 5.0))
        b = float(rng.uniform(0.5, a))
        x = Ellipse(a, b, phi=float(rng.uniform(0.0, np.pi)))
        for n in (2, 4, 8):
            z = c0_approximate(x, n)
            th = regular_subdivision(n)
            worst_gap = max(
                worst_gap, float(np.abs(z.feret(th) - x.feret(th)).max())
            )
            if not contains(z, x):
                bad_contain += 1
    _check(problems, worst_gap <= 1e-9,
           f"grid interpolation error {worst_gap:.3e} exceeds 1e-9")
    _check(problems, bad_contain == 0,
           f"{bad_contain} interpolants fail to contain their target")
    _verdict(5, "interpolation and containment on 100 random ellipses",
             problems, time.perf_counter() - t0, 30.0)


def test_criterion_06_rotation_optimized_fits():
    t0 = time.perf_counter()
    problems = []
    grid = 48
    for a in (1.0, 3.0, 10.0):
        x = Ellipse(a, 1.0, phi=0.3)
        for n in (2, 3, 4):
            d0 = hausdorff_distance(x, c0_approximate(x, n))
            _, z = cinf_approximate(x, n, grid_points=grid)
            _check(problems, hausdorff_distance(x, z) <= d0 + 1e-6,
                   f"optimized fit worse than unrotated at axes ({a},1), n={n}")
    for n in (2, 3, 4):
        vals = []
        for phi in np.linspace(0.0, np.pi, 20, endpoint=False):
            x = Ellipse(3.0, 1.0, phi=float(phi))
            _, z = cinf_approximate(x, n, grid_points=grid)
            vals.append(hausdorff_distance(x, z))
        spread = max(vals) - min(vals)
        _check(problems, spread <= 1e-5,
               f"optimized distance varies by {spread:.2e} under rotation at n={n}")
    for k in (1.0, 2.0, 4.0, 8.0):
        x = Ellipse(k, 1.0)
        prev = None
        for n in range(2, 11):
            _, z = cinf_approximate(x, n, grid_points=grid)
            d = hausdorff_distance(x, z)
            if prev is not None:
                _check(problems, d <= prev + 1e-6,
                       f"optimized distance increased from n={n-1} to n={n} at k={k}")
            prev = d
    _verdict(6, "rotation-optimized fits: optimality, invariance, monotonicity",
             problems, time.perf_counter() - t0, 120.0)


def test_criterion_07_kernel_and_circulant_algebra():
    t0 = time.perf_counter()
    problems = []
    worst_q = 0.0
    for t in np.linspace(0.0, np.pi, 32):
        kink = np.pi - (t % np.pi)
        ref, _ = scipy.integrate.quad(
            lambda z: abs(np.sin(t + z) * np.sin(z)), 0.0, np.pi,
            points=[kink] if 0.0 < kink < np.pi else None, limit=200,
        )
        worst_q = max(worst_q, abs(k_s(t) - ref / np.pi))
    _check(problems, worst_q <= 1e-9,
           f"kernel deviates from quadrature by {worst_q:.3e}")
    for n in range(1, 33):
        _check(problems, np.linalg.eigvalsh(k_matrix(n).dense()).min() > 0.0,
               f"kernel matrix not positive definite at n={n}")
    rng = np.random.default_rng(17)
    worst_s = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 24))
        col = rng.standard_normal(n)
        col[0] += n  # diagonally dominant, hence well-conditioned
        C = CirculantMatrix(col)
        b = rng.standard_normal(n)
        x_ref = scipy.linalg.solve(C.dense(), b)
        worst_s = max(worst_s, float(np.abs(C.solve(b) - x_ref).max()))
    _check(problems, worst_s <= 1e-10,
           f"circulant solves deviate from LU by {worst_s:.3e}")
    _verdict(7, "kernel quadrature, positivity, and circulant solves",
             problems, time.perf_counter() - t0, 5.0)


def test_criterion_08_mixed_areas():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        zx = Zonotope(rng.uniform(0.2, 2.0, nx), t=float(rng.uniform(0.0, np.pi)))
        zy = Zonotope(rng.uniform(0.2, 2.0, ny), t=float(rng.uniform(0.0, np.pi)))
        direct = mixed_area_with_zonotope(zx, zy)
        steiner = steiner_mixed_area(zx.vertices(), zy.vertices())
        worst = max(worst, abs(direct - steiner))
    _check(problems, worst <= 1e-10,
           f"zonotope mixed areas deviate from the area expansion by {worst:.3e}")
    w = mixed_area_limit(Disk(1.0), Disk(1.0), 256)
    _check(problems, abs(w - np.pi) <= 1e-3,
           f"grid mixed area of the unit disk with itself is {w:.6f}, not pi")
    _verdict(8, "mixed areas: direct formula, area expansion, grid limit",
             problems, time.perf_counter() - t0, 10.0)


def test_criterion_09_nonnegative_recovery():
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        c0 = _random_central(rng, n)
        m = forward_zonotope_moments(c0)
        th = regular_subdivision(n)
        obs = [(th[d], m.second[0, d]) for d in range(n // 2 + 1)]
        c_nn = central_nnls(obs, n, mean_alpha=c0.mean_alpha)
        c_lin = central_from_feret(m)
        worst = max(worst, float(np.abs(c_nn.v_alpha - c_lin.v_alpha).max()))
    _check(problems, worst <= 1e-8,
           f"noiseless NNLS deviates from the linear solve by {worst:.3e}")
    worst_kkt = 0.0
    for _ in range(20):
        A = rng.standard_normal((12, 6))
        b = A @ np.abs(rng.standard_normal(6)) + 0.1 * rng.standard_normal(12)
        x, _ = nnls(A, b)
        if x.min() < 0:
            problems.append("NNLS returned a negative component")
        worst_kkt = max(worst_kkt, kkt_residual(A, b, x))
    _check(problems, worst_kkt <= 1e-10,
           f"stationarity residual {worst_kkt:.3e} exceeds 1e-10")
    _verdict(9, "nonnegative recovery: agreement and optimality conditions",
             problems, time.perf_counter() - t0, 5.0)


def test_criterion_10_simulation_reproducibility(tmp_path_factory, monkeypatch,
                                                 capsys):
    t0 = time.perf_counter()
    problems = []
    args = ["simulate", "--model", "isotropic_ellipse:2,1", "--n", "4",
            "--samples", "20000", "--seed", "11", "--out", "run"]
    outputs = []
    for threads in ("1", "4", "1"):
        d = tmp_path_factory.mktemp(f"rep_{len(outputs)}")
        monkeypatch.chdir(d)
        monkeypatch.setenv("ZONOFIT_THREADS", threads)
        code = entry(list(args))
        capsys.readouterr()
        _check(problems, code == 0, f"simulate exited {code} with {threads} threads")
        outputs.append(((d / "run.csv").read_bytes(), (d / "run.json").read_bytes()))
    for i in (1, 2):
        _check(problems, outputs[i][0] == outputs[0][0],
               f"sample CSV differs between run 0 and run {i}")
        _check(problems, outputs[i][1] == outputs[0][1],
               f"summary JSON differs between run 0 and run {i}")
    # simulate is serial; the library's threaded estimate of the same samples
    # must reproduce its moments bit for bit under every worker count
    simulated = json.loads(outputs[0][1])["moments"]
    for threads in ("1", "4"):
        monkeypatch.setenv("ZONOFIT_THREADS", threads)
        m = estimate_process_moments(IsotropicEllipse(Fixed([2.0, 1.0])), 4, 20000, 11)
        for name in ("mean", "second", "stderr_mean", "stderr_second"):
            _check(problems, np.array_equal(getattr(m, name), simulated[name]),
                   f"estimate {name} with {threads} threads differs from simulate's")
    _verdict(10, "byte-identical simulation across runs and thread counts",
             problems, time.perf_counter() - t0, 30.0)
