import numpy as np
import pytest

from zonofit import (
    C0FaceMoments,
    CentralFaceMoments,
    DeterministicBody,
    Disk,
    Ellipse,
    MinkowskiSum,
    Rotated,
    Scaled,
    ParameterError,
    Segment,
    SymmetricPolygon,
    SymmetryError,
    IsotropicZonotope,
    LogNormal,
    Zonotope,
    c0_approximate,
    central_nnls,
    cinf_approximate,
    direction,
    estimate_process_moments,
    feret_feasibility_check,
    feret_matrix,
    feret_sample_block,
    hausdorff_bound,
    k_matrix,
    offset_distances,
    pipeline_estimate,
    regular_subdivision,
    sample_shape,
)
from zonofit.bodies import face_lengths, is_regular_subdivision, require_count
from conftest import sampled_width


def test_direction_convention():
    assert np.allclose(direction(0.0), [0.0, 1.0])
    assert np.allclose(direction(np.pi / 2), [-1.0, 0.0])
    d = direction(np.array([0.0, np.pi / 2]))
    assert d.shape == (2, 2)


def test_regular_subdivision():
    assert np.allclose(regular_subdivision(2), [0.0, np.pi / 2])
    assert np.allclose(regular_subdivision(1), [0.0])
    assert np.allclose(regular_subdivision(4), [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    with pytest.raises(ParameterError):
        regular_subdivision(0)


def test_is_regular_subdivision():
    grid = regular_subdivision(4)
    for theta in (grid, grid + 1e-10, grid - [0.0, 1e-10, 0.0, 1e-10], [0.0]):
        assert is_regular_subdivision(theta)
    for theta in (grid + 2e-9, grid + [0.0, 0.0, 0.0, 2e-5], grid[::-1], [], [np.nan],
                  grid.reshape(2, 2), regular_subdivision(5)[:4]):
        assert not is_regular_subdivision(theta)


def test_segment_feret():
    s = Segment(1.0)
    assert s.feret(np.pi / 2) == pytest.approx(1.0, abs=1e-15)
    beta = 0.7
    assert Segment(1.0, beta).feret(beta) == pytest.approx(0.0, abs=1e-15)
    # matches the projection oracle on the two endpoints
    ends = 0.5 * np.array([[np.cos(beta), np.sin(beta)], [-np.cos(beta), -np.sin(beta)]])
    for th in np.linspace(0, np.pi, 13):
        assert Segment(1.0, beta).feret(th) == pytest.approx(sampled_width(ends, th), abs=1e-12)
    with pytest.raises(ParameterError):
        Segment(-1.0)


def test_disk_feret():
    d = Disk(1.5)
    th = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(d.feret(th), 3.0)
    with pytest.raises(ParameterError):
        Disk(-0.1)


def test_ellipse_closed_form_against_boundary_sampling():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 2 * np.pi, 1_000_000, endpoint=False)
    for a, b, phi in [(3.0, 1.0, 0.0), (2.0, 0.5, 0.4), (1.0, 1.0, 1.0)]:
        c, s = np.cos(phi), np.sin(phi)
        pts = np.column_stack([a * np.cos(t), b * np.sin(t)]) @ np.array([[c, s], [-s, c]])
        e = Ellipse(a, b, phi)
        for th in rng.uniform(0, np.pi, 5):
            assert e.feret(th) == pytest.approx(sampled_width(pts, th), abs=1e-8)


def test_ellipse_values_and_validation():
    assert Ellipse(3, 1).feret(0.0) == pytest.approx(2.0, abs=1e-12)
    assert Ellipse(3, 1).feret(np.pi / 2) == pytest.approx(6.0, abs=1e-12)
    th = np.linspace(0, np.pi, 9)
    assert np.allclose(Ellipse(3, 1, 0.3).feret(th), Ellipse(3, 1).feret(th - 0.3))
    with pytest.raises(ParameterError):
        Ellipse(-3, 1)


def test_polygon_feret(unit_square):
    assert unit_square.feret(0.0) == pytest.approx(1.0, abs=1e-12)
    assert unit_square.feret(np.pi / 4) == pytest.approx(np.sqrt(2), abs=1e-12)
    # translation of the vertex list does not change widths
    shifted = SymmetricPolygon(unit_square.vertices + np.array([3.0, -2.0]))
    th = np.linspace(0, np.pi, 11)
    assert np.allclose(shifted.feret(th), unit_square.feret(th))


def test_polygon_feret_bits_independent_of_angle_shape(regular_hexagon):
    # each angle's width is computed elementwise: a matmul's bits can depend
    # on the shape of the angle array
    th = np.linspace(0.0, np.pi, 128).reshape(8, 16)
    whole = regular_hexagon.feret(th)
    for col in range(th.shape[1]):
        np.testing.assert_array_equal(regular_hexagon.feret(th[:, col:col + 1]),
                                      whole[:, col:col + 1])


def test_asymmetric_polygon_rejected():
    with pytest.raises(SymmetryError):
        SymmetricPolygon([[1.0, 0.0], [0.0, 1.0], [-1.0, -0.5]])


def test_minkowski_sum_adds_widths(unit_square):
    m = MinkowskiSum([Disk(1.0), Segment(2.0, 0.3), unit_square])
    th = np.linspace(0, np.pi, 7)
    want = Disk(1.0).feret(th) + Segment(2.0, 0.3).feret(th) + unit_square.feret(th)
    assert np.allclose(m.feret(th), want, atol=1e-12)
    # two orthogonal unit segments make the unit square
    two = MinkowskiSum([Segment(1.0, 0.0), Segment(1.0, np.pi / 2)])
    assert np.allclose(two.feret(th), Zonotope([1.0, 1.0]).feret(th), atol=1e-12)


def test_rotation_and_scaling(unit_square):
    e = Ellipse(3, 1)
    th = np.linspace(0, np.pi, 9)
    assert np.allclose(Rotated(e, 0.8).feret(th), e.feret(th - 0.8))
    assert np.allclose(Rotated(Rotated(e, 0.3), 0.5).feret(th), e.feret(th - 0.8))
    assert np.allclose(Scaled(e, 2.5).feret(th), 2.5 * np.asarray(e.feret(th)))
    # central symmetry: scaling by -1 is a no-op on widths
    assert np.allclose(Scaled(unit_square, -1.0).feret(th), unit_square.feret(th))


def test_feasibility_check_accepts_valid_feret_data():
    th = np.linspace(0, np.pi, 64, endpoint=False)
    for x in [Disk(1.0), Zonotope([1.0, 2.0, 0.5], theta=[0.1, 1.0, 2.0])]:
        rep = feret_feasibility_check(list(zip(th, np.asarray(x.feret(th)))))
        assert rep.ok(1e-12)
        assert rep.triples_checked > 0


def test_feasibility_check_flags_bad_data():
    th = np.linspace(0, np.pi, 32, endpoint=False)
    good = list(zip(th, np.asarray(Disk(1.0).feret(th))))
    bad = list(good)
    bad[3] = (bad[3][0], -2.0)
    rep = feret_feasibility_check(bad)
    assert not rep.ok(1e-9)
    assert rep.negativity == pytest.approx(2.0)
    # periodicity: H(t) must match H(t + pi)
    pair = [(0.1, 1.0), (0.1 + np.pi, 3.0)]
    assert feret_feasibility_check(pair).periodicity_gap == pytest.approx(2.0)


def test_nan_value_does_not_hide_a_negative_one():
    rep = feret_feasibility_check([(0.0, np.nan), (1.0, -2.0)])
    assert rep.negativity == 2.0
    assert not rep.ok()


def _report_by_row_loop(samples, angle_tol=1e-9):
    """Negativity and periodicity as the row-by-row check computed them
    before feret_feasibility_check sorted the angles."""
    val = np.array([float(v) for _, v in samples])
    red = np.mod([float(a) for a, _ in samples], np.pi)
    negativity = max([0.0] + [-v for v in val if not np.isnan(v)])
    order = np.argsort(red)
    periodicity = 0.0
    for ii in range(len(order) - 1):
        i, j = order[ii], order[ii + 1]
        if red[j] - red[i] <= angle_tol:
            periodicity = max(periodicity, abs(val[i] - val[j]))
    if len(order) >= 2:
        i, j = order[0], order[-1]
        if red[i] + np.pi - red[j] <= angle_tol:
            periodicity = max(periodicity, abs(val[i] - val[j]))
    return (negativity, float(periodicity))


def test_feasibility_report_matches_row_loop():
    # duplicates mod pi, angles outside [0, pi), and runs of angles within
    # roundoff or angle_tol of each other
    rng = np.random.default_rng(5)
    for trial in range(240):
        m = int(rng.integers(1, 50))
        kind = trial % 4
        if kind == 0:
            g = int(rng.integers(2, 2 * m + 3))
            th = rng.integers(0, g, size=m) * (np.pi / g)
        elif kind == 1:
            th = rng.uniform(-7.0, 7.0, m)
        elif kind == 2:
            th = rng.integers(0, 7, size=m) * (np.pi / 7) + rng.choice(
                [0.0, 1e-10, -1e-10, 5e-10, 2e-9], size=m)
        else:
            th = np.repeat(rng.uniform(0.0, np.pi, m // 3 + 1), 3)[:m]
        th = th + np.pi * rng.integers(-2, 3, size=m)
        h = rng.uniform(-0.1, 2.0, m)
        if trial % 11 == 0:
            h[rng.integers(0, m)] = np.nan
        tol = (1e-9, 1e-12, 1e-6, 0.0)[trial % 4]
        samples = list(zip(th, h))
        rep = feret_feasibility_check(samples, tol)
        assert (rep.negativity, rep.periodicity_gap) == _report_by_row_loop(samples, tol)


@pytest.mark.parametrize("s", [2.0**-40, 1.0, 1e6, 1e9])
def test_feasibility_ok_is_relative_to_the_samples(s):
    # the same segment passes at every size; a 1e-6 relative error in one
    # sample fails at every size
    th = np.linspace(0.0, np.pi, 25)
    h = np.asarray(Segment(1.3 * s, 0.7).feret(th))
    rep = feret_feasibility_check(list(zip(th, h)))
    assert rep.scale == np.max(h)
    assert rep.ok()
    h[0] *= 1.0 + 1e-6
    assert not feret_feasibility_check(list(zip(th, h))).ok()


def test_feasibility_scale_skips_non_finite_values():
    rep = feret_feasibility_check([(0.0, np.nan), (1.0, -np.inf), (2.0, -3.0)])
    assert rep.scale == 3.0


@pytest.mark.parametrize("samples", [
    [(0.0, np.inf), (0.5, np.inf), (1.0, 1.0), (2.0, 1.0)],
    [(0.0, np.inf), (1e-12, np.inf), (1.0, 1.0), (2.0, 1.0)],
    [(0.0, -np.inf), (0.5, np.nan), (1.0, 1.0), (2.0, 1.0)],
    [(0.0, np.inf), (1.0, -np.inf)],
    [(0.3, np.inf)],
], ids=["neighbours", "one_run", "beside_nan", "two_angles", "alone"])
def test_feasibility_fails_infinite_values(samples):
    # an infinite value is no width, whatever stands beside it; the suite
    # turns any RuntimeWarning of the check into an error
    rep = feret_feasibility_check(samples)
    assert rep.subadditivity == np.inf
    assert not rep.ok()


def test_feasibility_nan_values_raise_no_violation():
    rep = feret_feasibility_check([(0.0, np.nan), (0.5, np.nan), (1.0, 1.0), (2.0, 1.0)])
    assert rep.worst == 0.0 and rep.ok()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feasibility_rejects_non_finite_angles(bad):
    with pytest.raises(ParameterError, match="angles must be finite"):
        feret_feasibility_check([(0.0, 1.0), (bad, 1.0), (1.0, 1.0)])


def _neighbour_slack(th, h):
    """S_k - H_k for each sample, at angles distinct mod pi: how far H_k
    lies below the sinusoid S_k through its two neighbours in angle."""
    order = np.argsort(np.mod(th, np.pi))
    at, v = np.mod(th, np.pi)[order], h[order]
    g = np.diff(at, append=at[0] + np.pi)
    gp = np.roll(g, 1)
    s = (np.roll(v, 1) * np.sin(g) + np.roll(v, -1) * np.sin(gp)) / np.sin(gp + g) - v
    slack = np.empty_like(s)
    slack[order] = s
    return slack


def test_feasibility_flags_bumps_above_their_slack():
    # raising one sample above the sinusoid through its neighbours is flagged
    # at random irregular angles, in any input order and shifted by k pi;
    # raising it to just below that sinusoid is not
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = int(rng.integers(3, 40))
        x = Ellipse(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, np.pi))
        th = rng.uniform(0.0, np.pi, m)
        h = np.asarray(x.feret(th))
        slack = _neighbour_slack(th, h)
        assert slack.min() >= -1e-15 * h.max()
        k = rng.choice(np.flatnonzero(slack > 1e-6 * h.max()))
        th = th + np.pi * rng.integers(-2, 3, size=m)
        for factor, flagged in ((1.01, True), (0.99, False)):
            bumped = h.copy()
            bumped[k] += factor * slack[k]
            rep = feret_feasibility_check(list(zip(th, bumped)))
            assert rep.triples_checked == m
            assert rep.ok() is not flagged
            assert rep.subadditivity == pytest.approx(max(0.0, (factor - 1.0) * slack[k]),
                                                      rel=1e-6, abs=1e-15 * h.max())


def test_feasibility_passes_near_duplicate_angles():
    # honest samples whose angles lie 2e-9 to 1e-7 apart, just outside
    # angle_tol, and exact repeats, which form runs
    rng = np.random.default_rng(29)
    for _ in range(100):
        x = Ellipse(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, np.pi))
        base = rng.uniform(0.0, np.pi, int(rng.integers(3, 20)))
        th = np.concatenate([base, base[:3] + rng.uniform(2e-9, 1e-7, 3), base[:2] + np.pi])
        rep = feret_feasibility_check(list(zip(th, np.asarray(x.feret(th)))))
        assert rep.ok(1e-14)
        assert rep.triples_checked == len(base) + 3


@pytest.mark.parametrize("samples", [
    [(0.3, 2.0)],
    [(0.3, 2.0), (0.3 + np.pi, 2.0), (-np.pi + 0.3, 2.0)],
    [(0.1, 1.0), (1.0, 100.0)],
    [(0.1, 1.0), (1.0, 1e-6), (0.1 + 5e-10, 1.0), (1.0 - 2 * np.pi, 1e-6)],
], ids=["one", "one_repeated", "two", "two_runs"])
def test_feasibility_one_or_two_angles_raise_no_subadditivity(samples):
    # any nonnegative values at two directions are a parallelogram's
    rep = feret_feasibility_check(samples)
    assert (rep.subadditivity, rep.triples_checked) == (0.0, 0)
    assert rep.ok()


@pytest.mark.parametrize("twin", [np.pi / 3 + 5e-10, np.pi - 5e-10],
                         ids=["inside", "wrapping_past_pi"])
def test_feasibility_run_stands_for_its_first_sample(twin):
    # a disk sampled at three angles, and a second sample within angle_tol
    # of one of them: the first of the two in input order is tested, there
    # against 4.0, the sinusoid through its neighbours' 2.0
    disk = [(0.0, 2.0), (np.pi / 3, 2.0), (2 * np.pi / 3, 2.0)]
    extra = (twin, 5.0)
    after = feret_feasibility_check(disk + [extra])
    before = feret_feasibility_check([extra] + disk)
    assert after.periodicity_gap == before.periodicity_gap == 3.0
    assert after.subadditivity == 0.0 and before.subadditivity == pytest.approx(1.0)
    assert after.triples_checked == before.triples_checked == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 33, 64, 100, 1024, 4096])
def test_face_lengths_invert_the_feret_matrix(n, unit_square):
    # the three-point stencil against the dense matrix F solved by LU; at
    # n = 4096 against the circulant solve, which needs no 128 MB matrix
    th = regular_subdivision(n)
    F = feret_matrix(n)
    for x in (Ellipse(3.0, 1.0, 0.4), Ellipse(8.0, 1.0, 0.3), unit_square, Segment(1.3, 0.7),
              Segment(2.0, 0.0), Disk(1.0)):
        h = np.asarray(x.feret(th))
        want = np.linalg.solve(F.dense(), h) if n <= 1024 else F.solve(h)
        bound = (1e-13 if n <= 64 else 1e-11) * h.max()
        assert np.abs(face_lengths(h, np.pi / n) - want).max() <= bound


def test_face_lengths_on_irregular_angles_match_the_zonotope():
    # faces at sorted irregular angles: the zonotope they give has the
    # sampled diameters; columns of a 2-D h are independent sample sets
    rng = np.random.default_rng(31)
    th = np.sort(rng.uniform(0.0, np.pi, 12))
    alpha = rng.uniform(0.0, 2.0, (12, 3))
    h = np.stack([Zonotope(a, theta=th).feret(th) for a in alpha.T], axis=1)
    gaps = np.diff(th, append=th[0] + np.pi)
    assert np.abs(face_lengths(h, gaps) - alpha).max() <= 1e-13 * h.max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, build", [
    ("r", lambda x: Disk(x)),
    ("a", lambda x: Ellipse(x, 1.0)),
    ("b", lambda x: Ellipse(2.0, x)),
    ("phi", lambda x: Ellipse(2.0, 1.0, x)),
    ("length", lambda x: Segment(x)),
    ("angle", lambda x: Segment(1.0, x)),
    ("angle", lambda x: Rotated(Disk(1.0), x)),
    ("factor", lambda x: Scaled(Disk(1.0), x)),
    ("vertices", lambda x: SymmetricPolygon([[x, 1.0], [-1.0, 1.0], [-x, -1.0], [1.0, -1.0]])),
    ("alpha", lambda x: Zonotope([1.0, x])),
    ("theta", lambda x: Zonotope([1.0, 2.0], theta=[0.0, x])),
    ("t", lambda x: Zonotope([1.0, 2.0], t=x)),
], ids=["disk_r", "ellipse_a", "ellipse_b", "ellipse_phi", "segment_length",
        "segment_angle", "rotated_angle", "scaled_factor", "polygon_vertices",
        "zonotope_alpha", "zonotope_theta", "zonotope_t"])
def test_non_finite_parameters_are_named(name, build, bad):
    # rejected where the body is built, before a Feret evaluation meets them
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        build(bad)


@pytest.mark.parametrize("value", [1, 7, 2**70, np.int64(3), np.uint8(1)],
                         ids=["one", "seven", "big", "int64", "uint8"])
def test_require_count_accepts_integers(value):
    require_count("k", value, 1)


@pytest.mark.parametrize("value", [0, -1, True, False, np.bool_(True), 1.0, 2.5,
                                   np.float64(3.0), "3", None],
                         ids=["zero", "negative", "true", "false", "numpy_bool", "one_float",
                              "fraction", "numpy_float", "text", "none"])
def test_require_count_rejects_by_name(value):
    # strict: a bool is not a count, nor is a float with an integer value
    with pytest.raises(ParameterError, match=r"^k must be an integer >= 1, got "):
        require_count("k", value, 1)


_ZONOTOPE_MODEL = IsotropicZonotope(4, LogNormal(4))


@pytest.mark.parametrize("bad", [2.5, 4.0, True, "4"], ids=["fraction", "float", "bool", "text"])
@pytest.mark.parametrize("name, call", [
    ("subdivision size", lambda v: regular_subdivision(v)),
    ("n", lambda v: c0_approximate(Disk(1.0), v)),
    ("n", lambda v: hausdorff_bound(v, 1.0)),
    ("n", lambda v: cinf_approximate(Disk(1.0), v)),
    ("grid_points", lambda v: cinf_approximate(Disk(1.0), 4, grid_points=v)),
    ("n", lambda v: offset_distances(Disk(1.0), v, [0.0])),
    ("n", lambda v: feret_matrix(v)),
    ("n", lambda v: k_matrix(v)),
    ("n", lambda v: CentralFaceMoments(v, 1.0, [1.0] * 4)),
    ("n", lambda v: C0FaceMoments(v, [1.0] * 4, np.eye(4), np.eye(4))),
    ("n", lambda v: central_nnls([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)], v)),
    ("n", lambda v: IsotropicZonotope(v, LogNormal(4))),
    ("dim", lambda v: LogNormal(v)),
    ("grid size", lambda v: feret_sample_block(_ZONOTOPE_MODEL, v, 0, 0, 2)),
    ("seed", lambda v: feret_sample_block(_ZONOTOPE_MODEL, 4, v, 0, 2)),
    ("seed", lambda v: feret_sample_block(DeterministicBody(Disk(1.0)), 4, v, 0, 2)),
    ("start", lambda v: feret_sample_block(_ZONOTOPE_MODEL, 4, 0, v, 2)),
    ("count", lambda v: feret_sample_block(_ZONOTOPE_MODEL, 4, 0, 0, v)),
    ("samples", lambda v: estimate_process_moments(_ZONOTOPE_MODEL, 4, v, 0)),
    ("samples", lambda v: pipeline_estimate(_ZONOTOPE_MODEL, 4, v, 0)),
    ("seed", lambda v: estimate_process_moments(_ZONOTOPE_MODEL, 4, 10, v)),
    ("stream index", lambda v: sample_shape(_ZONOTOPE_MODEL, v, 0)),
], ids=["regular_subdivision", "c0_approximate", "hausdorff_bound", "cinf_approximate",
        "grid_points", "offset_distances", "feret_matrix", "k_matrix", "central_moments",
        "c0_moments", "central_nnls", "isotropic_zonotope", "lognormal", "grid_size",
        "seed", "seed_without_draws", "start", "count", "samples", "pipeline_samples",
        "estimate_seed", "stream_index"])
def test_count_parameters_are_named(name, call, bad):
    # every count goes through require_count: never truncated, never a TypeError
    with pytest.raises(ParameterError, match=f"^{name} must be an integer >= "):
        call(bad)
