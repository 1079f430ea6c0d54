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
from zonofit.bodies import is_regular_subdivision, require_count
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


def _triples_by_loop(samples, angle_tol=1e-9):
    """The pairwise loop feret_feasibility_check once ran: (subadditivity, triples)."""
    ang = np.array([float(a) for a, _ in samples])
    val = np.array([float(v) for _, v in samples])
    red = np.mod(ang, np.pi)
    subadd = 0.0
    triples = 0
    n = len(samples)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            beta = ang[j] - ang[i]
            mid = ang[i] + (beta + np.pi) / 2.0
            gap = np.mod(red - np.mod(mid, np.pi), np.pi)
            gap = np.minimum(gap, np.pi - gap)
            k = int(np.argmin(gap))
            if gap[k] > angle_tol:
                continue
            triples += 1
            lhs = val[j]
            rhs = val[i] + 2.0 * abs(np.sin(beta / 2.0)) * val[k]
            subadd = max(subadd, lhs - rhs)
    return max(0.0, subadd), triples


def _report_by_row_loop(samples, angle_tol=1e-9):
    """The row-by-row check feret_feasibility_check ran before it sorted the angles."""
    pairs = [(float(a), float(v)) for a, v in samples]
    ang = np.array([p[0] for p in pairs])
    val = np.array([p[1] for p in pairs])
    negativity = max(0.0, float(-val.min()))
    red = np.mod(ang, np.pi)
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
    subadd = 0.0
    triples = 0
    m = len(pairs)
    for i in range(m):
        j = np.delete(np.arange(m), i)
        beta = ang[j] - ang[i]
        mid = ang[i] + (beta + np.pi) / 2.0
        gap = np.mod(red - np.mod(mid, np.pi)[:, None], np.pi)
        gap = np.minimum(gap, np.pi - gap)
        k = np.argmin(gap, axis=1)
        hit = ~(gap[np.arange(m - 1), k] > angle_tol)
        triples += int(np.count_nonzero(hit))
        excess = (val[j] - (val[i] + 2.0 * np.abs(np.sin(beta / 2.0)) * val[k]))[hit]
        subadd = max(subadd, float(np.max(excess, initial=0.0, where=excess > 0.0)))
    return (negativity, float(periodicity), max(0.0, subadd), triples)


def test_feasibility_report_matches_row_loop():
    # duplicates mod pi, angles outside [0, pi), and chord midpoints within
    # roundoff or angle_tol of several samples, so nearest-angle ties occur
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
        got = (rep.negativity, rep.periodicity_gap, rep.subadditivity, rep.triples_checked)
        assert got == _report_by_row_loop(samples, tol)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feasibility_rejects_non_finite_angles(bad):
    with pytest.raises(ParameterError, match="angles must be finite"):
        feret_feasibility_check([(0.0, 1.0), (bad, 1.0), (1.0, 1.0)])


def test_feasibility_triples_match_pairwise_loop():
    rng = np.random.default_rng(11)
    x = Ellipse(2.0, 0.7, 0.4)
    cases = []
    for m in (1, 2, 3, 9, 40, 120, 200):
        # angles on a regular grid, some shifted by pi or repeated, so that
        # many chord midpoints land on samples and nearest-angle ties occur
        g = int(rng.integers(2, 2 * m + 3))
        th = rng.integers(0, g, size=m) * (np.pi / g) + np.pi * rng.integers(-1, 2, size=m)
        h = np.asarray(x.feret(th)) + 0.05 * rng.standard_normal(m)
        cases.append(list(zip(th, h)))
    th = np.linspace(0, np.pi, 64, endpoint=False)
    cases.append(list(zip(th, np.asarray(Disk(1.0).feret(th)))))
    bad = list(cases[-1])
    bad[3] = (bad[3][0], -2.0)
    bad[5] = (bad[5][0], np.nan)
    cases.append(bad)
    cases.append([(0.1, 1.0), (0.1 + np.pi, 3.0)])
    # the chord midpoint 3 pi / 4 of (0, pi / 2) is sampled twice: the first
    # sample is the one used
    cases.append([(0.0, 1.0), (np.pi / 2, 3.0), (0.75 * np.pi, 0.5), (0.75 * np.pi, 2.0)])
    for samples in cases:
        rep = feret_feasibility_check(samples)
        subadd, triples = _triples_by_loop(samples)
        assert (rep.subadditivity, rep.triples_checked) == (subadd, triples)


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
