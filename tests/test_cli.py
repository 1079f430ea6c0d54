"""Command-line behavior: parsing, report contents, files, exit codes."""

import json
import warnings

import numpy as np
import pytest
import scipy.optimize

from zonofit import (
    CHUNK,
    CentralFaceMoments,
    ConvexPolygon,
    DeterministicBody,
    Disk,
    Fixed,
    IsotropicEllipse,
    IsotropicRectangle,
    Mixture,
    ParameterError,
    Segment,
    SymmetricPolygon,
    Zonotope,
    deterministic_process_moments,
    empirical_moments,
    forward_zonotope_moments,
    hausdorff_bound,
    isotropize_moments,
    k_s,
    regular_subdivision,
    sample_shape,
    serialize,
)
from zonofit import approx, cli, process, simulate
from zonofit.cli import entry, parse_int_list, parse_model, parse_shape, square_body
from zonofit.process import _lag_sums


def run_cli(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_shape_shorthands(self):
        assert isinstance(parse_shape("disk:1.5"), Disk)
        e = parse_shape("ellipse:3,1,0.5")
        assert (e.a, e.b, e.phi) == (3.0, 1.0, 0.5)
        assert isinstance(parse_shape("segment:2"), Segment)
        assert isinstance(parse_shape("square"), SymmetricPolygon)
        assert parse_shape("square:2").feret(0.0) == pytest.approx(2.0)

    def test_shape_inline_json_and_file(self, tmp_path):
        inline = parse_shape('{"kind": "zonotope", "alpha": [1.0, 2.0]}')
        assert isinstance(inline, Zonotope)
        p = tmp_path / "shape.json"
        p.write_text(serialize.dumps(serialize.shape_to_dict(Disk(2.0))))
        assert parse_shape(str(p)).r == 2.0

    def test_shape_errors(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot parse"):
            parse_shape("frisbee:1")
        with pytest.raises(ParameterError, match="bad numeric"):
            parse_shape("disk:wide")
        with pytest.raises(ParameterError, match="no such file"):
            parse_shape(str(tmp_path / "missing.json"))
        with pytest.raises(ParameterError, match="bad inline JSON"):
            parse_shape("{not json")

    def test_model_shorthands(self):
        m = parse_model("deterministic:disk:1.0")
        assert isinstance(m, DeterministicBody) and isinstance(m.body, Disk)
        sq = parse_model("isotropic_square")
        assert isinstance(sq, IsotropicRectangle)
        np.testing.assert_array_equal(sq.sizes.value, [1.0, 1.0])
        np.testing.assert_array_equal(
            parse_model("isotropic_rectangle:1,2").sizes.value, [1.0, 2.0]
        )
        assert isinstance(parse_model("isotropic_ellipse:3,1"), IsotropicEllipse)

    def test_model_errors(self):
        with pytest.raises(ParameterError, match="cannot parse"):
            parse_model("isotropic_blob:1")
        with pytest.raises(ParameterError, match="positive"):
            parse_model("isotropic_square:-1")

    def test_int_lists(self):
        assert parse_int_list("2:5") == [2, 3, 4, 5]
        assert parse_int_list("2,4,8") == [2, 4, 8]
        assert parse_int_list("5:4") == []
        with pytest.raises(ParameterError):
            parse_int_list("two")

    def test_square_body_validation(self):
        with pytest.raises(ParameterError):
            square_body(0.0)


class TestApproximate:
    def test_square_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--shape", "square", "--n", "2"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "approximate" and rep["mode"] == "c0"
        np.testing.assert_allclose(rep["alpha"], [1.0, 1.0], atol=1e-12)
        assert rep["d_hausdorff"] <= 1e-9
        assert rep["perimeter"] == pytest.approx(4.0)
        assert rep["area"] == pytest.approx(1.0)
        assert rep["bound"] == pytest.approx(
            (6.0 + 2.0 * np.sqrt(2.0)) * np.sin(np.pi / 4.0) * np.sqrt(2.0)
        )

    def test_cinf_mode_reports_offset(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--shape", "ellipse:3,1,0.785398", "--n", "2",
            "--mode", "cinf", "--grid", "64",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["tau"] == pytest.approx(np.pi / 4.0, abs=1e-2)
        assert rep["d_hausdorff"] < 0.7

    def test_tilted_square_vertices(self, capsys):
        # faces of roundoff size in the n = 8 fit must not break the vertex list
        c, d = 0.5 * np.cos(0.3), 0.5 * np.sin(0.3)
        verts = [[c - d, d + c], [-c - d, -d + c], [-c + d, -d - c], [c + d, d - c]]
        spec = json.dumps({"kind": "polygon", "vertices": verts})
        code, out, _ = run_cli(capsys, "approximate", "--shape", spec, "--n", "8")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["vertices"]) == 8
        assert rep["area"] == pytest.approx(
            ConvexPolygon(rep["vertices"]).area(), abs=1e-12
        )

    def test_csv_vertices(self, capsys):
        code, out, _ = run_cli(
            capsys, "approximate", "--shape", "square", "--n", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == serialize.CSV_VERSION_LINE
        assert lines[1] == "x,y"
        pts = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        assert len(pts) == 4
        np.testing.assert_allclose(np.abs(pts), 0.5, atol=1e-12)

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "approximate", "--shape", "disk:1", "--n", "4",
            "--out", str(dest),
        )
        assert code == 0 and out == ""
        rep = json.loads(dest.read_text())
        assert rep["n"] == 4

    @pytest.mark.parametrize("shape, n", [("segment:1e6,0.3", "16"), ("square:1e6", "64")])
    def test_large_bodies_fit(self, capsys, shape, n):
        code, out, _ = run_cli(capsys, "approximate", "--shape", shape, "--n", n)
        assert code == 0
        report = json.loads(out)
        assert report["d_hausdorff"] <= report["bound"]


class TestSweep:
    def test_disk_row_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "2:4", "--k", "1", "--grid", "32"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == serialize.CSV_VERSION_LINE
        assert lines[1] == "n,k,d_hausdorff,bound,mode"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 6
        # unit-perimeter disk has radius 1/2pi; the best grid zonotope sits
        # at distance R (sec(pi/2n) - 1) for every offset
        R = 1.0 / (2.0 * np.pi)
        for row in rows:
            n, d = int(row[0]), float(row[2])
            assert d == pytest.approx(R * (1.0 / np.cos(np.pi / (2 * n)) - 1.0),
                                      abs=1e-5)
            assert d <= float(row[3])

    def test_sorted_and_modes(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "2,3", "--k", "2,1", "--grid", "16"
        )
        rows = [ln.split(",") for ln in out.splitlines()[2:]]
        keys = [(float(r[1]), int(r[0]), r[4]) for r in rows]
        assert keys == sorted(keys)
        assert {r[4] for r in rows} == {"c0_worst", "cinf"}
        for r in rows:
            assert float(r[2]) <= float(r[3])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "2:2", "--k", "1", "--grid", "16",
            "--format", "json",
        )
        rep = json.loads(out)
        assert len(rep["rows"]) == 2
        assert rep["rows"][0]["mode"] == "c0_worst"

    @pytest.mark.parametrize("ns", ["5:2", ","])
    def test_empty_n_list_exit_2(self, capsys, ns):
        # like an empty --k list: a table without rows is not a result
        code, out, err = run_cli(capsys, "sweep", "--n", ns, "--k", "2")
        assert code == 2
        assert out == ""
        assert "need at least one n" in err

    def test_one_scan_per_row_group(self, capsys, monkeypatch):
        # best and worst offsets come from one scan: every grid offset's
        # distance is evaluated exactly once
        evaluated = []
        kernel = approx._distance_kernel

        def recording_kernel(x, n):
            distances = kernel(x, n)

            def recording(t):
                evaluated.extend(np.ravel(t).tolist())
                return distances(t)

            return recording

        monkeypatch.setattr(approx, "_distance_kernel", recording_kernel)
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "3", "--k", "2", "--grid", "16"
        )
        assert code == 0
        for t in np.arange(16) * (np.pi / 3 / 16):
            assert evaluated.count(t) == 1

    def test_huge_axis_ratio_is_the_segment_limit(self, capsys):
        # the unit-perimeter ellipse is normalized on semiaxes scaled by a
        # power of two, so no perimeter overflows to inf and zeroes the rows
        def rows(k):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, _ = run_cli(capsys, "sweep", "--n", "3,4", "--k", k,
                                       "--grid", "16", "--format", "json")
            assert code == 0
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            return [(r["n"], r["mode"], r["d_hausdorff"], r["bound"])
                    for r in json.loads(out)["rows"]]

        limit = rows("1e20")
        assert min(r[3] for r in limit) > 0.0
        for k in ("1e155", "1e300"):
            for got, want in zip(rows(k), limit, strict=True):
                assert got[:2] == want[:2]
                np.testing.assert_allclose(got[2:], want[2:], rtol=0, atol=1e-12)

    def test_bad_ratio(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "2:3", "--k", "0.5")
        assert code == 2
        assert "axis ratio" in err


class TestEstimate:
    def write_square_moments(self, path):
        m = forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0]))
        serialize.write_json(path, serialize.moments_to_dict(m))

    def test_noiseless_json_linear(self, tmp_path, capsys):
        p = tmp_path / "moments.json"
        self.write_square_moments(p)
        code, out, _ = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 0
        rep = json.loads(out)
        assert rep["solver"] == "linear"
        assert rep["central"]["mean_alpha"] == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(rep["central"]["v_alpha"], [1.0, 1.0], atol=1e-10)
        assert rep["stationarity"]["passed"]

    def test_nnls_agrees_with_linear(self, tmp_path, capsys):
        p = tmp_path / "moments.json"
        self.write_square_moments(p)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(p), "--solver", "nnls"
        )
        assert code == 0
        rep = json.loads(out)
        np.testing.assert_allclose(rep["central"]["v_alpha"], [1.0, 1.0], atol=1e-8)

    def test_nnls_iteration_limit_exit_3(self, tmp_path, capsys, monkeypatch):
        def give_up(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", give_up)
        p = tmp_path / "moments.json"
        self.write_square_moments(p)
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(p), "--solver", "nnls"
        )
        assert code == 3 and out == ""
        assert "iterations" in err

    def test_deterministic_disk_csv(self, tmp_path, capsys):
        # three identical disk samples: the chain isotropizes and recovers the
        # exact constant face moments
        theta = np.arange(3) * np.pi / 3.0
        h = np.tile(Disk(1.0).feret(theta), (3, 1))
        p = tmp_path / "disk.csv"
        serialize.write_sample_csv(p, theta, h)
        code, out, _ = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 0
        rep = json.loads(out)
        assert rep["central"]["mean_alpha"] == pytest.approx(np.pi / 3.0, abs=1e-9)
        v = (4.0 / 3.0) / (k_s(0.0) + 2.0 * k_s(np.pi / 3.0))
        np.testing.assert_allclose(rep["central"]["v_alpha"], v, atol=1e-9)

    def test_irregular_csv_nnls(self, tmp_path, capsys):
        # rectangle sides (0.5, 1.5) or (1.5, 0.5): E[alpha^2] = 1.25 and
        # E[alpha_1 alpha_2] = 0.75, safely inside the admissible cone
        model = IsotropicRectangle(
            Mixture([[0.5, 1.5], [1.5, 0.5]], [0.5, 0.5])
        )
        angles = np.array([0.0, 0.35, 0.8, 1.2, 1.5])
        h = np.array(
            [sample_shape(model, k, seed=4).feret(angles) for k in range(600)]
        )
        p = tmp_path / "irregular.csv"
        serialize.write_sample_csv(p, angles, h)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(p), "--n", "2", "--solver", "nnls"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["central"]["mean_alpha"] == pytest.approx(1.0, abs=0.05)
        np.testing.assert_allclose(rep["central"]["v_alpha"], [1.25, 0.75],
                                   atol=0.15)

    def test_irregular_nnls_not_psd_exit_3(self, tmp_path, capsys):
        # NNLS keeps v >= 0 but not Circ(v) PSD: on this valid table of
        # unit squares at 7 jittered angles the fit is not PSD, a numeric
        # failure rather than invalid input
        model = IsotropicRectangle(Fixed([1.0, 1.0]))
        jitter = np.random.default_rng(0).uniform(-0.1, 0.1, 7)
        angles = np.sort((regular_subdivision(7) + jitter) % np.pi)
        h = np.array([sample_shape(model, k, seed=0).feret(angles) for k in range(200)])
        p = tmp_path / "jittered.csv"
        serialize.write_sample_csv(p, angles, h)
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(p), "--n", "2", "--solver", "nnls"
        )
        assert code == 3 and out == ""
        assert "not positive semidefinite" in err and "min eigenvalue -" in err

    def test_irregular_lag_pooling_matches_pair_loop(self, monkeypatch):
        def pooled_by_loop(theta, h):
            second = (h.T @ h) / h.shape[0]
            seen = {}
            for i in range(len(theta)):
                for j in range(i, len(theta)):
                    z = abs(theta[i] - theta[j]) % np.pi
                    lag = round(min(z, np.pi - z), 12)
                    seen.setdefault(lag, []).append(second[i, j])
            return [(lag, float(np.mean(v))) for lag, v in sorted(seen.items())]

        seen_obs = []
        monkeypatch.setattr(process, "central_nnls",
                            lambda obs, n, mean_alpha: seen_obs.append(obs))
        rng = np.random.default_rng(8)
        for g in (1, 2, 5, 13, 40):
            # random angles plus a regular block, so some lags repeat
            theta = np.sort(np.concatenate([
                rng.uniform(0.0, np.pi, g),
                rng.integers(0, 9, g // 2) * (np.pi / 9) + rng.integers(0, 2) * np.pi,
            ]))
            h = rng.uniform(0.5, 2.0, size=(30, len(theta)))
            process._nnls_central(theta, (h.T @ h) / h.shape[0], float(h.mean()), 4)
            got, want = seen_obs.pop(), pooled_by_loop(theta, h)
            assert [round(lag, 12) for lag, _ in got] == [lag for lag, _ in want]
            np.testing.assert_allclose([v for _, v in got], [v for _, v in want],
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 16, 17, 64, 97, 112])
    def test_regular_grid_pooling_is_lag_average(self, monkeypatch, n):
        # at n = 97 and 112 rounding lags to 12 digits splits a lag in two
        seen_obs = []
        monkeypatch.setattr(process, "central_nnls",
                            lambda obs, n, mean_alpha: seen_obs.append(obs))
        h = np.random.default_rng(n).uniform(0.5, 2.0, size=(10, n))
        second = (h.T @ h) / 10
        process._nnls_central(regular_subdivision(n), second, 1.0, n)
        lags, means = np.array(seen_obs.pop()).T
        assert len(lags) == n // 2 + 1
        np.testing.assert_allclose(lags, regular_subdivision(n)[: n // 2 + 1],
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(means, _lag_sums(second)[: n // 2 + 1] / n,
                                   rtol=1e-14, atol=0.0)

    def test_irregular_csv_linear_rejected(self, tmp_path, capsys):
        theta = np.array([0.0, 0.4, 0.9])
        p = tmp_path / "bad.csv"
        serialize.write_sample_csv(p, theta, np.ones((3, 3)))
        code, _, err = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 2
        assert "regular grid" in err

    @pytest.mark.parametrize("solver", ["linear", "nnls"])
    @pytest.mark.parametrize("column", ["theta", "h"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_table_exit_2(self, tmp_path, capsys, solver, column, bad):
        # checked as the table is read: an infinite angle passes the grid
        # checks and yields NaN moments, and a NaN angle fails them misleadingly
        theta = ["0", bad if column == "theta" else "0.5", "1.0"]
        h = ["1.0", bad if column == "h" else "2.0", "1.5"]
        rows = [f"{s},{t},{v}" for s in (0, 1) for t, v in zip(theta, h)]
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(["sample_id,theta,h", *rows, ""]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "estimate", "--input", str(p), "--solver",
                                     solver, "--n", "2", "--epsilon", "0.1")
        assert caught == []
        assert code == 2 and out == ""
        assert f"{column} must be finite" in err

    @pytest.mark.parametrize("offset, code", [(0.0, 0), (1e-10, 0), (2e-5, 2)])
    def test_linear_solver_takes_tables_within_1e_9_of_the_grid(
            self, tmp_path, capsys, offset, code):
        theta = regular_subdivision(4) + [0.0, 0.0, 0.0, offset]
        p = tmp_path / "near.csv"
        h = np.random.default_rng(3).uniform(1.0, 2.0, size=(50, 4))
        serialize.write_sample_csv(p, theta, h)
        got, _, err = run_cli(capsys, "estimate", "--input", str(p))
        assert got == code
        assert code == 0 or "regular grid" in err

    def test_underdetermined_exit_4(self, tmp_path, capsys):
        theta = np.array([0.0, 1.5])
        p = tmp_path / "thin.csv"
        serialize.write_sample_csv(p, theta, np.ones((4, 2)) * 2.0)
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(p), "--n", "8", "--solver", "nnls"
        )
        assert code == 4
        assert "distinct observation angles" in err

    def test_ill_conditioned_exit_3(self, tmp_path, capsys):
        m = isotropize_moments(deterministic_process_moments(Disk(1.0), 16))
        p = tmp_path / "m16.json"
        serialize.write_json(p, serialize.moments_to_dict(m))
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(p), "--max-condition", "1e3"
        )
        assert code == 3
        assert "ill-conditioned" in err

    @pytest.mark.parametrize("bad", ["nan", "0", "-1"])
    def test_invalid_max_condition_exit_2(self, tmp_path, capsys, bad):
        m = isotropize_moments(deterministic_process_moments(Disk(1.0), 64))
        p = tmp_path / "m64.json"
        serialize.write_json(p, serialize.moments_to_dict(m))
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(p), "--max-condition", bad
        )
        assert code == 2 and out == ""
        assert "max_condition" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_moments_exit_2(self, tmp_path, capsys, bad):
        d = serialize.moments_to_dict(
            forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0])))
        d["second"][0][1] = bad
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_moments_nnls_exit_2(self, tmp_path, capsys, bad):
        d = serialize.moments_to_dict(
            forward_zonotope_moments(CentralFaceMoments(2, 1.0, [1.0, 1.0])))
        d["second"][0][1] = bad
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(p), "--solver", "nnls"
        )
        assert code == 2 and out == ""
        assert "second must be finite" in err

    def test_epsilon_bound(self, tmp_path, capsys):
        p = tmp_path / "moments.json"
        self.write_square_moments(p)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(p), "--epsilon", "0.1"
        )
        rep = json.loads(out)
        assert rep["epsilon"] == 0.1
        # the moments route bounds E[diam] by E[U] / 2 = 2 for the unit square
        expected = (6.0 + 2.0 * np.sqrt(2.0)) / 0.1 * np.sin(np.pi / 4.0) * 2.0
        assert rep["confidence_bound"] == pytest.approx(expected, abs=1e-9)

    def test_epsilon_bound_covers_true_mean_diameter(self, tmp_path, capsys):
        # every rectangle of the model has diameter sqrt(1.3^2 + 0.7^2); both
        # routes must bound E[diam] from above, not by a grid maximum
        base = str(tmp_path / "run")
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "isotropic_rectangle:1.3,0.7",
            "--n", "16", "--samples", "4000", "--seed", "3", "--out", base,
        )
        assert code == 0
        moments = tmp_path / "moments.json"
        serialize.write_json(moments, serialize.read_json(base + ".json")["moments"])
        truth = hausdorff_bound(16, np.hypot(1.3, 0.7)) / 0.1
        for path in (base + ".csv", str(moments)):
            code, out, _ = run_cli(
                capsys, "estimate", "--input", path, "--epsilon", "0.1"
            )
            assert code == 0
            assert json.loads(out)["confidence_bound"] >= truth

    def test_epsilon_bound_needs_two_table_angles(self, tmp_path, capsys):
        # a single angle mod pi leaves a gap of pi, so no diameter bound
        theta = np.array([0.3, 0.3 + np.pi])
        p = tmp_path / "one_angle.csv"
        serialize.write_sample_csv(p, theta, np.ones((4, 2)))
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(p), "--n", "1", "--solver", "nnls",
            "--epsilon", "0.1",
        )
        assert code == 2 and out == ""
        assert "two table angles distinct mod pi" in err

    def test_bad_epsilon(self, tmp_path, capsys):
        p = tmp_path / "moments.json"
        self.write_square_moments(p)
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(p), "--epsilon", "1.5"
        )
        assert code == 2
        assert "epsilon" in err

    def test_non_feret_json_exit_2(self, tmp_path, capsys):
        p = tmp_path / "central.json"
        central = CentralFaceMoments(2, 1.0, [1.0, 1.0])
        serialize.write_json(p, serialize.moments_to_dict(central))
        code, out, err = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 2
        assert out == ""
        assert "needs Feret-process moments" in err

    @pytest.mark.parametrize("keys", [
        {"n": 7},
        {"theta": [0.0, 0.1, 0.2, 0.3]},
        {"theta": (np.arange(4) * np.pi / 4 + [0.0, 0.0, 0.0, 2e-5]).tolist()},
    ])
    def test_moments_off_their_own_grid_exit_2(self, tmp_path, capsys, keys):
        # 4 moments that say n = 7 or give an irregular theta are not solved
        # as if they lay on the regular 4-grid
        p = tmp_path / "moments.json"
        m = deterministic_process_moments(Segment(1.0, 0.3), 4)
        serialize.write_json(p, {**serialize.moments_to_dict(m), **keys})
        code, out, err = run_cli(capsys, "estimate", "--input", str(p), "--solver", "nnls")
        assert code == 2 and out == ""
        assert "feret_moments" in err

    def test_n_mismatch(self, tmp_path, capsys):
        p = tmp_path / "moments.json"
        self.write_square_moments(p)
        code, _, err = run_cli(capsys, "estimate", "--input", str(p), "--n", "4")
        assert code == 2
        assert "n=2" in err

    def test_csv_output(self, tmp_path, capsys):
        p = tmp_path / "moments.json"
        self.write_square_moments(p)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(p), "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[1] == "quantity,index,value"
        assert lines[2].startswith("mean_alpha,")
        assert len(lines) == 2 + 1 + 2


class TestSimulate:
    def test_simulate_and_estimate_key_sets(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "simulate", "--model", "isotropic_rectangle:1.3,0.7", "--n", "4",
                "--samples", "50", "--out", "run")
        summary = json.loads((tmp_path / "run.json").read_text())
        assert set(summary) == {"command", "model", "n", "samples", "seed", "moments",
                                "stationarity", "existence", "samples_csv"}
        assert set(summary["moments"]) == {"type", "n", "theta", "mean", "second",
                                           "stderr_mean", "stderr_second"}
        code, out, _ = run_cli(capsys, "estimate", "--input", "run.csv")
        assert code == 0
        assert set(json.loads(out)) == {"command", "solver", "n", "central",
                                        "stationarity"}
        code, out, _ = run_cli(capsys, "estimate", "--input", "run.csv",
                               "--epsilon", "0.5")
        assert set(json.loads(out)) == {"command", "solver", "n", "central",
                                        "stationarity", "epsilon", "confidence_bound"}

    @pytest.mark.parametrize("solver", ["linear", "nnls"])
    def test_stationary_key_of_older_files_changes_nothing(self, tmp_path, capsys,
                                                           monkeypatch, solver):
        # simulate JSON used to carry "stationary": true in its moments; the
        # central block from such a file is the one from the same moments
        # without it, and from the sample table the moments came from
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "simulate", "--model", "isotropic_rectangle:1.3,0.7", "--n", "8",
                "--samples", "3000", "--seed", "5", "--out", "run")
        moments = json.loads((tmp_path / "run.json").read_text())["moments"]
        serialize.write_json(tmp_path / "new.json", moments)
        serialize.write_json(tmp_path / "old.json", {**moments, "stationary": True})
        centrals = []
        for path in ("old.json", "new.json", "run.csv"):
            code, out, _ = run_cli(capsys, "estimate", "--input", path, "--solver", solver)
            assert code == 0
            centrals.append(json.loads(out)["central"])
        assert centrals[0] == centrals[1] == centrals[2]

    def test_files_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "simulate", "--model", "isotropic_square", "--n", "2",
            "--samples", "200", "--seed", "7", "--out", "run",
        )
        assert code == 0
        assert out.splitlines() == ["run.csv", "run.json"]
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["samples"] == 200 and summary["seed"] == 7
        assert summary["model"]["kind"] == "isotropic_rectangle"
        assert summary["stationarity"]["passed"]
        assert summary["existence"]["passed"]
        assert summary["samples_csv"] == "run.csv"
        theta, h = serialize.read_sample_csv(tmp_path / "run.csv")
        assert h.shape == (200, 2)
        m = serialize.moments_from_dict(summary["moments"])
        np.testing.assert_allclose(m.mean, h.mean(axis=0), atol=1e-12)

    def test_model_json_inline_and_file(self, tmp_path, capsys, monkeypatch):
        # the JSON spec of a model draws the same samples as its shorthand
        monkeypatch.chdir(tmp_path)
        spec = json.dumps({"kind": "isotropic_rectangle",
                           "sides": {"dist": "fixed", "value": [1.3, 0.7]}})
        (tmp_path / "model.json").write_text(spec)
        for out, model in (("short", "isotropic_rectangle:1.3,0.7"),
                           ("inline", spec), ("file", "model.json")):
            code, _, _ = run_cli(capsys, "simulate", "--model", model, "--n", "4",
                                 "--samples", "50", "--seed", "3", "--out", out)
            assert code == 0
        want = (tmp_path / "short.csv").read_bytes()
        assert (tmp_path / "inline.csv").read_bytes() == want
        assert (tmp_path / "file.csv").read_bytes() == want

    def test_byte_identical_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["simulate", "--model", "isotropic_ellipse:2,1", "--n", "3",
                "--samples", "300", "--seed", "5"]
        monkeypatch.setenv("ZONOFIT_THREADS", "1")
        assert entry(args + ["--out", "a"]) == 0
        monkeypatch.setenv("ZONOFIT_THREADS", "4")
        assert entry(args + ["--out", "b"]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        ja = (tmp_path / "a.json").read_text().replace('"a.csv"', '"X.csv"')
        jb = (tmp_path / "b.json").read_text().replace('"b.csv"', '"X.csv"')
        assert ja == jb

    def test_deterministic_model_rows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "deterministic:square", "--n", "4",
            "--samples", "10", "--out", "det",
        )
        assert code == 0
        theta, h = serialize.read_sample_csv(tmp_path / "det.csv")
        assert h.shape == (10, 4)
        np.testing.assert_array_equal(h, np.tile(h[0], (10, 1)))
        summary = json.loads((tmp_path / "det.json").read_text())
        assert not summary["stationarity"]["passed"]

    def test_too_few_samples(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--model", "isotropic_square", "--n", "2",
            "--samples", "1",
        )
        assert code == 2
        assert "2 samples" in err

    def test_each_sample_drawn_once(self, tmp_path, capsys, monkeypatch):
        # one pass over the samples feeds both the table and the moments
        monkeypatch.chdir(tmp_path)
        drawn = []
        block = simulate.feret_sample_block

        def counted(model, n, seed, start, count):
            drawn.extend(range(start, start + count))
            return block(model, n, seed, start, count)

        # the library's name and the CLI's imported copy
        monkeypatch.setattr(simulate, "feret_sample_block", counted)
        monkeypatch.setattr(cli, "feret_sample_block", counted)
        samples = 2 * CHUNK + 7
        code, _, _ = run_cli(
            capsys, "simulate", "--model", "isotropic_ellipse:2,1", "--n", "3",
            "--samples", str(samples), "--out", "run",
        )
        assert code == 0
        assert sorted(drawn) == list(range(samples))
        summary = json.loads((tmp_path / "run.json").read_text())
        _, h = serialize.read_sample_csv(tmp_path / "run.csv")
        m = serialize.moments_from_dict(summary["moments"])
        assert h.shape == (samples, 3)
        table = empirical_moments(h)
        for name in ("mean", "second", "stderr_mean", "stderr_second"):
            np.testing.assert_array_equal(getattr(m, name), getattr(table, name))

    def test_invalid_seed_writes_no_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            capsys, "simulate", "--model", "isotropic_square", "--n", "2",
            "--samples", "10", "--seed", "-1", "--out", "run",
        )
        assert code == 2 and "seed" in err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_model_writes_no_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "simulate", "--model", "isotropic_rectangle:nan,1", "--n", "4",
            "--samples", "10", "--out", "run",
        )
        assert code == 2 and out == "" and "finite" in err
        assert list(tmp_path.iterdir()) == []


class TestParser:
    # each command's defaults differ from the previous command's
    COMMANDS = [
        ["approximate", "--shape", "square", "--n", "3"],
        ["sweep", "--n", "2,3", "--k", "1,2", "--grid", "8"],
        ["approximate", "--shape", "segment:1,0.3", "--n", "2", "--format", "csv"],
        ["estimate", "--input", "run.csv"],
        ["sweep", "--n", "2", "--k", "3", "--grid", "8", "--format", "json"],
        ["estimate", "--input", "run.csv", "--format", "csv"],
    ]

    def test_one_parser_serves_consecutive_commands(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert entry(["simulate", "--model", "isotropic_square", "--n", "4",
                      "--samples", "50", "--out", "run"]) == 0
        capsys.readouterr()
        separate = []
        for argv in self.COMMANDS:
            cli.build_parser.cache_clear()
            separate.append(run_cli(capsys, *argv))
        cli.build_parser.cache_clear()
        consecutive = [run_cli(capsys, *argv) for argv in self.COMMANDS]
        assert consecutive == separate
        assert all(code == 0 for code, _, _ in consecutive)
        assert cli.build_parser.cache_info().misses == 1

    def test_commands_are_looked_up_when_they_run(self, capsys, monkeypatch):
        # a parser built before a command was replaced runs the replacement
        cli.build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: calls.append(args.n) or 0)
        assert entry(["sweep", "--n", "2"]) == 0
        assert calls == ["2"]


class TestExitCodes:
    def test_unknown_shape_is_2(self, capsys):
        code, _, err = run_cli(capsys, "approximate", "--shape", "frisbee:1",
                               "--n", "2")
        assert code == 2
        assert err.startswith("zonofit:")

    def test_argparse_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            entry(["approximate", "--n", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            entry(["bogus-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["approximate", "--shape", "disk:1", "--n", "2", "--seed", "1"],
        ["sweep", "--n", "2", "--seed", "1"],
        ["estimate", "--input", "run.csv", "--seed", "1"],
        ["simulate", "--model", "isotropic_square", "--n", "2", "--samples", "10",
         "--format", "csv"],
    ])
    def test_options_a_command_does_not_read_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", ["c0", "cinf"])
    @pytest.mark.parametrize("spec", [
        "segment:nan,0.3", "ellipse:inf,1", "disk:nan", "ellipse:2,1,nan",
        '{"kind": "polygon", "vertices": [[NaN, 0], [0, 1], [-1, 0], [0, -1]]}',
    ])
    def test_non_finite_shape_is_2(self, capsys, spec, mode):
        code, out, err = run_cli(capsys, "approximate", "--shape", spec, "--n", "4",
                                 "--mode", mode, "--grid", "8")
        assert code == 2 and out == "" and "finite" in err

    # each constructor rejects its own non-finite numbers, before any Feret
    # evaluation could meet inf * 0 or a sampler could draw from a NaN weight
    @pytest.mark.parametrize("argv", [
        ["approximate", "--n", "4", "--shape", "ellipse:inf,1"],
        ["approximate", "--n", "4", "--shape", "ellipse:2,1,inf"],
        ["approximate", "--n", "4", "--shape", "segment:1,inf"],
        ["approximate", "--n", "4", "--shape",
         '{"kind": "rotated", "angle": Infinity, "body": {"kind": "disk", "r": 1}}'],
        ["simulate", "--n", "4", "--samples", "1000", "--out", "run",
         "--model", "isotropic_rectangle:inf,1"],
        ["simulate", "--n", "4", "--samples", "1000", "--out", "run",
         "--model", "isotropic_square:inf"],
        ["simulate", "--n", "4", "--samples", "1000", "--out", "run", "--model",
         '{"kind": "isotropic_rectangle", "sides": {"dist": "mixture", '
         '"atoms": [[1, 1], [2, 2]], "weights": [NaN, 1.0]}}'],
    ], ids=["ellipse_a", "ellipse_phi", "segment_angle", "rotated_angle",
            "rectangle_side", "square_side", "mixture_weight"])
    def test_non_finite_parameter_is_2_where_built(self, tmp_path, capsys, monkeypatch,
                                                   argv):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "finite" in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", "central.json"],
        ["approximate", "--n", "4", "--shape", '{"kind": "ellipse", "a": "x", "b": 1}'],
        ["approximate", "--n", "4", "--shape", '{"kind": "minkowski_sum", "parts": 3}'],
        ["simulate", "--n", "4", "--samples", "10", "--out", "run", "--model",
         '{"kind": "isotropic_zonotope", "n": 4, '
         '"faces": {"dist": "lognormal", "dim": 4, "sigma": "a"}}'],
    ], ids=["null_mean_alpha", "string_semiaxis", "number_parts", "string_sigma"])
    def test_wrongly_typed_json_is_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        central = {"type": "central_face_moments", "n": 2, "mean_alpha": None,
                   "v_alpha": [1.0, 0.5]}
        (tmp_path / "central.json").write_text(json.dumps(central))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "wrong type" in err
        assert [p.name for p in tmp_path.iterdir()] == ["central.json"]

    @pytest.mark.parametrize("model", [
        '{"kind": "isotropic_zonotope", "n": 3.5, '
        '"faces": {"dist": "lognormal", "dim": 3}}',
        '{"kind": "isotropic_rectangle", "sides": {"dist": "lognormal", "dim": 2.5}}',
        '{"kind": "isotropic_zonotope", "n": 4.0, '
        '"faces": {"dist": "lognormal", "dim": 4}}',
    ], ids=["zonotope_n", "lognormal_dim", "integral_float_n"])
    def test_non_integer_count_is_2(self, tmp_path, capsys, monkeypatch, model):
        # a count is never truncated into a smaller model
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "simulate", "--model", model, "--n", "4",
                                 "--samples", "10", "--out", "run")
        assert code == 2 and out == "" and "must be an integer >= 1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["c0", "cinf"])
    def test_overflowing_area_is_2(self, capsys, mode):
        # finite vertices never overflow ConvexPolygon's checks; the fitted
        # square's area, 1e320, is beyond the float range and is named
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "approximate", "--shape", "square:1e160",
                                     "--n", "4", "--mode", mode, "--grid", "8")
        assert code == 2 and out == ""
        assert err == "zonofit: zonotope area 1e320 overflows a float\n"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("rows, message", [
        ("", "sample CSV contains no data rows"),
        # finite values whose squares overflow inside the moment reduction
        ("0,0.0,1e200\n0,1.5707963267948966,2e200\n"
         "1,0.0,3e200\n1,1.5707963267948966,1e200\n", "second must be finite"),
    ], ids=["header_only", "overflowing"])
    def test_bad_table_prints_one_line(self, tmp_path, capsys, rows, message):
        p = tmp_path / "t.csv"
        p.write_text("# zonofit v1\nsample_id,theta,h\n" + rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "estimate", "--input", str(p))
        assert code == 2 and out == ""
        assert err == f"zonofit: {message}\n"
        assert caught == []

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        dest = tmp_path / "no" / "such" / "dir" / "x.json"
        code, _, err = run_cli(
            capsys, "approximate", "--shape", "disk:1", "--n", "2",
            "--out", str(dest),
        )
        assert code == 2
