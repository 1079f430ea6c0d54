"""Round trips and determinism of the JSON/CSV encodings."""

import csv

import numpy as np
import pytest

from zonofit import (
    CHUNK,
    CSV_VERSION_LINE,
    CentralFaceMoments,
    DeterministicBody,
    Disk,
    Ellipse,
    Fixed,
    IsotropicEllipse,
    IsotropicRectangle,
    IsotropicZonotope,
    LogNormal,
    MinkowskiSum,
    Mixture,
    ParameterError,
    Rotated,
    Scaled,
    Segment,
    SymmetricPolygon,
    Zonotope,
    c0_random_moments,
    distribution_from_dict,
    distribution_to_dict,
    deterministic_process_moments,
    dumps,
    feret_sample_block,
    format_csv,
    forward_zonotope_moments,
    model_from_dict,
    model_to_dict,
    moments_from_dict,
    moments_to_dict,
    read_sample_csv,
    regular_subdivision,
    shape_from_dict,
    shape_to_dict,
    write_sample_csv,
)
from zonofit import cli, serialize

SHAPES = [
    Disk(1.5),
    Ellipse(3.0, 1.0, phi=0.25),
    Segment(2.0, angle=0.7),
    SymmetricPolygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]),
    Zonotope([1.0, 2.0, 3.0], t=0.1),
    Zonotope([1.0, 2.0], theta=[0.2, 1.4]),
    Rotated(Ellipse(2.0, 1.0), 0.4),
    Scaled(Disk(1.0), 2.5),
    MinkowskiSum([Disk(0.5), Segment(1.0, 0.3)]),
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: type(s).__name__)
def test_shape_round_trip(shape):
    d = shape_to_dict(shape)
    back = shape_from_dict(d)
    th = np.linspace(0.0, np.pi, 37)
    np.testing.assert_allclose(back.feret(th), shape.feret(th), atol=1e-14)
    assert shape_to_dict(back) == d


def test_regular_zonotope_keeps_flag():
    d = shape_to_dict(Zonotope([1.0, 2.0, 3.0]))
    assert d["regular_n"] == 3
    assert shape_from_dict(d).regular


@pytest.mark.parametrize("offset, regular", [(0.0, True), (1e-10, True), (1e-6, False)])
def test_zonotope_theta_survives_round_trip(offset, regular):
    # directions within 1e-9 rad of the grid are the grid; any others are kept
    theta = regular_subdivision(4) + [0.0, offset, 0.0, 0.0]
    z = Zonotope([1.0] * 4, theta=theta)
    back = shape_from_dict(shape_to_dict(z))
    assert z.regular == back.regular == regular
    want = regular_subdivision(4) if regular else theta
    np.testing.assert_array_equal(z.theta, want)
    np.testing.assert_array_equal(back.theta, want)


def test_shape_dict_errors():
    with pytest.raises(ParameterError, match="kind"):
        shape_from_dict({"r": 1.0})
    with pytest.raises(ParameterError, match="unknown shape"):
        shape_from_dict({"kind": "frisbee"})
    with pytest.raises(ParameterError, match="missing"):
        shape_from_dict({"kind": "disk"})
    with pytest.raises(ParameterError, match="cannot serialize"):
        shape_to_dict(object())


@pytest.mark.parametrize(
    "dist",
    [
        Fixed([1.0, 2.0]),
        Mixture([[1.0], [2.0]], [0.25, 0.75]),
        LogNormal(3, mu=0.2, sigma=0.4),
    ],
    ids=lambda d: type(d).__name__,
)
def test_distribution_round_trip(dist):
    d = distribution_to_dict(dist)
    back = distribution_from_dict(d)
    assert distribution_to_dict(back) == d
    if dist.draw_count:
        u = np.linspace(0.05, 0.95, 4 * dist.draw_count).reshape(4, -1)
    else:
        u = np.zeros((4, 0))
    np.testing.assert_allclose(back.transform(u), dist.transform(u), atol=1e-15)


@pytest.mark.parametrize(
    "model",
    [
        DeterministicBody(Ellipse(3.0, 1.0)),
        IsotropicZonotope(4, LogNormal(4)),
        IsotropicRectangle(Mixture([[1.0, 2.0], [2.0, 1.0]], [0.5, 0.5])),
        IsotropicEllipse(Fixed([3.0, 1.0])),
    ],
    ids=lambda m: model_to_dict(m)["kind"],
)
def test_model_round_trip(model):
    d = model_to_dict(model)
    back = model_from_dict(d)
    assert model_to_dict(back) == d
    assert type(back) is type(model)
    assert back.words_per_sample == model.words_per_sample


def test_model_dict_errors():
    with pytest.raises(ParameterError, match="unknown model"):
        model_from_dict({"kind": "teapot"})
    with pytest.raises(ParameterError, match="missing"):
        model_from_dict({"kind": "isotropic_zonotope", "n": 3})


def test_process_moments_round_trip():
    m = forward_zonotope_moments(CentralFaceMoments(3, 1.0, [2.0, 1.0, 1.0]))
    back = moments_from_dict(moments_to_dict(m))
    np.testing.assert_array_equal(back.mean, m.mean)
    np.testing.assert_array_equal(back.second, m.second)
    assert back.stderr_mean is None
    assert set(moments_to_dict(m)) == {"type", "n", "theta", "mean", "second",
                                       "stderr_mean", "stderr_second"}


def test_process_moments_ignore_stationary_key():
    # files written before the declaration was dropped still load
    m = forward_zonotope_moments(CentralFaceMoments(3, 1.0, [2.0, 1.0, 1.0]))
    for flag in (True, False):
        back = moments_from_dict({**moments_to_dict(m), "stationary": flag})
        np.testing.assert_array_equal(back.mean, m.mean)
        np.testing.assert_array_equal(back.second, m.second)
        assert not hasattr(back, "stationary")


@pytest.mark.parametrize("key, value, match", [
    ("n", 7, "n=7"),
    ("n", 3, "n=3"),
    ("theta", [0.0, 0.1, 0.2, 0.3], "regular 4-grid"),
    ("theta", (np.arange(4) * np.pi / 4 + 2e-9).tolist(), "regular 4-grid"),
    ("theta", (np.arange(5) * np.pi / 5).tolist(), "regular 4-grid"),
    ("theta", (np.arange(4) * np.pi / 4 + [0.0, 0.0, 0.0, 2e-5]).tolist(), "regular 4-grid"),
])
def test_process_moments_must_match_their_grid(key, value, match):
    d = moments_to_dict(deterministic_process_moments(Disk(1.0), 4))
    with pytest.raises(ParameterError, match=match):
        moments_from_dict({**d, key: value})


def test_process_moments_grid_keys_optional():
    d = moments_to_dict(deterministic_process_moments(Disk(1.0), 4))
    d["theta"] = (np.arange(4) * np.pi / 4 + 5e-10).tolist()
    assert moments_from_dict(d).n == 4
    del d["n"], d["theta"]
    assert moments_from_dict(d).n == 4


def test_central_moments_round_trip():
    c = CentralFaceMoments(4, 1.5, [4.0, 2.0, 1.0, 2.0],
                           stderr_mean_alpha=0.01, stderr_v_alpha=[0.1] * 4)
    back = moments_from_dict(moments_to_dict(c))
    assert back.mean_alpha == c.mean_alpha
    np.testing.assert_array_equal(back.v_alpha, c.v_alpha)
    assert back.stderr_mean_alpha == 0.01


def test_interpolant_moments_round_trip():
    fm = c0_random_moments(deterministic_process_moments(Disk(1.0), 3), 3)
    back = moments_from_dict(moments_to_dict(fm))
    np.testing.assert_array_equal(back.mean, fm.mean)
    np.testing.assert_array_equal(back.cov, fm.cov)


def test_moments_dict_errors():
    with pytest.raises(ParameterError, match="type"):
        moments_from_dict({"n": 2})
    with pytest.raises(ParameterError, match="unknown moment"):
        moments_from_dict({"type": "third_moments"})


def test_dumps_deterministic_and_sorted():
    a = dumps({"b": 1, "a": np.float64(0.5), "c": np.arange(3)})
    b = dumps({"a": 0.5, "c": [0, 1, 2], "b": np.int64(1)})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')
    assert a.endswith("\n")


def test_dumps_handles_numpy_bool():
    assert '"flag": true' in dumps({"flag": np.bool_(True)})


def test_dumps_numpy_values_match_python_values():
    numpy_obj = {"x": np.float32(0.1), "y": (np.int32(3), np.arange(2.0)),
                 "z": [np.float64(1e-300), np.array([[True], [False]])]}
    python_obj = {"x": float(np.float32(0.1)), "y": [3, [0.0, 1.0]],
                  "z": [1e-300, [[True], [False]]]}
    assert dumps(numpy_obj) == dumps(python_obj)


def test_dumps_rejects_other_objects():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        dumps({"a": object()})


def test_format_csv_version_line_and_reprs():
    text = format_csv(["x", "y"], [(1, 0.1), (2, 1.0 / 3.0)])
    lines = text.splitlines()
    assert lines[0] == CSV_VERSION_LINE
    assert lines[1] == "x,y"
    assert float(lines[3].split(",")[1]) == 1.0 / 3.0


def test_sample_csv_round_trip(tmp_path):
    theta = np.array([0.0, np.pi / 3.0, 2.0 * np.pi / 3.0])
    h = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 1.0 / 7.0]])
    path = tmp_path / "samples.csv"
    write_sample_csv(path, theta, h)
    th_back, h_back = read_sample_csv(path)
    np.testing.assert_array_equal(th_back, theta)
    np.testing.assert_array_equal(h_back, h)


def test_sample_csv_reorders_rows(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text(
        "# zonofit v1\n"
        "sample_id,theta,h\n"
        "0,1.0,20.0\n"
        "1,0.0,30.0\n"
        "0,0.0,10.0\n"
        "1,1.0,40.0\n"
    )
    theta, h = read_sample_csv(path)
    np.testing.assert_array_equal(theta, [0.0, 1.0])
    np.testing.assert_array_equal(h, [[10.0, 20.0], [30.0, 40.0]])


def test_sample_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("sample,angle,value\n0,0.0,1.0\n")
    with pytest.raises(ParameterError, match="header"):
        read_sample_csv(bad_header)

    ragged = tmp_path / "b.csv"
    ragged.write_text("sample_id,theta,h\n0,0.0,1.0\n1,0.5,1.0\n")
    with pytest.raises(ParameterError, match="share one angle grid"):
        read_sample_csv(ragged)

    repeated = tmp_path / "c.csv"
    repeated.write_text("sample_id,theta,h\n0,0.0,1.0\n0,0.0,2.0\n")
    with pytest.raises(ParameterError, match="repeats"):
        read_sample_csv(repeated)

    empty = tmp_path / "d.csv"
    empty.write_text("# zonofit v1\nsample_id,theta,h\n")
    with pytest.raises(ParameterError, match="no data"):
        read_sample_csv(empty)

    text = tmp_path / "e.csv"
    text.write_text("sample_id,theta,h\n0,zero,1.0\n")
    with pytest.raises(ParameterError, match="malformed"):
        read_sample_csv(text)


def _csv_writer_oracle(path, theta, blocks):
    """The sample table as the per-row csv.writer loop wrote it."""
    with open(path, "w", newline="") as f:
        f.write(CSV_VERSION_LINE + "\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["sample_id", "theta", "h"])
        start = 0
        for h in blocks:
            for i in range(h.shape[0]):
                for j in range(len(theta)):
                    w.writerow([start + i, repr(float(theta[j])), repr(float(h[i, j]))])
            start += h.shape[0]


@pytest.mark.parametrize("spec, n", [
    ("isotropic_rectangle:1.3,0.7", 5),
    ("isotropic_ellipse:2,1", 4),
    ("deterministic:square:1.2", 3),
])
def test_simulate_table_bytes_match_csv_writer(tmp_path, capsys, monkeypatch, spec, n):
    # CHUNK + 7 samples: the last chunk is partial
    monkeypatch.chdir(tmp_path)
    samples, seed = CHUNK + 7, 3
    assert cli.main(["simulate", "--model", spec, "--n", str(n), "--samples",
                     str(samples), "--seed", str(seed), "--out", "run"]) == 0
    capsys.readouterr()
    model = cli.parse_model(spec)
    blocks = [feret_sample_block(model, n, seed, start, min(CHUNK, samples - start))
              for start in range(0, samples, CHUNK)]
    theta = regular_subdivision(n)
    _csv_writer_oracle(tmp_path / "oracle.csv", theta, blocks)
    oracle = (tmp_path / "oracle.csv").read_bytes()
    assert (tmp_path / "run.csv").read_bytes() == oracle

    h = np.vstack(blocks)
    write_sample_csv(tmp_path / "array.csv", theta, h)
    assert (tmp_path / "array.csv").read_bytes() == oracle
    th_back, h_back = read_sample_csv(tmp_path / "array.csv")
    np.testing.assert_array_equal(th_back, theta)
    np.testing.assert_array_equal(h_back, h)


def test_sample_csv_writer_edge_floats_match_csv_writer(tmp_path):
    theta = np.array([-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 1 / 3])
    h = np.array([np.roll(theta, k) for k in range(6)])
    h = np.vstack([h, -h])
    _csv_writer_oracle(tmp_path / "oracle.csv", theta, [h])
    write_sample_csv(tmp_path / "table.csv", theta, h)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_sample_csv_writer_ids_across_digits_match_csv_writer(tmp_path):
    # ids 9 -> 10, 99 -> 100 and 9999 -> 10000, inside one block and at the
    # boundaries of an iterator of blocks
    theta = np.array([0.0, 1 / 3, 2.5])
    h = np.arange(10003 * 3).reshape(10003, 3) / 7.0
    cuts = [0, 10, 100, 10000, 10003]
    blocks = [h[a:b] for a, b in zip(cuts, cuts[1:])]
    _csv_writer_oracle(tmp_path / "oracle.csv", theta, [h])
    oracle = (tmp_path / "oracle.csv").read_bytes()
    write_sample_csv(tmp_path / "whole.csv", theta, h)
    write_sample_csv(tmp_path / "blocks.csv", theta, iter(blocks))
    assert (tmp_path / "whole.csv").read_bytes() == oracle
    assert (tmp_path / "blocks.csv").read_bytes() == oracle


def test_sample_csv_writer_takes_blocks(tmp_path):
    theta = [0.0, 0.5, 1.5]
    h = np.arange(21.0).reshape(7, 3) / 3.0
    write_sample_csv(tmp_path / "whole.csv", theta, h)
    write_sample_csv(tmp_path / "blocks.csv", theta, iter([h[:2], h[2:3], h[3:]]))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # a 1-D array is one sample
    write_sample_csv(tmp_path / "one.csv", theta, h[0])
    np.testing.assert_array_equal(read_sample_csv(tmp_path / "one.csv")[1], h[:1])


def test_sample_csv_writer_rejects_wrong_angle_count(tmp_path):
    with pytest.raises(ParameterError, match="angles per sample"):
        write_sample_csv(tmp_path / "a.csv", [0.0, 1.0], np.ones((2, 3)))


def test_sample_csv_writer_rejects_blocks_of_blocks(tmp_path):
    # a list or a 3-D array has a length, so it is read as one block: its
    # rows would be written as list reprs that the reader rejects
    theta = [0.0, 1.0, 2.0]
    h = np.arange(18.0).reshape(2, 3, 3)
    for name, blocks in (("3d", h), ("list", [h[0], h[1]]), ("tuple", (h[0], h[1]))):
        path = tmp_path / f"{name}.csv"
        with pytest.raises(ParameterError, match=r"got shape \(2, 3, 3\)"):
            write_sample_csv(path, theta, blocks)
        assert not path.exists()


def test_sample_csv_writer_checks_first_block_before_creating_file(tmp_path):
    theta = [0.0, 1.0, 2.0]
    h = np.arange(15.0).reshape(5, 3)
    ragged = tmp_path / "ragged.csv"
    with pytest.raises(ParameterError, match="angles per sample"):
        write_sample_csv(ragged, theta, [h[:2], h[2:]])
    assert not ragged.exists()
    for name, blocks in (("array", h[:, :2]), ("stream", iter([h[:, :2], h]))):
        path = tmp_path / f"{name}.csv"
        with pytest.raises(ParameterError, match=r"got shape \(5, 2\)"):
            write_sample_csv(path, theta, blocks)
        assert not path.exists()


def test_sample_csv_writer_failure_leaves_path_as_it_was(tmp_path):
    theta = [0.0, 1.0, 2.0]
    h = np.arange(15.0).reshape(5, 3)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for path in (new, old):
        with pytest.raises(ParameterError, match=r"got shape \(5, 2\)"):
            write_sample_csv(path, theta, iter([h, h[:, :2]]))
    assert not new.exists()
    assert old.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


def test_sample_csv_writer_mode_and_overwrite_match_open(tmp_path):
    table, plain = tmp_path / "table.csv", tmp_path / "plain.csv"
    write_sample_csv(table, [0.0], np.ones((3, 1)))
    with open(plain, "w"):
        pass
    assert table.stat().st_mode == plain.stat().st_mode
    # over an existing file, the table keeps that file's mode
    for mode in (0o600, 0o640):
        table.chmod(mode)
        write_sample_csv(table, [0.0], np.full((1, 1), float(mode)))
        assert table.stat().st_mode & 0o777 == mode
        np.testing.assert_array_equal(read_sample_csv(table)[1], [[float(mode)]])


def test_sample_csv_writer_opens_file_after_first_block(tmp_path):
    def failing():
        raise ParameterError("no samples")
        yield

    with pytest.raises(ParameterError, match="no samples"):
        write_sample_csv(tmp_path / "a.csv", [0.0], failing())
    assert not (tmp_path / "a.csv").exists()


def _per_row_reader_oracle(path):
    """The sample table as the per-row dict parser read it."""
    with open(path) as f:
        lines = [ln for ln in f if ln.strip() and not ln.lstrip().startswith("#")]
    data = {}
    for row in list(csv.reader(lines))[1:]:
        data.setdefault(row[0].strip(), []).append((float(row[1]), float(row[2])))
    table = {sid: sorted(pairs) for sid, pairs in data.items()}
    theta = np.array([p[0] for p in next(iter(table.values()))])
    return theta, np.array([[p[1] for p in table[sid]] for sid in data])


def test_sample_csv_reader_matches_per_row_parser(tmp_path):
    rng = np.random.default_rng(8)
    theta = regular_subdivision(16)
    h = rng.lognormal(0.0, 3.0, size=(9000, 16)) * rng.choice([1e-300, 1.0, 1e300], 16)
    path = tmp_path / "big.csv"
    write_sample_csv(path, theta, h)
    lines = path.read_text().splitlines(keepends=True)
    data = lines[2:]
    order = rng.permutation(len(data))
    path.write_text("".join(lines[:2] + [data[i] for i in order]))
    th_new, h_new = read_sample_csv(path)
    th_old, h_old = _per_row_reader_oracle(path)
    assert np.array_equal(th_new, th_old) and np.array_equal(h_new, h_old)
    # shuffled rows: samples come back in first-appearance order
    first_ids = list(dict.fromkeys(int(data[i].split(",")[0]) for i in order))
    np.testing.assert_array_equal(h_new, h[first_ids])


def test_sample_csv_first_appearance_order(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(
        "sample_id,theta,h\n"
        "5,1.0,51\n"
        "12,0.0,120\n"
        "5,0.0,50\n"
        "-3,1.0,-31\n"
        "12,1.0,121\n"
        "-3,0.0,-30\n"
    )
    theta, h = read_sample_csv(path)
    np.testing.assert_array_equal(theta, [0.0, 1.0])
    np.testing.assert_array_equal(h, [[50, 51], [120, 121], [-30, -31]])


def test_sample_csv_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(
        "# zonofit v1\n"
        "\n"
        "sample_id,theta,h\n"
        "0,0.0,1.0\n"
        "   \n"
        "  # a note between rows\n"
        "0,1.0,2.0\n"
        "\t\n"
        "1,0.0,3.0\n"
        "# another\n"
        "1,1.0,4.0\n"
    )
    theta, h = read_sample_csv(path)
    np.testing.assert_array_equal(theta, [0.0, 1.0])
    np.testing.assert_array_equal(h, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("row", ["0,0.5", "0,0.5,1.0,2.0", "1.5,0.5,1.0", "a,0.5,1.0",
                                 "0,0.5,", "0,0.5,1.0 # note"])
def test_sample_csv_malformed_rows(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"sample_id,theta,h\n0,0.0,1.0\n{row}\n")
    with pytest.raises(ParameterError, match="malformed") as info:
        read_sample_csv(path)
    assert repr(row.split(",")) in str(info.value)


def test_sample_csv_streamed_parse_is_exact(tmp_path):
    # the reader streams its lines into the parser: comments, blank lines and
    # quoted fields between the rows of a large table change nothing
    rng = np.random.default_rng(5)
    theta = regular_subdivision(16)
    h = rng.lognormal(0.0, 1.0, size=(3000, 16))
    plain = tmp_path / "plain.csv"
    write_sample_csv(plain, theta, h)
    lines = plain.read_text().splitlines(keepends=True)
    noisy = lines[:2]
    for i, ln in enumerate(lines[2:]):
        sid, th, val = ln.rstrip("\n").split(",")
        noisy.append(f'{sid},"{th}",{val}\n' if i % 7 == 0 else ln)
        noisy.append(["", "\n", "  # note\n"][i % 3])
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("".join(noisy))
    th_a, h_a = read_sample_csv(plain)
    th_b, h_b = read_sample_csv(spaced)
    assert np.array_equal(th_a, theta) and np.array_equal(h_a, h)
    assert np.array_equal(th_b, th_a) and np.array_equal(h_b, h_a)


def test_sample_csv_raw_and_filtered_routes_agree(tmp_path, monkeypatch):
    # a table as written, with CRLF line ends or with a trailing blank line
    # parses from the open file; a trailing comment sends it through the filter
    rng = np.random.default_rng(21)
    theta = regular_subdivision(16)
    h = rng.lognormal(0.0, 3.0, size=(500, 16))
    write_sample_csv(tmp_path / "table.csv", theta, h)
    text = (tmp_path / "table.csv").read_bytes()
    variants = {"written": text, "crlf": text.replace(b"\n", b"\r\n"),
                "blank": text + b"\n", "comment": text + b"# note\n"}
    filters = []
    content_lines = serialize._content_lines
    monkeypatch.setattr(serialize, "_content_lines",
                        lambda f: filters.append(1) or content_lines(f))
    routes = {}
    for name, data in variants.items():
        (tmp_path / f"{name}.csv").write_bytes(data)
        filters.clear()
        th, hh = read_sample_csv(tmp_path / f"{name}.csv")
        routes[name] = len(filters)
        assert np.array_equal(th, theta) and np.array_equal(hh, h)
    # one filter reads the header; the filtered route needs a second
    assert routes == {"written": 1, "crlf": 1, "blank": 1, "comment": 2}


def test_sample_csv_malformed_row_named_after_long_prefix(tmp_path):
    path = tmp_path / "late.csv"
    write_sample_csv(path, regular_subdivision(4), np.ones((20000, 4)))
    with open(path, "a") as f:
        f.write("# trailing note\n7,0.5,oops\n")
    with pytest.raises(ParameterError, match="malformed") as info:
        read_sample_csv(path)
    assert repr(["7", "0.5", "oops"]) in str(info.value)


def test_sample_csv_ids_ignore_blanks(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("sample_id,theta,h\n 1,0.0,1.0\n1,1.0,2.0\n2 ,1.0,4.0\n2,0.0,3.0\n")
    theta, h = read_sample_csv(path)
    np.testing.assert_array_equal(h, [[1.0, 2.0], [3.0, 4.0]])


def test_sample_csv_grid_errors_name_the_sample(tmp_path):
    path = tmp_path / "rep.csv"
    path.write_text("sample_id,theta,h\n4,0.0,1.0\n4,1.0,1.0\n7,0.0,1.0\n7,0.0,2.0\n")
    with pytest.raises(ParameterError, match="sample '7' repeats an angle"):
        read_sample_csv(path)
    path.write_text("sample_id,theta,h\n4,0.0,1.0\n4,1.0,1.0\n7,0.0,1.0\n")
    with pytest.raises(ParameterError, match="share one angle grid"):
        read_sample_csv(path)
