"""JSON and CSV encodings for shapes, models, moments, and sample tables.

All writers are deterministic: dict keys are sorted, floats use Python's
shortest round-trip repr, and CSV files start with the version comment
line `# zonofit v1`.
"""

import csv
import io
import itertools
import json

import numpy as np

from .bodies import (
    Disk,
    Ellipse,
    MinkowskiSum,
    Rotated,
    Scaled,
    Segment,
    SymmetricPolygon,
    is_regular_subdivision,
    require_finite,
)
from .errors import ParameterError
from .process import C0FaceMoments, CentralFaceMoments, FeretProcessMoments
from .simulate import (
    DeterministicBody,
    Fixed,
    IsotropicEllipse,
    IsotropicRectangle,
    IsotropicZonotope,
    LogNormal,
    Mixture,
)
from .zonotopes import Zonotope

CSV_VERSION_LINE = "# zonofit v1"


def _numpy_default(obj):
    """json.dumps hook: numpy arrays to lists, numpy scalars to Python scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj):
    """Deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(obj, default=_numpy_default, sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w") as f:
        f.write(dumps(obj))


def read_json(path):
    with open(path) as f:
        return json.load(f)


def shape_to_dict(body):
    """JSON-ready description of a symmetric convex body."""
    if isinstance(body, Disk):
        return {"kind": "disk", "r": body.r}
    if isinstance(body, Ellipse):
        return {"kind": "ellipse", "a": body.a, "b": body.b, "phi": body.phi}
    if isinstance(body, Segment):
        return {"kind": "segment", "length": body.length, "angle": body.angle}
    if isinstance(body, SymmetricPolygon):
        return {"kind": "polygon", "vertices": body.vertices.tolist()}
    if isinstance(body, Zonotope):
        d = {"kind": "zonotope", "alpha": body.alpha.tolist(), "t": body.t}
        if body.regular:
            d["regular_n"] = body.n
        else:
            d["theta"] = body.theta.tolist()
        return d
    if isinstance(body, Rotated):
        return {"kind": "rotated", "angle": body.angle, "body": shape_to_dict(body.body)}
    if isinstance(body, Scaled):
        return {"kind": "scaled", "factor": body.factor, "body": shape_to_dict(body.body)}
    if isinstance(body, MinkowskiSum):
        return {"kind": "minkowski_sum", "parts": [shape_to_dict(p) for p in body.parts]}
    raise ParameterError(f"cannot serialize shape of type {type(body).__name__}")


def _require(d, *keys):
    missing = [k for k in keys if k not in d]
    if missing:
        raise ParameterError(
            f"{d.get('kind', d.get('dist', 'object'))!r} description is missing "
            f"key(s): {', '.join(missing)}"
        )


def shape_from_dict(d):
    """Inverse of shape_to_dict."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ParameterError("shape description must be an object with a 'kind' key")
    kind = d["kind"]
    if kind == "disk":
        _require(d, "r")
        return Disk(d["r"])
    if kind == "ellipse":
        _require(d, "a", "b")
        return Ellipse(d["a"], d["b"], d.get("phi", 0.0))
    if kind == "segment":
        _require(d, "length")
        return Segment(d["length"], d.get("angle", 0.0))
    if kind == "polygon":
        _require(d, "vertices")
        return SymmetricPolygon(d["vertices"])
    if kind == "zonotope":
        _require(d, "alpha")
        return Zonotope(d["alpha"], theta=d.get("theta"), t=d.get("t", 0.0))
    if kind == "rotated":
        _require(d, "angle", "body")
        return Rotated(shape_from_dict(d["body"]), d["angle"])
    if kind == "scaled":
        _require(d, "factor", "body")
        return Scaled(shape_from_dict(d["body"]), d["factor"])
    if kind == "minkowski_sum":
        _require(d, "parts")
        return MinkowskiSum([shape_from_dict(p) for p in d["parts"]])
    raise ParameterError(f"unknown shape kind {kind!r}")


def distribution_to_dict(dist):
    if isinstance(dist, Fixed):
        return {"dist": "fixed", "value": dist.value.tolist()}
    if isinstance(dist, Mixture):
        return {
            "dist": "mixture",
            "atoms": dist.atoms.tolist(),
            "weights": dist.weights.tolist(),
        }
    if isinstance(dist, LogNormal):
        return {"dist": "lognormal", "dim": dist.dim, "mu": dist.mu, "sigma": dist.sigma}
    raise ParameterError(f"cannot serialize distribution of type {type(dist).__name__}")


def distribution_from_dict(d):
    if not isinstance(d, dict) or "dist" not in d:
        raise ParameterError("size distribution must be an object with a 'dist' key")
    name = d["dist"]
    if name == "fixed":
        _require(d, "value")
        return Fixed(d["value"])
    if name == "mixture":
        _require(d, "atoms", "weights")
        return Mixture(d["atoms"], d["weights"])
    if name == "lognormal":
        _require(d, "dim")
        return LogNormal(d["dim"], d.get("mu", 0.0), d.get("sigma", 0.25))
    raise ParameterError(f"unknown distribution {name!r}")


def model_to_dict(model):
    """JSON-ready description of a random-shape model."""
    if isinstance(model, DeterministicBody):
        return {"kind": "deterministic_body", "body": shape_to_dict(model.body)}
    if isinstance(model, IsotropicZonotope):
        return {"kind": "isotropic_zonotope", "n": model.n,
                "faces": distribution_to_dict(model.sizes)}
    if isinstance(model, IsotropicRectangle):
        return {"kind": "isotropic_rectangle", "sides": distribution_to_dict(model.sizes)}
    if isinstance(model, IsotropicEllipse):
        return {"kind": "isotropic_ellipse",
                "semiaxes": distribution_to_dict(model.semiaxes)}
    raise ParameterError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(d):
    """Inverse of model_to_dict."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ParameterError("model description must be an object with a 'kind' key")
    kind = d["kind"]
    if kind == "deterministic_body":
        _require(d, "body")
        return DeterministicBody(shape_from_dict(d["body"]))
    if kind == "isotropic_zonotope":
        _require(d, "n", "faces")
        return IsotropicZonotope(d["n"], distribution_from_dict(d["faces"]))
    if kind == "isotropic_rectangle":
        _require(d, "sides")
        return IsotropicRectangle(distribution_from_dict(d["sides"]))
    if kind == "isotropic_ellipse":
        _require(d, "semiaxes")
        return IsotropicEllipse(distribution_from_dict(d["semiaxes"]))
    raise ParameterError(f"unknown model kind {kind!r}")


def _maybe_list(x):
    return None if x is None else np.asarray(x).tolist()


def moments_to_dict(m):
    """JSON-ready description of process, central, or interpolant face moments."""
    if isinstance(m, FeretProcessMoments):
        return {
            "type": "feret_moments",
            "n": m.n,
            "theta": m.theta.tolist(),
            "mean": m.mean.tolist(),
            "second": m.second.tolist(),
            "stderr_mean": _maybe_list(m.stderr_mean),
            "stderr_second": _maybe_list(m.stderr_second),
        }
    if isinstance(m, CentralFaceMoments):
        return {
            "type": "central_face_moments",
            "n": m.n,
            "mean_alpha": m.mean_alpha,
            "v_alpha": m.v_alpha.tolist(),
            "stderr_mean_alpha": m.stderr_mean_alpha,
            "stderr_v_alpha": _maybe_list(m.stderr_v_alpha),
            "psd_repaired": m.psd_repaired,
        }
    if isinstance(m, C0FaceMoments):
        return {
            "type": "interpolant_face_moments",
            "n": m.n,
            "mean": m.mean.tolist(),
            "second": m.second.tolist(),
            "cov": m.cov.tolist(),
            "stderr_mean": _maybe_list(m.stderr_mean),
            "stderr_second": _maybe_list(m.stderr_second),
        }
    raise ParameterError(f"cannot serialize moments of type {type(m).__name__}")


def moments_from_dict(d):
    """Inverse of moments_to_dict, dispatching on the 'type' key.

    Feret moments whose "n" is not the length of their "mean", or whose
    "theta" fails `is_regular_subdivision` or has another length, raise
    ParameterError; an older file's "stationary" is ignored.
    """
    if not isinstance(d, dict) or "type" not in d:
        raise ParameterError("moment description must be an object with a 'type' key")
    t = d["type"]
    if t == "feret_moments":
        _require(d, "mean", "second")
        m = FeretProcessMoments(d["mean"], d["second"], d.get("stderr_mean"),
                                d.get("stderr_second"))
        if d.get("n", m.n) != m.n:
            raise ParameterError(f"feret_moments has n={d['n']!r} but {m.n} means")
        theta = np.asarray(d.get("theta", m.theta), dtype=float)
        if theta.shape != (m.n,) or not is_regular_subdivision(theta):
            raise ParameterError(f"feret_moments theta is not the regular {m.n}-grid")
        return m
    if t == "central_face_moments":
        _require(d, "n", "mean_alpha", "v_alpha")
        return CentralFaceMoments(d["n"], d["mean_alpha"], d["v_alpha"],
                                  stderr_mean_alpha=d.get("stderr_mean_alpha"),
                                  stderr_v_alpha=d.get("stderr_v_alpha"))
    if t == "interpolant_face_moments":
        _require(d, "n", "mean", "second", "cov")
        return C0FaceMoments(d["n"], d["mean"], d["second"], d["cov"],
                             stderr_mean=d.get("stderr_mean"),
                             stderr_second=d.get("stderr_second"))
    raise ParameterError(f"unknown moment type {t!r}")


def format_csv(header, rows):
    """CSV text with the version comment line, then a header row, then data rows.

    Floats are rendered with repr for exact round-trips; other values with str.
    """
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
             for v in row]
        )
    return buf.getvalue()


def write_sample_csv(path, theta, h):
    """Sample table with columns sample_id,theta,h; one row per angle per sample.

    `h` is one (samples, len(theta)) array, or an iterable without a length
    that yields such row blocks; each block is written as one string, under
    consecutive sample ids.  A block that is not a 1-D or 2-D array of
    len(theta) columns (a list of blocks, say) raises ParameterError.  The
    table goes to a temporary file next to `path` that replaces `path` only
    once every block is written, so a failure at any block leaves `path` as
    it was and removes the temporary file.

    A block's text is one printf-style format: the per-sample rows
    "<id>,<repr(theta_j)>,%r", an id put into each, applied to the block's
    floats.  `%r` is `repr`, the shortest round-trip text of a float, so
    the bytes are those of a per-row writer that calls repr on every value.
    """
    import os

    theta = np.asarray(theta, dtype=float).tolist()
    row = "".join("{id},%r,%%r\n" % t for t in theta)
    need = f"need 1-D or 2-D blocks of {len(theta)} angles per sample"

    def checked(block):
        try:
            block = np.atleast_2d(np.asarray(block, dtype=float))
        except ValueError as e:
            raise ParameterError(f"{need}: {e}") from e
        if block.ndim != 2 or block.shape[1] != len(theta):
            raise ParameterError(f"{need}, got shape {block.shape}")
        return block

    blocks = map(checked, (h,) if hasattr(h, "__len__") else h)
    block, start = next(blocks, None), 0
    # mode "x" creates the file as open(path, "w") would, and never reuses
    # one; a table that replaces a file keeps that file's mode, as open would
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "x", newline="")
    try:
        with f:
            f.write(f"{CSV_VERSION_LINE}\nsample_id,theta,h\n")
            while block is not None:
                end = start + len(block)
                fmt = "".join([row.replace("{id}", str(i)) for i in range(start, end)])
                f.write(fmt % tuple(block.ravel().tolist()))
                block, start = next(blocks, None), end
        if os.path.exists(path):
            os.chmod(tmp, os.stat(path).st_mode)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _content_lines(f):
    """The lines of an open text file that are neither blank nor comments."""
    return (ln for ln in f if ln.strip() and not ln.lstrip().startswith("#"))


def _is_sample_row(row):
    """True when a parsed CSV row reads as integer, float, float."""
    try:
        return len(row) == 3 and bool([int(row[0]), float(row[1]), float(row[2])])
    except ValueError:
        return False


def _parse_sample_rows(lines):
    """The (id, th, h) records of an iterable of data lines."""
    return np.loadtxt(lines, dtype=[("id", "i8"), ("th", "f8"), ("h", "f8")],
                      delimiter=",", comments=None, quotechar='"', ndmin=1)


def _header_and_lines(f):
    """The header fields of an open table, and its content lines after them."""
    lines = _content_lines(f)
    return next(csv.reader(lines), None), lines


def _filtered_rows(f):
    """The records of an open table's content lines, read from its start; a
    malformed row raises ParameterError naming it, found in a second read."""
    def content():
        f.seek(0)
        return _header_and_lines(f)[1]

    try:
        return _parse_sample_rows(content())
    except ValueError as e:
        # the parse consumed the lines as it streamed: read them again to name the bad row
        bad = next((r for r in csv.reader(content()) if not _is_sample_row(r)), str(e))
        raise ParameterError(f"malformed sample CSV row: {bad!r}") from e


def read_sample_csv(path):
    """Parse a sample_id,theta,h table into (theta, h-matrix).

    sample_id is an integer (" 1" and "1" name one sample); theta and h are
    finite floats, a NaN or infinite one raising ParameterError that names
    its column.  Every sample must report the same angle grid, in any row order.
    Returns theta sorted ascending and h with shape (samples, len(theta)),
    its rows in first-appearance order of sample_id.

    Blank lines and `#` comments may stand anywhere.  After the first data
    row the open file itself goes to `np.loadtxt`, which skips empty lines
    in C.  A whitespace-only line, a comment or a malformed row makes that
    parse raise; only then is the file re-read through the line filter
    (`_content_lines`) by the same parse, which either reads the table or
    fails on a malformed row that the error names.  Both passes hand one
    parser the same data rows, so they give the same arrays bit for bit.  A
    file that cannot seek, such as a named pipe, is read into memory when
    opened and then takes the same two passes.
    """
    with open(path) as f:
        if not f.seekable():
            # a pipe reads once: hold its text so that the parse can seek back
            f = io.StringIO(f.read())
        header, lines = _header_and_lines(f)
        if header is None or [c.strip() for c in header] != ["sample_id", "theta", "h"]:
            raise ParameterError("sample CSV must have the header sample_id,theta,h")
        first_row = next(lines, None)
        if first_row is None:
            raise ParameterError("sample CSV contains no data rows")
        try:
            rows = _parse_sample_rows(itertools.chain([first_row], f))
        except ValueError:
            rows = _filtered_rows(f)
    require_finite(theta=rows["th"], h=rows["h"])
    # number each row's sample by first appearance, then sort by (sample, theta)
    _, first, inverse = np.unique(rows["id"], return_index=True, return_inverse=True)
    sample = np.argsort(np.argsort(first))[inverse]
    order = np.lexsort((rows["th"], sample))
    sample, th = sample[order], rows["th"][order]
    repeat = (sample[1:] == sample[:-1]) & (th[1:] == th[:-1])
    if repeat.any():
        sid = rows["id"][order][1:][repeat][0]
        raise ParameterError(f"sample '{sid}' repeats an angle")
    counts = np.bincount(sample)
    if np.ptp(counts) or (th.reshape(len(counts), -1)[1:] != th[: counts[0]]).any():
        raise ParameterError("all samples must share one angle grid")
    return th[: counts[0]].copy(), rows["h"][order].reshape(len(counts), -1)
