"""Command-line front end: approximate, sweep, estimate, simulate.

Every command is a thin orchestration of library calls; outputs are
byte-equal to calling the library directly with the same configuration.
`estimate` takes its input to be on the regular grid exactly when
`is_regular_subdivision` accepts its angles, and only then runs the linear
solver; `--solver nnls` pools any grid by lag through the process module.
Exit codes: 0 success, 2 invalid input, 3 numeric failure, 4 underdetermined
estimation.  `simulate` draws each chunk of samples once, in table order,
and feeds it to both the sample table and the moment reducer; the
ZONOFIT_THREADS worker cap of the library's sampler does not apply to it.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import serialize
from .approx import (
    c0_approximate,
    cinf_approximate,
    hausdorff_bound,
    scan_offsets,
)
from .bodies import (
    Disk,
    Ellipse,
    Segment,
    SymmetricPolygon,
    is_regular_subdivision,
    regular_subdivision,
)
from .errors import SolverError, UnderdeterminedError, ZonofitError, ParameterError
from .metrics import diameter, hausdorff_distance, perimeter_cauchy
from .process import (
    FeretProcessMoments,
    _nnls_central,
    central_from_feret,
    confidence_bound,
    existence_check,
    stationarity_diagnostic,
)
from .simulate import (
    CHUNK,
    DeterministicBody,
    Fixed,
    IsotropicEllipse,
    IsotropicRectangle,
    chunk_state,
    empirical_moments,
    feret_sample_block,
    reduce_states,
)


def square_body(side=1.0):
    """Axis-aligned square of the given side, centered at the origin."""
    s = 0.5 * float(side)
    if s <= 0:
        raise ParameterError(f"side must be positive, got {side}")
    return SymmetricPolygon([[s, s], [-s, s], [-s, -s], [s, -s]])


def _float_args(text, spec):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as e:
        raise ParameterError(f"bad numeric parameters in {spec!r}") from e


def parse_shape(spec):
    """Shape from inline JSON, a .json file path, or `kind:p1,p2,...` shorthand.

    Shorthands: disk:r | ellipse:a,b[,phi] | segment:length[,angle] |
    square[:side].
    """
    spec = spec.strip()
    if spec.startswith("{"):
        return _decode(serialize.shape_from_dict, _loads(spec))
    if spec.endswith(".json"):
        return _decode(serialize.shape_from_dict, _read_json(spec))
    kind, _, rest = spec.partition(":")
    vals = _float_args(rest, spec)
    if kind == "disk" and len(vals) == 1:
        return Disk(vals[0])
    if kind == "ellipse" and len(vals) in (2, 3):
        return Ellipse(*vals)
    if kind == "segment" and len(vals) in (1, 2):
        return Segment(*vals)
    if kind == "square" and len(vals) in (0, 1):
        return square_body(*vals)
    raise ParameterError(f"cannot parse shape spec {spec!r}")


def parse_model(spec):
    """Random-shape model from inline JSON, a .json file, or a shorthand.

    Shorthands: deterministic:<shape> | isotropic_square[:side] |
    isotropic_rectangle:a,b | isotropic_ellipse:a,b.
    """
    spec = spec.strip()
    if spec.startswith("{"):
        return _decode(serialize.model_from_dict, _loads(spec))
    if spec.endswith(".json"):
        return _decode(serialize.model_from_dict, _read_json(spec))
    kind, _, rest = spec.partition(":")
    if kind == "deterministic" and rest:
        return DeterministicBody(parse_shape(rest))
    vals = _float_args(rest, spec)
    if kind == "isotropic_square" and len(vals) in (0, 1):
        side = vals[0] if vals else 1.0
        if side <= 0:
            raise ParameterError(f"side must be positive, got {side}")
        return IsotropicRectangle(Fixed([side, side]))
    if kind == "isotropic_rectangle" and len(vals) == 2:
        return IsotropicRectangle(Fixed(vals))
    if kind == "isotropic_ellipse" and len(vals) == 2:
        return IsotropicEllipse(Fixed(vals))
    raise ParameterError(f"cannot parse model spec {spec!r}")


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParameterError(f"bad inline JSON: {e}") from e


def _decode(from_dict, d):
    """from_dict(d), a JSON value of the wrong type raising ParameterError."""
    try:
        return from_dict(d)
    except TypeError as e:
        raise ParameterError(f"wrong type of JSON value: {e}") from e


def _read_json(path):
    try:
        return serialize.read_json(path)
    except FileNotFoundError as e:
        raise ParameterError(f"no such file: {path}") from e
    except json.JSONDecodeError as e:
        raise ParameterError(f"{path} is not valid JSON: {e}") from e


def parse_int_list(text):
    """Integers from `a:b` (inclusive range) or a comma list; may be empty."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as e:
        raise ParameterError(f"bad integer list {text!r}") from e


def _emit(text, out):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_approximate(args):
    x = parse_shape(args.shape)
    n = args.n
    if args.mode == "c0":
        tau, z = 0.0, c0_approximate(x, n)
    else:
        tau, z = cinf_approximate(x, n, grid_points=args.grid)
    report = {
        "command": "approximate",
        "mode": args.mode,
        "n": n,
        "tau": tau,
        "theta": z.theta,
        "alpha": z.alpha,
        "d_hausdorff": hausdorff_distance(x, z),
        "bound": hausdorff_bound(n, diameter(x)),
        "perimeter": z.perimeter(),
        "area": z.area(),
        "vertices": z.vertices().vertices,
    }
    if args.format == "csv":
        _emit(serialize.format_csv(["x", "y"], report["vertices"]), args.out)
    else:
        _emit(serialize.dumps(report), args.out)
    return 0


def cmd_sweep(args):
    ns = parse_int_list(args.n)
    if not ns:
        raise ParameterError("need at least one n value")
    ks = _float_args(args.k, args.k)
    if not ks:
        raise ParameterError("need at least one axis ratio")
    rows = []
    for k in sorted(ks):
        if k < 1:
            raise ParameterError(f"axis ratio must be >= 1, got {k}")
        raw = Ellipse(k, 1.0)
        u = perimeter_cauchy(raw)
        x = Ellipse(k / u, 1.0 / u)
        dia = diameter(x)
        for n in ns:
            bound = hausdorff_bound(n, dia)
            (_, d_best), (_, d_worst) = scan_offsets(x, n, grid_points=args.grid)
            rows.append((n, k, d_worst, bound, "c0_worst"))
            rows.append((n, k, d_best, bound, "cinf"))
    rows.sort(key=lambda r: (r[1], r[0], r[4]))
    header = ["n", "k", "d_hausdorff", "bound", "mode"]
    if args.format == "json":
        _emit(serialize.dumps({"rows": [dict(zip(header, r)) for r in rows]}),
              args.out)
    else:
        _emit(serialize.format_csv(header, rows), args.out)
    return 0


def cmd_estimate(args):
    path = args.input
    h = None
    if path.endswith(".csv"):
        theta, h = serialize.read_sample_csv(path)
        m = empirical_moments(h)
    else:
        m = _decode(serialize.moments_from_dict, _read_json(path))
        if not isinstance(m, FeretProcessMoments):
            raise ParameterError("estimate needs Feret-process moments as input")
        theta = m.theta

    regular = is_regular_subdivision(theta)
    if not regular and args.solver != "nnls":
        raise ParameterError(
            "the linear solver needs samples on the regular grid "
            "theta_i = (i-1) pi / n; use --solver nnls for other designs"
        )
    if not regular and args.n is None:
        raise ParameterError(
            "samples are not on the regular grid; pass --n and --solver nnls"
        )
    n = m.n if regular else args.n
    if args.n is not None and args.n != n:
        raise ParameterError(f"input has n={n} angles, requested n={args.n}")
    if args.solver == "linear":
        central = central_from_feret(m, max_condition=args.max_condition)
    else:
        central = _nnls_central(theta, m.second, float(m.mean.mean()), n)
    report = {
        "command": "estimate",
        "solver": args.solver,
        "n": n,
        "central": serialize.moments_to_dict(central),
    }
    if regular:
        # after the solve, so a non-finite input fails with its solver's message
        diag = stationarity_diagnostic(m)
        report["stationarity"] = {"passed": diag.passed, **vars(diag)}
    if args.epsilon is not None:
        # an upper bound on E[diam]: from moments E[U] / 2, as U >= 2 diam; from
        # a table, the diameter lies within g/2 of a table angle mod pi, g the
        # largest gap between them, so the table's max H is >= diam cos(g/2)
        if h is None:
            mean_diam = existence_check(m).perimeter_mean / 2.0
        else:
            red = np.sort(np.mod(theta, np.pi))
            gap = float(np.diff(red, append=red[0] + np.pi).max())
            if gap >= np.pi:
                raise ParameterError(
                    "the confidence bound needs two table angles distinct mod pi")
            mean_diam = float(np.mean(h.max(axis=1))) / np.cos(gap / 2.0)
        report["epsilon"] = args.epsilon
        report["confidence_bound"] = confidence_bound(args.epsilon, n, mean_diam)
    if args.format == "csv":
        rows = [("mean_alpha", "", central.mean_alpha)]
        rows += [("v_alpha", d, v) for d, v in enumerate(central.v_alpha)]
        _emit(serialize.format_csv(["quantity", "index", "value"], rows), args.out)
    else:
        _emit(serialize.dumps(report), args.out)
    return 0


def cmd_simulate(args):
    model = parse_model(args.model)
    if args.samples < 2:
        raise ParameterError("need at least 2 samples")
    base = args.out or "zonofit_run"
    csv_path = base + ".csv"
    json_path = base + ".json"
    states = []

    def blocks():
        for start in range(0, args.samples, CHUNK):
            count = min(CHUNK, args.samples - start)
            h = feret_sample_block(model, args.n, args.seed, start, count)
            if not np.all(np.isfinite(h)):
                raise ParameterError("the model's Feret diameters must be finite")
            states.append(chunk_state(h))
            yield h

    serialize.write_sample_csv(csv_path, regular_subdivision(args.n), blocks())
    moments = reduce_states(states)
    diag = stationarity_diagnostic(moments)
    exist = existence_check(moments)
    summary = {
        "command": "simulate",
        "model": serialize.model_to_dict(model),
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "moments": serialize.moments_to_dict(moments),
        "stationarity": {"passed": diag.passed, **vars(diag)},
        "existence": {
            "passed": exist.passed,
            "perimeter_mean": exist.perimeter_mean,
            "perimeter_second_moment_proxy": exist.perimeter_second_moment_proxy,
        },
        "samples_csv": os.path.basename(csv_path),
    }
    serialize.write_json(json_path, summary)
    sys.stdout.write(csv_path + "\n" + json_path + "\n")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Each command's handler is looked up by name when it runs (see `main`),
    so a parser built earlier keeps serving a module whose `cmd_*` functions
    were replaced since.
    """
    parser = argparse.ArgumentParser(
        prog="zonofit",
        description="Zonotope description and approximation of symmetric "
                    "convex shapes from Feret diameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, fmt):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default=fmt,
                       help=f"output format (default {fmt})")
        return p

    p = command("approximate", "fit one zonotope to one shape", "json")
    p.add_argument("--shape", required=True,
                   help="shape spec: shorthand, inline JSON, or .json path")
    p.add_argument("--n", type=int, required=True, help="number of face directions")
    p.add_argument("--mode", choices=["c0", "cinf"], default="c0")
    p.add_argument("--grid", type=int, default=256,
                   help="offset scan resolution for cinf (default 256)")

    p = command("sweep", "accuracy table over n for unit-perimeter ellipses", "csv")
    p.add_argument("--n", required=True, help="n values: a:b range or comma list")
    p.add_argument("--k", default="1,2,4,8", help="axis ratios, comma list")
    p.add_argument("--grid", type=int, default=128,
                   help="offset scan resolution (default 128)")

    p = command("estimate", "central face moments from samples or moments", "json")
    p.add_argument("--input", required=True,
                   help="sample table (.csv) or Feret moments (.json)")
    p.add_argument("--n", type=int, default=None,
                   help="expected number of angles (checked against the input)")
    p.add_argument("--solver", choices=["linear", "nnls"], default="linear")
    p.add_argument("--max-condition", type=float, default=1e12,
                   help="reject the moment solve above this condition number")
    p.add_argument("--epsilon", type=float, default=None,
                   help="also report the (1-epsilon) interpolant distance bound")

    p = sub.add_parser("simulate",
                       help="sample a model, write sample CSV + estimate JSON")
    p.add_argument("--model", required=True,
                   help="model spec: shorthand, inline JSON, or .json path")
    p.add_argument("--n", type=int, required=True, help="number of grid angles")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="random stream seed (default 0)")
    p.add_argument("--out", default=None,
                   help="base name of the .csv and .json outputs (default zonofit_run)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return globals()["cmd_" + args.command](args)


def entry(argv=None):
    """Console entry point mapping library errors to stable exit codes."""
    try:
        return main(argv)
    except UnderdeterminedError as e:
        print(f"zonofit: {e}", file=sys.stderr)
        return 4
    except SolverError as e:
        print(f"zonofit: {e}", file=sys.stderr)
        return 3
    except (ZonofitError, OSError, ValueError) as e:
        print(f"zonofit: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
