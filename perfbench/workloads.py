"""Seeded op lists for the three benchmark workloads, and the checks of each op.

An op is one call of a public entry point: `zonofit.cli.main(argv)` for the
CLI commands, `zonofit.pipeline_estimate` for the library route.  The seed
picks shapes, model parameters and sampling seeds; the structure of each op
list (kinds, sizes, counts) is fixed, so runs with different seeds do the
same amount of work.  `tiny=True` shrinks every size for the benchmark's own
tests.

Each check returns the names of the checks an output failed; an empty list
means the output is right.
"""

import contextlib
import io
import json
import math
import os

import numpy as np
from scipy.special import ellipe

import zonofit
from zonofit import cli, serialize
from zonofit.approx import contains
from zonofit.bodies import Ellipse, Segment, SymmetricPolygon
from zonofit.simulate import Fixed, IsotropicZonotope, LogNormal, empirical_moments
from zonofit.zonotopes import Zonotope

#: relative tolerance of the sample-table round trip
ROUNDTRIP_RTOL = 1e-12
#: allowed distance of a Monte-Carlo mean from its true value, in stderr
Z_SIGMA = 5.0
#: slack of the cinf <= c0 distance comparison
CINF_SLACK = 1e-6
LOGNORMAL_SIGMA = 0.3
#: errors the CLI maps to exit codes: an op raising one failed, it did not crash
TYPED_ERRORS = (zonofit.ZonofitError, OSError, ValueError)


class Op:
    """One call of a public entry point, with what its checks need to know."""

    def __init__(self, kind, argv=None, **facts):
        self.kind = kind
        self.argv = argv
        self.facts = facts

    def run(self):
        """Execute the op; returns its output (CLI stdout text or a result object)."""
        if self.argv is None:
            f = self.facts
            return zonofit.pipeline_estimate(f["model"], f["n"], f["samples"], f["seed"])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(self.argv)
        return buf.getvalue()


def _r(x):
    return repr(float(x))


# fit ----------------------------------------------------------------------

def _fit_shapes(rng, tiny):
    """(spec, body) pairs: ellipses with axis ratio 1-8 and random tilt, then
    tilted squares and segments."""
    counts = (2, 1, 1) if tiny else (6, 2, 2)
    shapes = []
    for _ in range(counts[0]):
        b = rng.uniform(0.5, 1.5)
        a = b * rng.uniform(1.0, 8.0)
        phi = rng.uniform(0.0, math.pi)
        shapes.append((f"ellipse:{_r(a)},{_r(b)},{_r(phi)}", Ellipse(a, b, phi)))
    for _ in range(counts[1]):
        s = 0.5 * rng.uniform(0.5, 2.0)
        tilt = rng.uniform(0.0, math.pi / 2)
        c, d = s * math.cos(tilt), s * math.sin(tilt)
        verts = [[c - d, d + c], [-c - d, -d + c], [-c + d, -d - c], [c + d, d - c]]
        spec = json.dumps({"kind": "polygon", "vertices": verts})
        shapes.append((spec, SymmetricPolygon(verts)))
    for _ in range(counts[2]):
        length = rng.uniform(0.5, 2.0)
        angle = rng.uniform(0.0, math.pi)
        shapes.append((f"segment:{_r(length)},{_r(angle)}", Segment(length, angle)))
    return shapes


def fit_ops(seed, tiny=False):
    rng = np.random.default_rng([seed, 1])
    shapes = _fit_shapes(rng, tiny)
    c0_ns = (4, 8) if tiny else (4, 8, 16, 32)
    cinf_ns = (4,) if tiny else (4, 8, 16)
    # cinf on the first ellipse, the first square and the first segment
    n_ell = 2 if tiny else 6
    cinf_shapes = [0] if tiny else [0, n_ell, n_ell + 2]
    extra = ["--grid", "16"] if tiny else []
    ops = []
    for i, (spec, body) in enumerate(shapes):
        for n in c0_ns:
            ops.append(Op("approx_c0", ["approximate", "--shape", spec, "--n", str(n)],
                          shape=i, n=n, body=body))
    for i in cinf_shapes:
        spec, body = shapes[i]
        for n in cinf_ns:
            ops.append(Op("approx_cinf", ["approximate", "--shape", spec, "--n", str(n),
                                          "--mode", "cinf"] + extra,
                          shape=i, n=n, body=body))
    sweep_extra = ["--grid", "8"] if tiny else []
    for n in ((4,) if tiny else (4, 8, 16)):
        k = rng.uniform(1.0, 8.0)
        ops.append(Op("sweep", ["sweep", "--n", str(n), "--k", _r(k)] + sweep_extra, n=n))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _check_approx(op, out):
    r = json.loads(out)
    failed = []
    if not r["d_hausdorff"] <= r["bound"]:
        failed.append("d_le_bound")
    if op.kind == "approx_c0":
        z = Zonotope(r["alpha"], theta=r["theta"], t=r["tau"])
        if not contains(z, op.facts["body"]):
            failed.append("contains")
    return failed


def _check_sweep(op, out):
    lines = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")]
    rows = {row[4]: (float(row[2]), float(row[3])) for row in lines[1:]}
    failed = []
    if any(not d <= bound for d, bound in rows.values()):
        failed.append("d_le_bound")
    if not rows["c0_worst"][0] >= rows["cinf"][0]:
        failed.append("worst_ge_cinf")
    return failed


def check_fit(ops, outputs):
    """Per-op failed checks; the cinf <= c0 check pairs ops of one shape and n."""
    failed = [[] for _ in ops]
    c0 = {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        if op.kind == "sweep":
            failed[i] = _check_sweep(op, out)
        else:
            failed[i] = _check_approx(op, out)
            if op.kind == "approx_c0":
                c0[op.facts["shape"], op.facts["n"]] = json.loads(out)["d_hausdorff"]
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is not None and op.kind == "approx_cinf":
            d0 = c0.get((op.facts["shape"], op.facts["n"]))
            if d0 is not None and not json.loads(out)["d_hausdorff"] <= d0 + CINF_SLACK:
                failed[i].append("cinf_le_c0")
    return failed


# mc_table -----------------------------------------------------------------

def mc_table_ops(seed, workdir, tiny=False):
    """simulate -> estimate pairs; each pair writes its sample table to `workdir`."""
    rng = np.random.default_rng([seed, 2])
    samples = 64 if tiny else 2048
    n = 16
    a, b = rng.uniform(0.5, 2.0, size=2)
    p, q = np.sort(rng.uniform(0.5, 2.0, size=2))[::-1]
    side = rng.uniform(0.5, 2.0)
    models = [
        (f"isotropic_rectangle:{_r(a)},{_r(b)}", 2.0 * (a + b), 0.0),
        (f"isotropic_ellipse:{_r(p)},{_r(q)}", 4.0 * p * ellipe(1.0 - (q / p) ** 2), 0.0),
        # non-stationary: the grid mean of H misses U / pi by the rectangle
        # rule error, at most Lipschitz * pi / (4 n)
        (f"deterministic:square:{_r(side)}", 4.0 * side,
         side * math.sqrt(2.0) * math.pi / (4 * n)),
    ]
    ops = []
    for j, solver in enumerate(("linear", "nnls")):
        for i, (spec, perimeter, allowance) in enumerate(models):
            base = os.path.join(workdir, f"pair{j}{i}")
            sim_seed = int(rng.integers(0, 2**31))
            ops.append(Op("simulate", ["simulate", "--model", spec, "--n", str(n),
                                       "--samples", str(samples), "--seed", str(sim_seed),
                                       "--out", base],
                          base=base, perimeter=perimeter, allowance=allowance))
            ops.append(Op("estimate", ["estimate", "--input", base + ".csv",
                                       "--solver", solver], base=base, n=n))
    return ops


def _check_simulate(op, out):
    """Cauchy: the grid mean of E[H] lies within 5 stderr of perimeter / pi."""
    m = serialize.read_json(op.facts["base"] + ".json")["moments"]
    grid_mean = float(np.mean(m["mean"]))
    stderr = float(np.mean(m["stderr_mean"]))
    target = op.facts["perimeter"] / math.pi
    if not abs(grid_mean - target) <= Z_SIGMA * stderr + op.facts["allowance"]:
        return ["cauchy"]
    return []


def _close(a, b, scale):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= ROUNDTRIP_RTOL * scale))


def _check_estimate(op, out):
    """Round trip: moments from the sample table equal the simulate JSON moments,
    and the estimate's face-length mean follows from them."""
    base = op.facts["base"]
    m = serialize.read_json(base + ".json")["moments"]
    _, h = serialize.read_sample_csv(base + ".csv")
    table = empirical_moments(h)
    mean = np.asarray(m["mean"])
    second = np.asarray(m["second"])
    n = op.facts["n"]
    central = json.loads(out)["central"]
    expected_alpha = math.pi / (2.0 * n) * float(mean.mean())
    if not (_close(table.mean, mean, np.abs(mean).max())
            and _close(table.second, second, np.abs(second).max())
            and _close(central["mean_alpha"], expected_alpha, abs(expected_alpha))):
        return ["roundtrip"]
    return []


def _each(check):
    """Per-op failed checks of ops that returned an output."""
    def check_all(ops, outputs):
        return [[] if out is None else check(op, out) for op, out in zip(ops, outputs)]
    return check_all


check_mc_table = _each(
    lambda op, out: (_check_simulate if op.kind == "simulate" else _check_estimate)(op, out))


# mc_moments ---------------------------------------------------------------

def mc_moments_ops(seed, tiny=False):
    rng = np.random.default_rng([seed, 3])
    # one 4096-sample chunk per op keeps >= 100 ops in a run, so op_p90_ms has
    # at least ten samples beyond it
    samples = 512 if tiny else 4096
    ops = []
    for n in ((8, 16) if tiny else (8, 16, 32, 64)):
        models = [
            (IsotropicZonotope(n, LogNormal(n, sigma=LOGNORMAL_SIGMA)),
             math.exp(0.5 * LOGNORMAL_SIGMA**2)),
            (IsotropicZonotope(n, Fixed(np.ones(n))), 1.0),
        ]
        for model, true_mean in models:
            ops.append(Op("mc_pipeline", model=model, n=n, samples=samples,
                          seed=int(rng.integers(0, 2**31)), true_mean=true_mean))
    return ops


def _check_mean_alpha(op, out):
    """The face-length mean lies within 5 stderr of the model's true E[alpha]."""
    se = out.stderr_mean_alpha
    if se is None or not abs(out.mean_alpha - op.facts["true_mean"]) <= Z_SIGMA * se:
        return ["mean_alpha"]
    return []


check_mc_moments = _each(_check_mean_alpha)


CHECKS = {"fit": check_fit, "mc_table": check_mc_table, "mc_moments": check_mc_moments}


def build_ops(workload, seed, workdir, tiny=False):
    if workload == "fit":
        return fit_ops(seed, tiny)
    if workload == "mc_table":
        return mc_table_ops(seed, workdir, tiny)
    if workload == "mc_moments":
        return mc_moments_ops(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")
