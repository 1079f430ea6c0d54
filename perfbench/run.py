#!/usr/bin/env python3
"""zonofit benchmark: seeded workloads driven through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Workloads are `fit`, `mc_table` and `mc_moments` (see catalog.WORKLOADS).
Each is a closed loop: one caller in one process, ZONOFIT_THREADS=1 and one
BLAS thread.  A run builds the op list from the seed, runs one untimed
warm-up pass, then repeats whole passes over the list until `--seconds` have
elapsed, checking every op's output after each pass.  A fixed reference
kernel (reference.py) is timed between ops, so that pass time can also be
given in its units, which a shared host's drifting speed leaves steady.
`--trace 1` alternates
untraced passes with passes traced by tracer.Tracer and reports the
per-layer metrics instead of the end-to-end ones.

Every run prints a report and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  It also writes the full
result (every metric with unit and sample count, failures by kind, machine
facts, and for traced runs the self time per op kind and layer) to
`--out-dir`, default `.perfbench/results` under the repository root; traced
runs add their spans as `<workload>-seed<seed>.spans.npz`.
`--compare` reads two such directories.
"""

import os

os.environ["ZONOFIT_THREADS"] = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import catalog  # noqa: E402
import reference  # noqa: E402

#: fresh processes timed from start until the first op is ready, half before
#: the timed passes and half after: one probe's time varies by up to 1.7x
#: from one second to the next on a shared host
SETUP_PROBES = 10
#: op seconds between two samples of the reference kernel
REFERENCE_EVERY_S = 0.25


class Pass(collections.namedtuple("Pass", "latencies ref_units")):
    """One pass over the op list: each op's seconds, and their sum in units
    of the reference kernel timed alongside."""

    @property
    def wall(self):
        """Seconds of the pass, without the reference kernel's samples."""
        return sum(self.latencies)


class Crash(Exception):
    """An op raised an error the CLI does not map to an exit code."""


def _import_zonofit():
    """Import the checkout's zonofit, never one installed elsewhere."""
    try:
        import zonofit
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import zonofit from {SRC}: {e}")
    if not os.path.abspath(zonofit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: zonofit comes from {zonofit.__file__}, not {SRC}")
    import workloads
    return workloads


# machine facts ------------------------------------------------------------

def _l3_cache():
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                if f.read().strip() != "3":
                    continue
            with open(os.path.join(index, "size")) as f:
                return f.read().strip()
        except OSError:
            break
    return "unknown"


def _commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def machine_facts(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "l3_cache": _l3_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ZONOFIT_THREADS": os.environ["ZONOFIT_THREADS"],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _commit(),
        "seed": seed,
    }


# set-up -------------------------------------------------------------------

def _probe_command(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--tiny"] if args.tiny else [])


def setup_times(args, probes):
    """Seconds from starting a fresh process until its first op is ready."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_probe_command(args), stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit("perfbench: set-up probe failed")
        times.append(elapsed)
    return times


# passes -------------------------------------------------------------------

class Run:
    """Outcomes of every pass of one workload run.

    Each op is a deterministic function of its seeded input, so its outcome is
    counted once per run: `attempted` is the number of ops in the list and
    `failed` the number of them that failed in any of their executions.  The
    counts then depend on the seed alone, not on how many passes fit in the
    run; `executions` and `failed_executions` count every execution.
    """

    def __init__(self, ops, typed_errors):
        self.ops = ops
        #: errors that fail an op without crashing it
        self.typed_errors = typed_errors
        #: per op: failure kind (error class or `check:<name>`) -> first message
        self.op_failures = [{} for _ in ops]
        self.executions = 0
        self.failed_executions = 0
        #: timed passes (Pass)
        self.passes = []
        self.traced_passes = []

    @property
    def attempted(self):
        return len(self.ops) if self.executions else 0

    @property
    def failed(self):
        return sum(1 for kinds in self.op_failures if kinds)

    @property
    def failures(self):
        """Failure kind -> [ops that failed with it, first message]."""
        out = {}
        for kinds in self.op_failures:
            for kind, message in kinds.items():
                entry = out.setdefault(kind, [0, message])
                entry[0] += 1
        return out

    def run_pass(self, check, tracer=None):
        """Run every op once and check the outputs.  The reference kernel is
        sampled before the first op, after every REFERENCE_EVERY_S of op time
        and after the last op; each stretch of ops counts in units of the mean
        of the samples around it."""
        outputs, latencies = [], []
        ref_units, stretch = 0.0, 0.0
        ref_before = reference.sample()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin_op(op.kind)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except self.typed_errors as e:
                out = e
            except Exception as e:  # a crash is recorded, not fatal to the run
                out = Crash(f"{type(e).__name__}: {e}")
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
            outputs.append(out)
            stretch += latencies[-1]
            if stretch >= REFERENCE_EVERY_S or i == len(self.ops) - 1:
                ref_after = reference.sample()
                ref_units += stretch / (0.5 * (ref_before + ref_after))
                ref_before, stretch = ref_after, 0.0
        self._account(check, outputs)
        return Pass(latencies, ref_units)

    def _account(self, check, outputs):
        errors = [out if isinstance(out, Exception) else None for out in outputs]
        results = [None if err is not None else out for out, err in zip(outputs, errors)]
        checked = check(self.ops, results)
        for kinds, err, failed in zip(self.op_failures, errors, checked):
            self.executions += 1
            if err is not None:
                kind = "crash" if isinstance(err, Crash) else type(err).__name__
                kinds.setdefault(kind, str(err))
            for name in failed:
                kinds.setdefault("check:" + name, "")
            if err is not None or failed:
                self.failed_executions += 1

    @property
    def correct(self):
        """No output failed its check and no op crashed with an untyped error."""
        return not any(kind == "crash" or kind.startswith("check:")
                       for kinds in self.op_failures for kind in kinds)


def execute(args, workloads, workdir):
    from tracer import Tracer
    ops = workloads.build_ops(args.workload, args.seed, workdir, tiny=args.tiny)
    check = workloads.CHECKS[args.workload]
    run = Run(ops, workloads.TYPED_ERRORS)

    def clean():
        for path in glob.glob(os.path.join(workdir, "*")):
            os.remove(path)

    run.run_pass(check)  # warm-up: caches, lazy imports, first allocations
    clean()
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not run.passes
           or (tracer is not None and not run.traced_passes)):
        run.passes.append(run.run_pass(check))
        clean()
        if tracer is not None:
            with tracer:
                run.traced_passes.append(run.run_pass(check, tracer))
            clean()
    return run, tracer


# metrics ------------------------------------------------------------------

def _quantile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(run, setup):
    """Every end-to-end metric the workload produces: name -> (value, samples)."""
    by_kind = {}
    for p in run.passes:
        for op, t in zip(run.ops, p.latencies):
            by_kind.setdefault(op.kind, []).append(t)
    all_ops = [t for p in run.passes for t in p.latencies]
    npass = len(run.passes)
    m = {
        "setup_s": setup,
        "wall_s": (statistics.median(p.wall for p in run.passes), npass),
        "wall_ref": (statistics.median(p.ref_units for p in run.passes), npass),
        "op_p90_ms": (1e3 * _quantile(all_ops, 90), len(all_ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "fail_ratio": (run.failed / run.attempted, run.attempted),
    }
    for kind, times in sorted(by_kind.items()):
        if kind != "mc_pipeline":
            m[f"{kind}_p50_s"] = (_quantile(times, 50), len(times))
    if "approx_c0" in by_kind:
        m["approx_c0_p90_s"] = (_quantile(by_kind["approx_c0"], 90), len(by_kind["approx_c0"]))
    if "mc_pipeline" in by_kind:
        samples = sum(op.facts["samples"] for op in run.ops)
        rates = [samples / p.wall for p in run.passes]
        m["mc_samples_per_s"] = (statistics.median(rates), len(rates))
    return {metric.name: m[metric.name] for metric in catalog.END_TO_END if metric.name in m}


def per_layer(run, tracer):
    """Per traced pass: calls, counters and self seconds of every listed layer."""
    passes = len(run.traced_passes)
    selfs = tracer.self_times()
    totals = {}
    for (kind, name), (calls, own) in selfs.items():
        totals[name + ".self_s"] = totals.get(name + ".self_s", 0.0) + own
    for (kind, counter), value in tracer.counts.items():
        totals[counter] = totals.get(counter, 0) + value
    # traced minus untraced pass time, compared in reference units because
    # the two kinds of pass ran at different machine speeds; then in seconds
    untraced = statistics.median(p.ref_units for p in run.passes)
    traced = statistics.median(p.ref_units for p in run.traced_passes)
    seconds_per_unit = statistics.median(p.wall / p.ref_units for p in run.passes)
    m = {}
    for metric in catalog.PER_LAYER:
        if metric.name == "trace.overhead_s":
            m[metric.name] = ((traced - untraced) * seconds_per_unit, passes)
            continue
        source = catalog.PER_LAYER_SOURCE.get(metric.name, metric.name)
        value = totals.get(source, 0) / passes
        m[metric.name] = (value if metric.unit == "s" else int(round(value)), passes)
    return m, selfs


def layer_breakdown(run, selfs, workload):
    """Self time per op kind and layer, and the share behind the workload's reason."""
    passes = len(run.traced_passes)
    total_op = sum(p.wall for p in run.traced_passes)
    rows = []
    for (kind, name), (calls, own) in sorted(selfs.items()):
        rows.append({"op_kind": kind, "layer": name, "calls_per_pass": calls / passes,
                     "self_s_per_pass": own / passes})
    prefixes = catalog.REASON_LAYERS[workload]
    family = sum(own for (kind, name), (_, own) in selfs.items() if name.startswith(prefixes))
    share = family / total_op if total_op else 0.0
    return rows, {"layers": list(prefixes), "share_of_op_time": share, "holds": share > 0.5}


# output -------------------------------------------------------------------

def print_report(args, facts, metrics, run, extra_lines=()):
    print(f"zonofit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"ops: {run.attempted} attempted, {run.failed} failed; "
          f"{run.executions} executions, {run.failed_executions} failed "
          f"({len(run.passes)} timed passes of {len(run.ops)} ops"
          + (f", {len(run.traced_passes)} traced" if run.traced_passes else "") + ")")
    for kind, (count, message) in sorted(run.failures.items()):
        print(f"  failure {kind}: {count} ops" + (f": {message}" if message else ""))
    print(f"{'metric':40s} {'value':>16s} {'unit':>6s} {'samples':>8s}")
    for name, (value, samples) in metrics.items():
        unit = catalog.BY_NAME[name].unit
        print(f"{name:40s} {value:16.6g} {unit:>6s} {samples:8d}")
    for line in extra_lines:
        print(line)


def run_one(args):
    t_start = time.perf_counter()
    half = 1 if args.tiny else SETUP_PROBES // 2
    probes = setup_times(args, half)
    workloads = _import_zonofit()
    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        run, tracer = execute(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes += setup_times(args, half)
    setup = (statistics.median(probes), len(probes))
    facts = machine_facts(args.seed)
    e2e = end_to_end(run, setup)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": facts,
              "attempted": run.attempted, "failed": run.failed,
              "failures": {k: {"count": c, "example": msg}
                           for k, (c, msg) in run.failures.items()},
              "executions": run.executions, "failed_executions": run.failed_executions,
              "pass_walls_s": [p.wall for p in run.passes],
              "pass_ref_units": [p.ref_units for p in run.passes]}
    extra = []
    if tracer is None:
        shown = e2e
        contract = {name: e2e[name] for name in catalog.RESULT_LINE_METRICS}
    else:
        layers, selfs = per_layer(run, tracer)
        rows, reason = layer_breakdown(run, selfs, args.workload)
        shown = contract = layers
        result["self_times"] = rows
        result["reason"] = reason
        result["traced_pass_walls_s"] = [p.wall for p in run.traced_passes]
        tracer.save(os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}.spans.npz"))
        extra.append("self time per op kind (per traced pass):")
        for row in rows:
            extra.append(f"  {row['op_kind']:12s} {row['layer']:40s} "
                         f"{row['calls_per_pass']:10.0f} calls {row['self_s_per_pass']:10.4f} s")
        extra.append(f"reason: self time of {'+'.join(reason['layers'])} is "
                     f"{100 * reason['share_of_op_time']:.1f}% of op time "
                     f"({'holds' if reason['holds'] else 'DOES NOT HOLD'})")
        extra.append("layer metric -> end-to-end metric it should move on this workload:")
        for metric in catalog.PER_LAYER:
            targets = [t for t, w in metric.moves if w == args.workload]
            if targets:
                extra.append(f"  {metric.name} -> {', '.join(targets)}")
    result["metrics"] = {name: {"value": v, "unit": catalog.BY_NAME[name].unit, "samples": n}
                         for name, (v, n) in {**e2e, **shown}.items()}
    result["run_s"] = time.perf_counter() - t_start
    path = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print_report(args, facts, shown, run, extra)
    line = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": v, "unit": catalog.BY_NAME[name].unit}
                        for name, (v, _) in contract.items()}}
    print(json.dumps(line), flush=True)


def run_all(args):
    """Every workload in its own process; prints each report in turn."""
    lines = {}
    for workload in catalog.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", args.out_dir]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {workload} exited {proc.returncode}")
        lines[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(lines))


# compare ------------------------------------------------------------------

def _load_set(directory):
    """workload -> metric name -> [values] over the untraced results in a directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            result = json.load(f)
        per = out.setdefault(result["workload"], {})
        for name, m in result["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(dir_a, dir_b):
    """Medians and quartiles of both sets; flags a worsening beyond the bound,
    and reports `unresolved` when either set spreads wider than the bound."""
    a, b = _load_set(dir_a), _load_set(dir_b)
    worse = 0
    print(f"{'workload':11s} {'metric':18s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload in catalog.WORKLOADS:
        for metric in catalog.END_TO_END:
            va = a.get(workload, {}).get(metric.name)
            vb = b.get(workload, {}).get(metric.name)
            if not va or not vb:
                continue
            ma, qa1, qa3 = _summary(va)
            mb, qb1, qb3 = _summary(vb)
            change = metric.worsening(ma, mb)
            spread = max((qa3 - qa1) / ma if ma else 0.0, (qb3 - qb1) / mb if mb else 0.0)
            if spread > metric.bound and metric.bound > 0:
                disjoint = (max(vb) < min(va)) if metric.better == "lower" else (min(vb) > max(va))
                verdict = "better" if disjoint else "unresolved"
            elif change > metric.bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:11s} {metric.name:18s} "
                  f"{ma:12.5g} [{qa1:9.4g}, {qa3:9.4g}] {mb:12.5g} [{qb1:9.4g}, {qb3:9.4g}] "
                  f"{100 * change:+7.1f}%  {verdict}")
    return 1 if worse else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(catalog.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out-dir", default=os.path.join(ROOT, ".perfbench", "results"))
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for tests")
    p.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        workloads = _import_zonofit()
        workloads.build_ops(args.workload, args.seed, args.out_dir, tiny=args.tiny)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
