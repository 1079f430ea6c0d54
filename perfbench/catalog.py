"""Names, units and bounds of every metric the zonofit benchmark reports.

`END_TO_END` is the full set of untraced metrics, with the workloads that
produce each one; `RESULT_LINE_METRICS` names the subset that every workload
produces and that stays within its bound from run to run: `BENCHMARK.json`
lists it and the result line carries it.  `PER_LAYER` lists the traced metrics with the end-to-end metric
and workload each should move (the layer -> metric map).
"""

#: workload -> why it was chosen (the `why` of BENCHMARK.json)
WORKLOADS = {
    "fit": "approximate c0/cinf and sweep ops on seeded shapes: Feret "
           "evaluation, sup search, circulant solves, offset scan",
    "mc_table": "simulate then estimate through a 16-angle sample table: the "
                "per-row CSV writer and reader dominate",
    "mc_moments": "library pipeline_estimate at n=8..64, no files: sample block "
                  "and (4096,n,n) moment reduction dominate",
}

ALL = tuple(WORKLOADS)


class Metric:
    """One metric: name, unit, which direction is better, and its bound."""

    def __init__(self, name, unit, better, bound=None, workloads=ALL, moves=()):
        self.name = name
        self.unit = unit
        self.better = better
        self.bound = bound
        self.workloads = tuple(workloads)
        #: (end-to-end metric, workload) pairs a per-layer metric should move
        self.moves = tuple(moves)

    def worsening(self, before, after):
        """Relative change of `after` against `before`, positive when worse."""
        if before == 0:
            return 0.0 if after == before else float("inf")
        change = (after - before) / abs(before)
        return change if self.better == "lower" else -change

    def spec(self):
        d = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            d["bound"] = self.bound
        return d


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("wall_ref", "ref", "lower", 0.25),
    Metric("op_p90_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("approx_c0_p50_s", "s", "lower", 0.25, ["fit"]),
    Metric("approx_c0_p90_s", "s", "lower", 0.25, ["fit"]),
    Metric("approx_cinf_p50_s", "s", "lower", 0.25, ["fit"]),
    Metric("sweep_p50_s", "s", "lower", 0.25, ["fit"]),
    Metric("simulate_p50_s", "s", "lower", 0.25, ["mc_table"]),
    Metric("estimate_p50_s", "s", "lower", 0.25, ["mc_table"]),
    Metric("mc_samples_per_s", "1/s", "higher", 0.25, ["mc_moments"]),
    Metric("fail_ratio", "ratio", "lower", 0.0),
]

#: metrics every workload produces and that stay within their bound from run
#: to run, in the order of BENCHMARK.json.  Pass time goes on the result line
#: as wall_ref, in units of the reference kernel timed alongside the ops: on
#: a shared 2-core host the raw wall_s and op_p90_ms of ten runs spread by
#: 0.13-0.42 of their median, wall_ref by 0.02-0.08.  The raw times stay in
#: the report, the result files and compare mode.
RESULT_LINE_METRICS = ["setup_s", "wall_ref", "peak_rss_mb"]

_C0 = ("approx_c0_p50_s", "fit")
_CINF = ("approx_cinf_p50_s", "fit")
_SWEEP = ("sweep_p50_s", "fit")
_SAMPLES = ("mc_samples_per_s", "mc_moments")
_SIM = ("simulate_p50_s", "mc_table")
_EST = ("estimate_p50_s", "mc_table")


def _layer(name, unit, moves, better="lower"):
    return Metric(name, unit, better, moves=moves)


PER_LAYER = [
    _layer("bodies.feret.calls", "count", [_CINF, _SWEEP]),
    _layer("bodies.feret.self_s", "s", [_CINF, _SWEEP]),
    _layer("zonotopes.feret.calls", "count", [_CINF, _SWEEP]),
    _layer("zonotopes.feret.angles", "count", [_CINF, _SWEEP]),
    _layer("zonotopes.feret.self_s", "s", [_CINF, _SWEEP]),
    _layer("zonotopes.vertices.self_s", "s", [_C0]),
    _layer("circulant.solve.calls", "count", [_CINF]),
    _layer("circulant.solve.self_s", "s", [_CINF]),
    _layer("metrics.sup_over_angles.calls", "count", [_C0, _CINF, _SWEEP]),
    _layer("metrics.sup_over_angles.self_s", "s", [_C0, _CINF, _SWEEP]),
    _layer("metrics.golden_section_max.calls", "count", [_C0, _CINF, _SWEEP]),
    _layer("metrics.golden_section_max.self_s", "s", [_C0, _CINF, _SWEEP]),
    _layer("approx.offset_scans", "count", [_SWEEP, _CINF]),
    _layer("approx.offset_scan.self_s", "s", [_SWEEP, _CINF]),
    _layer("simulate.feret_sample_block.calls", "count", [_SAMPLES, _SIM]),
    _layer("simulate.feret_sample_block.samples", "count", [_SAMPLES, _SIM]),
    _layer("simulate.feret_sample_block.self_s", "s", [_SAMPLES, _SIM]),
    _layer("simulate.estimate_process_moments.self_s", "s", [_SAMPLES, _SIM]),
    _layer("simulate.empirical_moments.self_s", "s", [_EST]),
    _layer("process.central_from_feret.calls", "count",
           [("fail_ratio", "mc_moments"), _EST]),
    _layer("process.central_from_feret.failures", "count",
           [("fail_ratio", "mc_moments"), _EST]),
    _layer("process.central_from_feret.self_s", "s",
           [("fail_ratio", "mc_moments"), _EST]),
    _layer("process.isotropize_moments.self_s", "s", [_EST]),
    _layer("process.stationarity_diagnostic.self_s", "s", [_EST]),
    _layer("process.central_nnls.self_s", "s", [_EST]),
    _layer("nnls.nnls.calls", "count", [_EST]),
    _layer("nnls.nnls.self_s", "s", [_EST]),
    _layer("serialize.read_sample_csv.self_s", "s", [_EST]),
    _layer("serialize.read_sample_csv.bytes", "bytes", [_EST]),
    _layer("cli.cmd_simulate.self_s", "s", [_SIM]),
    _layer("cli.sample_table.bytes", "bytes", [_SIM]),
    _layer("trace.overhead_s", "s", []),
]

#: per-layer names that differ from the span or counter they read
PER_LAYER_SOURCE = {
    "approx.offset_scans": "approx.offset_scan.calls",
}

#: span-name prefixes whose self time must exceed half of op time, per workload
REASON_LAYERS = {
    "fit": ("bodies.", "zonotopes.", "metrics.", "approx.", "circulant."),
    "mc_table": ("cli.cmd_simulate", "serialize.read_sample_csv"),
    "mc_moments": ("simulate.",),
}

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_spec():
    """The `workloads`, `end_to_end` and `per_layer` lists of BENCHMARK.json."""
    return {
        "workloads": [{"name": w, "why": why} for w, why in WORKLOADS.items()],
        "end_to_end": [BY_NAME[name].spec() for name in RESULT_LINE_METRICS],
        "per_layer": [m.spec() for m in PER_LAYER],
    }
