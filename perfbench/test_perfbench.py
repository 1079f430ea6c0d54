"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

import json
import os
import subprocess
import sys

import pytest

import run  # sets ZONOFIT_THREADS and puts the checkout's src/ on sys.path
import catalog
import tracer
import workloads  # noqa: E402  (imports zonofit from src/)

import zonofit  # noqa: E402
from zonofit import cli  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _run_tiny(workload, trace, out_dir):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--tiny", "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = out_dir / f"{workload}-seed3-trace{trace}.json"
    with open(path) as f:
        return proc.stdout, line, json.load(f)


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, tmp_path):
    stdout, line, result = _run_tiny(workload, 0, tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == catalog.RESULT_LINE_METRICS
    for name, m in line["metrics"].items():
        assert m["unit"] == catalog.BY_NAME[name].unit and m["value"] > 0
    expected = [m for m in catalog.END_TO_END if workload in m.workloads]
    for metric in expected:
        got = result["metrics"][metric.name]
        assert got["unit"] == metric.unit and got["samples"] >= 1
        assert metric.name in stdout
    for key in ("nproc", "l3_cache", "python", "numpy", "scipy", "ZONOFIT_THREADS",
                "blas_threads", "commit", "seed"):
        assert key in result["machine"]


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_tiny_traced_run_emits_every_layer(workload, tmp_path):
    _, line, result = _run_tiny(workload, 1, tmp_path)
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == [
        (m.name, m.unit) for m in catalog.PER_LAYER]
    assert result["self_times"] and "share_of_op_time" in result["reason"]
    assert (tmp_path / f"{workload}-seed3.spans.npz").exists()


def _one_pass(workload, tmp_path):
    ops = workloads.build_ops(workload, 5, str(tmp_path), tiny=True)
    r = run.Run(ops, workloads.TYPED_ERRORS)
    r.run_pass(workloads.CHECKS[workload])
    return r


def test_correct_outputs_pass(tmp_path):
    for workload in catalog.WORKLOADS:
        r = _one_pass(workload, tmp_path)
        assert r.correct, r.failures


def test_outcomes_count_once_per_op(tmp_path):
    """attempted and failed depend on the seed alone, not on the pass count."""
    ops = workloads.build_ops("fit", 5, str(tmp_path), tiny=True)
    r = run.Run(ops, workloads.TYPED_ERRORS)
    check = workloads.CHECKS["fit"]
    first = r.run_pass(check)
    failed = r.failed
    assert failed >= 1 and r.attempted == len(ops)
    r.run_pass(check)
    assert r.attempted == len(ops) and r.failed == failed
    assert r.executions == 2 * len(ops) and r.failed_executions == 2 * failed
    assert len(first.latencies) == len(ops) and first.ref_units > 0


def test_planted_face_perturbation_is_a_failure(tmp_path, monkeypatch):
    original = cli.c0_approximate

    def perturbed(x, n):
        z = original(x, n)
        alpha = z.alpha.copy()
        alpha[0] *= 0.8
        return zonofit.Zonotope(alpha)

    monkeypatch.setattr(cli, "c0_approximate", perturbed)
    r = _one_pass("fit", tmp_path)
    assert not r.correct
    assert r.failures["check:contains"][0] >= 1


def test_planted_moment_error_is_a_failure(tmp_path, monkeypatch):
    original = cli.empirical_moments
    monkeypatch.setattr(cli, "empirical_moments", lambda h: original(1.001 * h))
    r = _one_pass("mc_table", tmp_path)
    assert not r.correct
    assert r.failures["check:roundtrip"][0] >= 1


def test_planted_mean_error_is_a_failure(tmp_path, monkeypatch):
    original = zonofit.pipeline_estimate

    def shifted(*args, **kwargs):
        c = original(*args, **kwargs)
        c.mean_alpha += 10 * c.stderr_mean_alpha
        return c

    monkeypatch.setattr(zonofit, "pipeline_estimate", shifted)
    r = _one_pass("mc_moments", tmp_path)
    assert not r.correct
    assert r.failures["check:mean_alpha"][0] >= 1


def test_tracer_records_nested_spans_and_restores(tmp_path):
    original = cli.cinf_approximate
    t = tracer.Tracer()
    ops = workloads.build_ops("fit", 5, str(tmp_path), tiny=True)
    cinf = next(op for op in ops if op.kind == "approx_cinf")
    with t:
        assert cli.cinf_approximate is not original
        t.begin_op(cinf.kind)
        cinf.run()
        t.end_op()
    assert cli.cinf_approximate is original
    selfs = t.self_times()
    assert selfs["approx_cinf", "approx.offset_scan"][0] == 1
    assert selfs["approx_cinf", "zonotopes.feret"][0] > 100
    total = sum(own for _, own in selfs.values())
    root = t.end[0] - t.start[0]
    assert total == pytest.approx(root, rel=1e-9)


def _write_results(directory, workload, values):
    directory.mkdir()
    for i, v in enumerate(values):
        result = {"workload": workload,
                  "metrics": {"wall_s": {"value": v, "unit": "s", "samples": 4}}}
        (directory / f"{workload}-seed{i}-trace0.json").write_text(json.dumps(result))


def test_compare_flags_worsening_and_unresolved(tmp_path, capsys):
    _write_results(tmp_path / "a", "fit", [1.0, 1.01, 0.99, 1.0])
    _write_results(tmp_path / "b", "fit", [1.3, 1.31, 1.29, 1.3])
    assert run.compare(str(tmp_path / "a"), str(tmp_path / "b")) == 1
    assert "WORSE" in capsys.readouterr().out
    _write_results(tmp_path / "c", "fit", [0.5, 1.5, 1.0, 2.0])
    assert run.compare(str(tmp_path / "a"), str(tmp_path / "c")) == 0
    assert "unresolved" in capsys.readouterr().out


def test_benchmark_json_matches_catalog():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key, value in catalog.benchmark_spec().items():
        assert spec[key] == value
