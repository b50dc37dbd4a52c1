"""Checks of the benchmark's own tracer and workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench

On a small seed, the traced call counts must equal exact counts derived from
the inputs; a binding site the tracer misses shows up here as a short count.
The traced run's rows must also hash equal to the untraced run's.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from distreg import experiments  # noqa: E402
from tracer import Tracer, UnitClock, layer_metrics  # noqa: E402

SEED = 11


def traced_run(name: str, size: int, tmp_path):
    workload = workloads.WORKLOADS[name]
    configs = workload.configs(SEED, size)
    clock = UnitClock(workload.unit_start, workload.unit_end)
    with clock.installed():
        block = workload.check(workloads.run_runner(configs, tmp_path), clock.unit_s)
    tracer = Tracer(workload.unit_start)
    with tracer.installed():
        reports = workloads.run_runner(configs, tmp_path)
    assert workloads.rows_digest(workload.first_pass(reports)) == workloads.rows_digest(block.rows)
    assert block.ok and block.failed == 0
    return workload, block, tracer, layer_metrics(tracer.spans)


def value(metrics, name):
    return metrics[name][0]


def units_seen(tracer):
    return {s.unit for s in tracer.spans if s.unit is not None}


@pytest.mark.parametrize("name", ["kk-gauss-1d", "kk-epan-2d"])
def test_kernel_kernel_counts(name, tmp_path):
    trials = 2
    workload, block, tracer, metrics = traced_run(name, trials, tmp_path)
    m = experiments.parse_config(json.dumps(workload.configs(SEED, trials)[0])).m
    assert value(metrics, "density_distance.grid_values.calls") == 2 * m * trials
    assert value(metrics, "density_distance.mesh.calls") == 2 * m * trials
    assert value(metrics, "density_distance.l1_distance.calls") == m * trials
    assert value(metrics, "kernels.kde_build.calls") == (m + 1) * trials
    assert value(metrics, "kernels.kde_eval_many.calls") == 2 * m * trials
    assert value(metrics, "meta_world.draw_samples.calls") == (m + 1) * trials
    assert value(metrics, "regression.kernel_kernel_estimate.calls") == trials
    assert value(metrics, "regression.kernel_kernel_estimate.zero_weight_frac") == 0
    # The query is evaluated once per training member; each member once.
    assert value(metrics, "density_distance.grid_values.unique_frac") == pytest.approx((m + 1) / (2 * m))
    assert units_seen(tracer) == set(range(trials))


def test_adaptive_counts(tmp_path):
    trials = 2
    workload, block, tracer, metrics = traced_run("adaptive-epan-1d", trials, tmp_path)
    rows = block.rows["adaptive_regression"]
    iterations = sum(r[4] for r in rows)
    levels = value(metrics, "regression.calibrate_sample_size.levels")
    calibration_trials = experiments.DEFAULTS["adaptive_regression"]["calibration_trials"]
    assert len(block.unit_s) == trials

    in_loop = [s for s in tracer.spans if s.name == "meta_world.draw_samples" and s.unit is not None]
    calibration = value(metrics, "meta_world.draw_samples.calls") - len(in_loop)
    assert len(in_loop) == trials + iterations
    assert calibration == 2 * calibration_trials * levels
    assert value(metrics, "regression.adaptive_closest_point.calls") == trials
    assert value(metrics, "regression.adaptive_closest_point.candidates") == iterations
    assert value(metrics, "density_distance.grid_values.unique_frac") == 1.0
    assert units_seen(tracer) == set(range(trials))


def test_theory_counts(tmp_path):
    workload, block, tracer, metrics = traced_run("theory-mc", 1, tmp_path)
    spans = tracer.spans
    shapes = experiments.DEFAULTS
    scaling_cells = len(shapes["theorem1_scaling"]["d_list"]) * len(shapes["theorem1_scaling"]["m_list"])
    lemma1_cells = len(shapes["lemma1"]["d_list"]) * len(shapes["lemma1"]["m_list"])
    small_ball_cells = len(shapes["small_ball"]["d_list"])
    assert value(metrics, "theory_checks.expected_min_distance.calls") == scaling_cells
    assert sum(s.name == "theory_checks.lemma1_sums" for s in spans) == lemma1_cells
    assert sum(s.name == "theory_checks.check_small_ball_bound" for s in spans) == small_ball_cells
    assert sum(s.name == "experiments.run_experiment" for s in spans) == 3
    assert block.attempted == scaling_cells + lemma1_cells + small_ball_cells
    assert block.notes["units_timed"] == block.attempted and len(block.unit_s) == 1
    # The tracer's unit id marks a cell.
    assert units_seen(tracer) == set(range(block.attempted))
    # theory-mc bypasses the estimators.
    assert value(metrics, "kernels.kde_eval_many.calls") == 0
    assert value(metrics, "meta_world.draw_samples.calls") == 0


def test_tracer_restores_every_binding():
    from distreg import density_distance, experiments, regression

    before = (regression.grid_values, experiments.run_experiment, density_distance.GridSpec.mesh)
    with Tracer().installed():
        assert regression.grid_values is not before[0]
    assert (regression.grid_values, experiments.run_experiment, density_distance.GridSpec.mesh) == before


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(layer_metrics([])) | {"trace.overhead_frac"} == declared
