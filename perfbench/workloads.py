"""The benchmark's four workloads.

A workload is a list of experiment configs that the package's own runner,
``distreg.experiments.run_experiment``, executes; the benchmark adds no
trial code of its own.  Every shape not overridden here is the shipped one
from ``experiments.DEFAULTS``.  ``--seconds`` sets only the size: the trial
count of a regression workload, the number of passes of theory-mc.  The
``units_per_second`` constants come from the baseline's measured rates, so
the units of a run take roughly ``--seconds`` on the baseline machine; run
length is approximate and varies with the machine's speed.  On
adaptive-epan-1d the calibration, about 7.5 s, comes on top: sizing its
loop to the rest of the run left too few trials for a steady tail.

A unit is one trial of a regression workload and one pass over the 25
cells of theory-mc.  ``UnitClock`` times it from the runner's call of a
``unit_start`` function to its call of a ``unit_end`` function; on
theory-mc it stamps each cell and a pass is the sum of its cells.

Inputs come only from the seed.  The warm-up runs the same experiment at a
tiny shape, so it loads the same code and fills the same caches without
drawing the measured inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from distreg import experiments

THEORY_CELLS = ("expected_min_distance", "lemma1_sums", "check_small_ball_bound")


@dataclass
class Block:
    """What one run of a workload produced, after the output checks."""

    rows: dict[str, list[tuple]]  # experiment name -> report rows (of the first pass)
    unit_s: list[float]
    attempted: int
    failed: int
    ok: bool  # every report's assert_ok, and identical passes
    abs_err: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def rows_digest(rows: dict[str, list[tuple]]) -> str:
    """sha256 of the report rows at full float precision."""
    plain = {
        name: [[v.item() if isinstance(v, np.generic) else v for v in row] for row in table]
        for name, table in rows.items()
    }
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()


def run_runner(configs: list[dict], out_dir: Path) -> list[experiments.RunReport]:
    """Run each config with ``run_experiment``; CSVs go to out_dir and are removed.

    The runner is looked up on its module at call time, so a tracer's patch applies.
    """
    out_dir.mkdir(exist_ok=True)
    reports = []
    for i, config in enumerate(configs):
        path = out_dir / f"{config['experiment']}-{os.getpid()}-{i}.csv"
        config = experiments.parse_config(yaml.safe_dump({**config, "out_path": str(path)}))
        try:
            reports.append(experiments.run_experiment(config))
        finally:
            path.unlink(missing_ok=True)
    return reports


@dataclass(frozen=True)
class Workload:
    name: str
    experiment_names: tuple[str, ...]
    overrides: dict  # on top of experiments.DEFAULTS
    warm_up_overrides: dict  # a tiny shape with the same kernel and dimension
    unit_start: frozenset[str]
    unit_end: frozenset[str]
    units_per_second: float  # trials (or passes) per second of the unit loop

    def size_for(self, seconds: float) -> int:
        return max(1, round(self.units_per_second * seconds))

    def configs(self, seed: int, size: int) -> list[dict]:
        return [{"experiment": e, "seed": seed, "trials": size, **self.overrides} for e in self.experiment_names]

    def warm_up(self, seed: int, out_dir: Path) -> None:
        run_runner([{**config, **self.warm_up_overrides} for config in self.configs(seed, 1)], out_dir)

    def first_pass(self, reports: list[experiments.RunReport]) -> dict[str, list[tuple]]:
        return {r.config.experiment: r.rows for r in reports[: len(self.experiment_names)]}

    def check(self, reports: list[experiments.RunReport], unit_s: list[float]) -> Block:
        (report,) = reports
        rows = report.rows
        failed = sum(self.unit_failed(report.config, row) for row in rows)
        return Block(
            self.first_pass(reports),
            unit_s,
            len(rows),
            failed,
            bool(report.assert_ok) and len(unit_s) == len(rows),
            [row[3] for row in rows],
            {"units_timed": len(unit_s), **self.notes(report)},
        )

    def unit_failed(self, config, row) -> bool:
        raise NotImplementedError

    def notes(self, report) -> dict:
        return {}


class KernelKernel(Workload):
    def unit_failed(self, config, row) -> bool:
        return not math.isfinite(row[1])


class Adaptive(Workload):
    def unit_failed(self, config, row) -> bool:
        return not row[6] or row[3] > config.epsilon

    def notes(self, report) -> dict:
        summary = report.summary
        return {
            "n": summary["n"],
            "calibration_capped": summary["calibration_capped"],
            "candidates": sum(row[4] for row in report.rows),
            "iterations_p50": statistics.median(row[4] for row in report.rows),
        }


class TheoryMC(Workload):
    """theorem1_scaling, lemma1 and small_ball at their shipped shapes.

    Trials are ``trial_scale`` times the shipped ones.  The size is the
    number of passes over the 25 cells; every pass repeats the same inputs
    and must give the same rows.  The unit is a pass, not a cell: the cells
    differ in size by design, so the median cell would be whichever cell
    machine noise ranks in the middle.  A cell is what is attempted and
    what fails, by its own bound check.
    """

    trial_scale = 12

    def configs(self, seed: int, size: int) -> list[dict]:
        one_pass = [
            {"experiment": name, "seed": seed, "trials": experiments.DEFAULTS[name]["trials"] * self.trial_scale}
            for name in self.experiment_names
        ]
        return one_pass * size

    def check(self, reports, unit_s) -> Block:
        width = len(self.experiment_names)
        passes = [reports[i : i + width] for i in range(0, len(reports), width)]
        first = passes[0]
        identical = all([r.rows for r in p] == [r.rows for r in first] for p in passes[1:])
        # Each cell's bound check: a theorem1 (d, m) mean, a lemma1 (d, m), a small_ball d.
        cell_ok = []
        for report in first:
            rows = report.rows
            if report.config.experiment == "theorem1_scaling":
                cell_ok += [row[2] <= row[4] for row in rows if row[1] != -1]
            elif report.config.experiment == "lemma1":
                cell_ok += [row[5] for row in rows]
            else:
                cell_ok += [all(row[5] for row in rows if row[0] == d) for d in report.config.d_list]
        cells = len(cell_ok)
        timed = len(unit_s) == cells * len(passes)
        return Block(
            self.first_pass(reports),
            [sum(unit_s[p * cells : (p + 1) * cells]) for p in range(len(passes))],
            cells,
            cells - sum(map(bool, cell_ok)),
            identical and timed and all(r.assert_ok for r in reports),
            notes={
                "units_timed": len(unit_s),
                "passes": len(passes),
                "passes_identical": identical,
                "runner_assert_ok": {r.config.experiment: bool(r.assert_ok) for r in first},
                "small_ball_max_sigma_dev": first[-1].summary["max_sigma_dev"],
            },
        )


WORKLOADS = {
    w.name: w
    for w in (
        KernelKernel(
            "kk-gauss-1d",
            ("kernel_kernel_baseline",),
            overrides={},
            warm_up_overrides={"m": 2, "n": 16},
            unit_start=frozenset({"draw_labeled_dataset"}),
            unit_end=frozenset({"oracle_label"}),
            units_per_second=1.3,
        ),
        Adaptive(
            "adaptive-epan-1d",
            ("adaptive_regression",),
            overrides={},
            warm_up_overrides={"n": 16},
            unit_start=frozenset({"draw_distribution"}),
            unit_end=frozenset({"oracle_label"}),
            units_per_second=25.0,
        ),
        KernelKernel(
            "kk-epan-2d",
            ("kernel_kernel_baseline",),
            overrides={"m": 20, "n": 64, "h": 1.0, "kernel": "epanechnikov", "meta": {"dim": 2}},
            warm_up_overrides={"m": 2, "n": 16},
            unit_start=frozenset({"draw_labeled_dataset"}),
            unit_end=frozenset({"oracle_label"}),
            units_per_second=0.45,
        ),
        TheoryMC(
            "theory-mc",
            ("theorem1_scaling", "lemma1", "small_ball"),
            overrides={},
            warm_up_overrides={"trials": 16, "d_list": [1], "m_list": [16, 64]},
            unit_start=frozenset(THEORY_CELLS),
            unit_end=frozenset(THEORY_CELLS),
            units_per_second=0.15,
        ),
    )
}
