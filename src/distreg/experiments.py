"""Config-driven experiment runner with deterministic CSV reports.

Every experiment derives one RNG per grid cell (or per trial) from the
master seed, so results are byte-identical regardless of worker count or
execution order.  Floats are printed with six significant digits.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, get_args, get_type_hints

import numpy as np
import yaml

from . import __version__
from .density_distance import GridSpec
from .kernels import KERNELS, kde_fit
from .meta_world import MetaDistribution, check_counts, check_positive, draw_distribution, draw_samples, oracle_label
from .regression import (
    adaptive_closest_point,
    calibrate_sample_size,
    calibration_target,
    check_calibration,
    default_max_iter,
    draw_labeled_dataset,
    family_grid,
    kernel_kernel_estimate,
)
from .theory_checks import (
    check_small_ball_bound,
    expected_min_distance,
    fit_scaling_exponent,
    lemma1_sums,
    theorem1_rhs_bound,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "EXPERIMENTS",
    "parse_config",
    "worker_count",
    "serialize_config",
    "run_experiment",
]


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    trials: int = 0  # filled per experiment by parse_config
    out_path: str = ""
    meta: dict[str, Any] = field(default_factory=dict)  # MetaDistribution's keyword arguments
    d_list: list[int] | None = None
    m_list: list[int] | None = None
    i_max: int | None = None
    epsilon: float | None = None
    n: int | None = None
    h: float | None = None
    m: int | None = None
    kernel: str | None = None
    target_err: float | None = None
    confidence: float | None = None
    max_iter: int | None = None
    calibration_trials: int | None = None


# Per-experiment defaults; surfaced in the CLI --help epilog.  Its keys are the experiments.
DEFAULTS: dict[str, dict[str, Any]] = {
    "theorem1_scaling": {"trials": 200, "d_list": [1, 2, 3], "m_list": [16, 64, 256, 1024, 4096]},
    "small_ball": {"trials": 10_000, "d_list": [1, 2], "i_max": 10},
    "lemma1": {"trials": 10_000, "d_list": [1, 2], "m_list": [1, 4, 16, 64], "i_max": 40},
    "adaptive_regression": {
        "trials": 100,
        "epsilon": 0.2,
        "kernel": "epanechnikov",
        "confidence": 0.9,
        "calibration_trials": 50,
    },
    "kernel_kernel_baseline": {"trials": 50, "m": 40, "n": 256, "h": 0.25, "kernel": "gaussian"},
    "calibrate": {"trials": 50, "confidence": 0.9, "target_err": 0.1, "kernel": "epanechnikov"},
}
EXPERIMENTS = tuple(DEFAULTS)


# The YAML types each annotated type accepts; a bool is never an int or a float.
_ACCEPTED = {int: (int,), float: (int, float), str: (str,)}


def _type_error(key: str, value: Any, hint: Any) -> str | None:
    """Why value does not fit the annotation hint of config key, or None if it fits."""
    args = get_args(hint)
    expected = next(a for a in args if a is not type(None)) if type(None) in args else hint
    if expected in _ACCEPTED:
        ok = isinstance(value, _ACCEPTED[expected]) and not isinstance(value, bool)
        return None if ok else f"{key} must be {expected.__name__}, got {value!r}"
    ok = isinstance(value, list) and all(_type_error(key, v, int) is None for v in value)  # list[int]
    return None if ok else f"{key} must be a list of int, got {value!r}"


def _known_values(schema: type, raw: dict, what: str) -> dict[str, Any]:
    """raw without its nulls (a null keeps the default); each key annotated in schema, each value of its type."""
    hints = get_type_hints(schema)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    values = {key: value for key, value in raw.items() if value is not None}
    for key, value in values.items():
        problem = _type_error(key, value, hints[key])
        if problem:
            raise ConfigError(f"invalid {what}: {problem}")
    return values


def parse_config(text: str, experiment: str | None = None, **overrides: Any) -> ExperimentConfig:
    """Parse a YAML key-value document into a validated, default-filled config.

    The experiment may come from the document or the CLI positional; when
    both are present they must agree.  Each override that is not None (the
    CLI's --seed and --out) replaces the document's value before the checks.
    """
    try:
        raw = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of keys to values")

    doc_experiment = raw.pop("experiment", None)
    if doc_experiment is None and experiment is None:
        raise ConfigError("missing required field: experiment")
    if doc_experiment is not None and experiment is not None and doc_experiment != experiment:
        raise ConfigError(
            f"config names experiment {doc_experiment!r} but {experiment!r} was requested"
        )
    name = experiment or doc_experiment
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment: {name!r} (choose from {', '.join(EXPERIMENTS)})")

    meta_raw = raw.pop("meta", {}) or {}
    if not isinstance(meta_raw, dict):
        raise ConfigError("meta must be a mapping")
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    merged = {**DEFAULTS[name], **_known_values(ExperimentConfig, raw, "config")}
    meta = _known_values(MetaDistribution, meta_raw, "meta")
    config = ExperimentConfig(experiment=name, meta=meta, **merged)
    if not config.out_path:
        config.out_path = f"distreg_{name}.csv"
    if config.kernel is not None and config.kernel not in KERNELS:
        raise ConfigError(f"unknown kernel: {config.kernel!r}")
    _check_ranges(config)
    return config


# Config fields that count something: each value, or each entry of a list, must be >= 1.
_COUNT_FIELDS = ("trials", "d_list", "m_list", "i_max", "n", "m", "max_iter", "calibration_trials")


def _check_ranges(config: ExperimentConfig) -> None:
    """Reject a seed < 0, bad counts and h, epsilon not finite and > 0, then build the run's plan."""
    counts = {key: getattr(config, key) for key in _COUNT_FIELDS}
    for key, value in counts.items():
        if isinstance(value, list) and (not value or min(value) < 1):
            raise ConfigError(f"{key} must be a non-empty list of ints >= 1, got {value!r}")
    try:
        check_counts(0, seed=config.seed)
        check_counts(**{key: value for key, value in counts.items() if isinstance(value, int)})
        check_positive(**{key: getattr(config, key) for key in ("h", "epsilon") if getattr(config, key) is not None})
        _plan(config)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _plan(config: ExperimentConfig) -> tuple[list[MetaDistribution], GridSpec | None, int | None, dict | None]:
    """What the run builds before its first draw: (metas, grid, max_iter, calibration); ValueError if it cannot.

    A theory sweep gets one meta per entry of d_list and None for the rest.  An estimator run
    gets the configured meta, its quadrature grid, the adaptive draw budget and the keyword
    arguments of its calibrate_sample_size call, each None where the run has none.
    """
    if "d_list" in DEFAULTS[config.experiment]:
        if "dim" in config.meta:
            raise ValueError("a theory sweep takes its dims from d_list; meta must not set dim")
        if config.experiment == "theorem1_scaling" and len(set(config.m_list)) < 2:
            raise ValueError(f"theorem1_scaling fits a slope: m_list needs two distinct m, got {config.m_list!r}")
        return [MetaDistribution(**config.meta, dim=d) for d in config.d_list], None, None, None
    meta = MetaDistribution(**config.meta)
    grid = family_grid(meta, 16 if config.experiment == "calibrate" else min(config.n or 16, 16))
    max_iter = calibration = None
    if config.experiment == "adaptive_regression":
        max_iter = config.max_iter or default_max_iter(config.epsilon, meta)
        if config.n is None:
            calibration = dict(target_err=calibration_target(config.epsilon, meta), trials=config.calibration_trials)
    elif config.experiment == "calibrate":
        calibration = dict(target_err=config.target_err, trials=config.trials)
    if calibration is not None:
        calibration.update(confidence=config.confidence, grid=grid)
        check_calibration(**calibration)
    return [meta], grid, max_iter, calibration


def serialize_config(config: ExperimentConfig) -> str:
    """YAML round-trip form: parse(serialize(c)) == c."""
    data = asdict(config)
    data = {k: v for k, v in data.items() if v is not None}
    return yaml.safe_dump(data, sort_keys=True)


@dataclass
class RunReport:
    config: ExperimentConfig
    header: str
    rows: list[tuple]
    summary: dict[str, Any]
    assert_ok: bool


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    raise TypeError(f"a CSV cell must be a bool, int or float, got {value!r}")


def _write_csv(path: str, header: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def worker_count() -> int:
    """Trial-loop workers from DISTREG_THREADS: a positive integer, 1 when unset."""
    text = os.environ.get("DISTREG_THREADS", "1")
    if not text.isdecimal() or int(text) < 1:
        raise ConfigError(f"DISTREG_THREADS must be a positive integer, got {text!r}")
    return int(text)


def _map_trials(fn: Callable[[int], tuple], count: int) -> list[tuple]:
    workers = worker_count()
    if workers == 1:
        return [fn(t) for t in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


def _run_theorem1_scaling(config: ExperimentConfig):
    header = "d,m,mean,stderr,bound,trials"
    rows: list[tuple] = []
    slopes: dict[str, float] = {}
    ok = True
    for di, meta in enumerate(_plan(config)[0]):
        d, s = meta.dim, meta.center()
        means = []
        for mi, m in enumerate(config.m_list):
            mean, stderr = expected_min_distance(meta, s, m, config.trials, _rng(config.seed, di, mi))
            bound = theorem1_rhs_bound(d, m)
            rows.append((d, m, mean, stderr, bound, config.trials))
            means.append(mean)
            ok &= mean <= bound
        slope = fit_scaling_exponent(config.m_list, means)
        # sentinel slope row: m = -1, mean = fitted slope, bound = -1/d target
        rows.append((d, -1, slope, 0.0, -1.0 / d, config.trials))
        slopes[str(d)] = slope
        ok &= abs(slope + 1.0 / d) <= 0.15
    return header, rows, {"slopes": slopes}, ok


def _run_small_ball(config: ExperimentConfig):
    header = "d,i,radius,empirical_mass,bound,holds"
    rows: list[tuple] = []
    devs: list[float] = []
    for di, meta in enumerate(_plan(config)[0]):
        r = check_small_ball_bound(meta, meta.center(), config.i_max, config.trials, _rng(config.seed, di))
        rows += [(meta.dim, i, *row) for i, row in enumerate(zip(r.radii, r.empirical_mass, r.bound, r.holds))]
        devs += [abs(p - q) / sig for p, q, sig in zip(r.empirical_mass, r.exact_mass, r.stderr) if sig > 0]
    ok = all(row[-1] for row in rows) and all(dev <= 3.0 for dev in devs)
    return header, rows, {"max_sigma_dev": max(devs, default=0.0)}, ok


def _run_lemma1(config: ExperimentConfig):
    header = "d,m,lhs,rhs,stderr,holds"
    rows: list[tuple] = []
    ok = True
    for di, meta in enumerate(_plan(config)[0]):
        d, s = meta.dim, meta.center()
        for mi, m in enumerate(config.m_list):
            res = lemma1_sums(meta, s, m, config.i_max, config.trials, _rng(config.seed, di, mi))
            rows.append((d, m, res.lhs, res.rhs, res.stderr, res.holds))
            ok &= res.holds
    return header, rows, {}, ok


def _run_adaptive_regression(config: ExperimentConfig):
    header = "trial,label,truth,abs_err,iterations,samples_drawn,converged"
    (meta,), grid, max_iter, calibration = _plan(config)
    epsilon = config.epsilon
    kernel = KERNELS[config.kernel]
    n, calibrated = config.n, None
    if calibration is not None:
        calibrated = calibrate_sample_size(meta, rng=_rng(config.seed, 0), kernel=kernel, **calibration)
        n = calibrated.n

    def one_trial(t: int) -> tuple:
        rng = _rng(config.seed, 1, t)
        target = draw_distribution(meta, rng)
        samples = draw_samples(meta, target, n, rng)
        res = adaptive_closest_point(meta, samples, epsilon, n, max_iter, rng, grid, kernel)
        truth = oracle_label(meta, target)
        return (t, res.label, truth, abs(res.label - truth), res.iterations, res.samples_drawn, res.converged)

    rows = _map_trials(one_trial, config.trials)
    converged = [r for r in rows if r[6]]
    hits = [r for r in converged if r[3] <= epsilon]
    success_rate = len(hits) / len(converged) if converged else 0.0
    summary = {
        "n": n,
        "calibration_capped": bool(calibrated.capped) if calibrated else None,
        "converged_rate": len(converged) / len(rows),
        "success_rate": success_rate,
        "median_iterations": float(np.median([r[4] for r in rows])),
    }
    ok = bool(converged) and success_rate >= 0.9
    return header, rows, summary, ok


def _run_kernel_kernel_baseline(config: ExperimentConfig):
    header = "trial,estimate,truth,abs_err,m,n"
    (meta,), grid, _, _ = _plan(config)
    kernel = KERNELS[config.kernel]

    def one_trial(t: int) -> tuple:
        rng = _rng(config.seed, 1, t)
        dataset = draw_labeled_dataset(meta, config.m, config.n, rng, kernel)
        target = draw_distribution(meta, rng)
        samples = draw_samples(meta, target, config.n, rng)
        query = kde_fit(samples, kernel)
        pred = kernel_kernel_estimate(dataset, query, config.h, kernel, grid)
        truth = oracle_label(meta, target)
        return (t, pred, truth, abs(pred - truth), config.m, config.n)

    rows = _map_trials(one_trial, config.trials)
    summary = {"mean_abs_err": float(np.mean([r[3] for r in rows]))}
    return header, rows, summary, all(np.isfinite(r[1]) for r in rows)


def _run_calibrate(config: ExperimentConfig):
    header = "candidate_n,mean_l1,stderr,passed"
    (meta,), _, _, calibration = _plan(config)
    result = calibrate_sample_size(meta, rng=_rng(config.seed, 0), kernel=KERNELS[config.kernel], **calibration)
    rows = [tuple(entry) for entry in result.history]
    summary = {"n": result.n, "capped": result.capped}
    return header, rows, summary, not result.capped


_RUNNERS = {
    "theorem1_scaling": _run_theorem1_scaling,
    "small_ball": _run_small_ball,
    "lemma1": _run_lemma1,
    "adaptive_regression": _run_adaptive_regression,
    "kernel_kernel_baseline": _run_kernel_kernel_baseline,
    "calibrate": _run_calibrate,
}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the configured experiment and write its CSV report."""
    start = time.perf_counter()
    header, rows, summary, ok = _RUNNERS[config.experiment](config)
    _write_csv(config.out_path, header, rows)
    wall = time.perf_counter() - start
    summary = {
        "experiment": config.experiment,
        "seed": config.seed,
        "out_path": config.out_path,
        "rows": len(rows),
        "assert_ok": ok,
        "wall_time_s": round(wall, 3),
        "version": __version__,
        **summary,
    }
    return RunReport(config=config, header=header, rows=rows, summary=summary, assert_ok=ok)


def summary_line(report: RunReport) -> str:
    return json.dumps(report.summary, sort_keys=True, default=str)
