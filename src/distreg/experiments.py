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
from .kernels import KERNELS, KernelSpec, kde_fit
from .meta_world import MetaDistribution, draw_distribution, draw_samples, make_box_meta, oracle_label
from .regression import (
    adaptive_closest_point,
    calibrate_sample_size,
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
    "MetaConfig",
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
class MetaConfig:
    """Serializable description of a meta-distribution.

    Experiments that sweep a d_list override dim per cell and broadcast the
    scalar box bounds; the remaining fields carry over unchanged.
    """

    family: str = "uniform_location"
    dim: int = 1
    lo: float = 0.0
    hi: float = 1.0
    base_width: float = 2.0
    label_fn: str = "coordinate_sum"
    lipschitz_const: float = 1.0
    distance_scale: float = 1.0

    def build(self, dim: int | None = None) -> MetaDistribution:
        return make_box_meta(**{**asdict(self), "dim": self.dim if dim is None else dim})


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    trials: int = 0  # filled per experiment by parse_config
    out_path: str = ""
    meta: MetaConfig = field(default_factory=MetaConfig)
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


def _type_error(key: str, value: Any, hint: Any) -> str | None:
    """Why value does not fit the annotation hint of config key, or None if it fits.

    YAML gives ints, floats, strings and lists; an int field takes no bool and
    no float, and a float field takes an int.
    """
    args = get_args(hint)
    expected = next(a for a in args if a is not type(None)) if type(None) in args else hint
    if expected is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif expected is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif expected is str:
        ok = isinstance(value, str)
    else:  # list[int]
        ok = isinstance(value, list) and all(_type_error(key, v, int) is None for v in value)
        return None if ok else f"{key} must be a list of int, got {value!r}"
    return None if ok else f"{key} must be {expected.__name__}, got {value!r}"


def _known_values(cls: type, raw: dict, what: str) -> dict[str, Any]:
    """raw without its nulls (a null keeps the default); each key a field of cls, each value of its type."""
    hints = get_type_hints(cls)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    values = {key: value for key, value in raw.items() if value is not None}
    for key, value in values.items():
        problem = _type_error(key, value, hints[key])
        if problem:
            raise ConfigError(f"invalid {what}: {problem}")
    return values


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse a YAML key-value document into a validated, default-filled config.

    The experiment may come from the document or the CLI positional; when
    both are present they must agree.
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
    merged = {**DEFAULTS[name], **_known_values(ExperimentConfig, raw, "config")}
    try:
        meta = MetaConfig(**_known_values(MetaConfig, meta_raw, "meta"))
        meta.build()  # validate eagerly
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid meta description: {exc}") from exc

    config = ExperimentConfig(experiment=name, meta=meta, **merged)
    if not config.out_path:
        config.out_path = f"distreg_{name}.csv"
    if config.trials < 1:
        raise ConfigError("trials must be >= 1")
    if config.kernel is not None and config.kernel not in KERNELS:
        raise ConfigError(f"unknown kernel: {config.kernel!r}")
    return config


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
    return str(value)


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
    for di, d in enumerate(config.d_list):
        meta = config.meta.build(dim=d)
        s = meta.center()
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
    ok = True
    max_sigma_dev = 0.0
    for di, d in enumerate(config.d_list):
        meta = config.meta.build(dim=d)
        report = check_small_ball_bound(meta, meta.center(), config.i_max, config.trials, _rng(config.seed, di))
        for i in range(config.i_max + 1):
            rows.append(
                (d, i, report.radii[i], report.empirical_mass[i], report.bound[i], report.holds[i])
            )
            ok &= report.holds[i]
            if report.stderr[i] > 0:
                dev = abs(report.empirical_mass[i] - report.exact_mass[i]) / report.stderr[i]
                max_sigma_dev = max(max_sigma_dev, dev)
                ok &= dev <= 3.0
    return header, rows, {"max_sigma_dev": max_sigma_dev}, ok


def _run_lemma1(config: ExperimentConfig):
    header = "d,m,lhs,rhs,stderr,holds"
    rows: list[tuple] = []
    ok = True
    for di, d in enumerate(config.d_list):
        meta = config.meta.build(dim=d)
        s = meta.center()
        for mi, m in enumerate(config.m_list):
            res = lemma1_sums(d, m, config.i_max, config.trials, meta, s, _rng(config.seed, di, mi))
            rows.append((d, m, res.lhs, res.rhs, res.stderr, res.holds))
            ok &= res.holds
    return header, rows, {}, ok


def _calibrate(
    config: ExperimentConfig, meta: MetaDistribution, target_err: float, trials: int, kernel: KernelSpec
):
    """calibrate_sample_size on the family grid, with the config's confidence and seed."""
    grid = family_grid(meta, 16)
    return calibrate_sample_size(
        meta, target_err, config.confidence, _rng(config.seed, 0), grid, trials=trials, kernel=kernel
    )


def _run_adaptive_regression(config: ExperimentConfig):
    header = "trial,label,truth,abs_err,iterations,samples_drawn,converged"
    meta = config.meta.build()
    lipschitz = meta.lipschitz_const
    epsilon = config.epsilon
    kernel = KERNELS[config.kernel]
    n, calibration = config.n, None
    if n is None:
        calibration = _calibrate(config, meta, epsilon / (9.0 * lipschitz), config.calibration_trials, kernel)
        n = calibration.n
    grid = family_grid(meta, min(n, 16))
    max_iter = config.max_iter or default_max_iter(epsilon, lipschitz, meta.dim)

    def one_trial(t: int) -> tuple:
        rng = _rng(config.seed, 1, t)
        target = draw_distribution(meta, rng)
        samples = draw_samples(meta, target, n, rng)
        res = adaptive_closest_point(meta, samples, epsilon, lipschitz, n, max_iter, rng, grid, kernel)
        truth = oracle_label(meta, target)
        return (t, res.label, truth, abs(res.label - truth), res.iterations, res.samples_drawn, res.converged)

    rows = _map_trials(one_trial, config.trials)
    converged = [r for r in rows if r[6]]
    hits = [r for r in converged if r[3] <= epsilon]
    success_rate = len(hits) / len(converged) if converged else 0.0
    summary = {
        "n": n,
        "calibration_capped": bool(calibration.capped) if calibration else None,
        "converged_rate": len(converged) / len(rows),
        "success_rate": success_rate,
        "median_iterations": float(np.median([r[4] for r in rows])),
    }
    ok = bool(converged) and success_rate >= 0.9
    return header, rows, summary, ok


def _run_kernel_kernel_baseline(config: ExperimentConfig):
    header = "trial,estimate,truth,abs_err,m,n"
    meta = config.meta.build()
    kernel = KERNELS[config.kernel]
    grid = family_grid(meta, min(config.n, 16))

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
    labels_ok = True
    for t, pred, truth, err, m, n in rows:
        labels_ok &= np.isfinite(pred)
    summary = {"mean_abs_err": float(np.mean([r[3] for r in rows]))}
    return header, rows, summary, bool(labels_ok)


def _run_calibrate(config: ExperimentConfig):
    header = "candidate_n,mean_l1,stderr,passed"
    result = _calibrate(config, config.meta.build(), config.target_err, config.trials, KERNELS[config.kernel])
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
