"""Command-line entry point: run one named experiment from a config file."""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import yaml

from .experiments import DEFAULTS, EXPERIMENTS, ConfigError, ExperimentConfig
from .experiments import parse_config, run_experiment, summary_line, worker_count
from .meta_world import MetaDistribution


def _defaults_epilog() -> str:
    def flow(values: dict) -> str:
        return yaml.safe_dump(values, default_flow_style=True, width=1000).strip()

    lines = ["per-experiment defaults (override in the config file):"]
    lines += [f"  {name}: {flow(DEFAULTS[name])}" for name in EXPERIMENTS]
    meta = {name: p.default for name, p in inspect.signature(MetaDistribution).parameters.items()}
    lines.append(f"meta defaults (the config's meta mapping): {flow(meta)}")
    lines.append("environment: DISTREG_THREADS sets the trial-loop workers, a positive integer (default 1)")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distreg",
        description="Run a distribution-regression experiment and write a CSV report.",
        epilog=_defaults_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", help="YAML config file; defaults apply when omitted")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the CSV output path")
    parser.add_argument(
        "--assert",
        dest="assert_mode",
        action="store_true",
        help="exit nonzero when the experiment's acceptance check fails",
    )
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    """The config with the CLI overrides applied; every path and setting is checked before any work."""
    worker_count()
    try:
        text = Path(args.config).read_text() if args.config else ""
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    config = parse_config(text, experiment=args.experiment, seed=args.seed, out_path=args.out)
    out = Path(config.out_path)
    if not out.parent.is_dir():
        raise ConfigError(f"output directory does not exist: {out.parent}")
    if out.is_dir():
        raise ConfigError(f"output path is a directory: {out}")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(config)
    print(summary_line(report))
    if report.summary.get("calibration_capped"):
        # Reported, not failed: the cap is a known limit of the shipped target (see README).
        print(
            f"warning: calibration hit the n = {report.summary['n']} cap without reaching "
            "its target error; the trials ran at the cap",
            file=sys.stderr,
        )
    if args.assert_mode and not report.assert_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
