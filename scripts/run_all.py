#!/usr/bin/env python3
"""Run every shipped experiment config and collect the CSV reports in results/.

Usage:
    python scripts/run_all.py [--seed N] [--assert]

Equivalent to calling `distreg <experiment> --config scripts/configs/<experiment>.yaml`
(plus the given --seed / --assert) once per experiment; it exits with the
largest status of those runs.
"""

import argparse
import sys
from pathlib import Path

from distreg import cli

CONFIG_DIR = Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, help="override every config's seed")
    parser.add_argument("--assert", dest="assert_mode", action="store_true")
    args = parser.parse_args()
    passed = ["--assert"] if args.assert_mode else []
    if args.seed is not None:
        passed += ["--seed", str(args.seed)]

    Path("results").mkdir(exist_ok=True)
    configs = sorted(CONFIG_DIR.glob("*.yaml"))
    return max(cli.main([path.stem, "--config", str(path), *passed]) for path in configs)


if __name__ == "__main__":
    sys.exit(main())
