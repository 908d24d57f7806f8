"""Command-line entry point.

Exit codes: 0 clean run, 2 run completed but raised consistency flags,
1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import ConfigError, ExperimentConfig, run_experiment
from .reporting import report_json_payload, rows_to_csv_text


def _slug(text: str) -> str:
    out = re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")
    return out or "run"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polya-cli",
        description="Run a configured numerical experiment and write its CSV and JSON reports.",
    )
    parser.add_argument("--config", required=True, help="YAML experiment description")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the seed stored in the config",
    )
    parser.add_argument(
        "--out", default="reports", help="directory for report files (default: reports)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    # the suffix is appended, not swapped in: a label slug may hold dots
    stem = f"{_slug(cfg.experiment)}-{_slug(cfg.label)}"
    payload = json.dumps(report_json_payload(result), indent=2, sort_keys=True)
    reports = {
        out_dir / f"{stem}.csv": rows_to_csv_text(result.rows),
        out_dir / f"{stem}.json": payload + "\n",
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, text in reports.items():
            path.write_text(text)
    except OSError as exc:
        print(f"error: cannot write reports to {out_dir}: {exc}", file=sys.stderr)
        return 1

    print(
        f"{cfg.experiment} [{cfg.label}] seed={cfg.seed}: "
        f"{len(result.rows)} rows in {result.wall_clock:.2f}s"
    )
    for path in reports:
        print(f"  wrote {path}")
    if result.flags:
        for flag in result.flags:
            print(f"  FLAG: {flag}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
