"""Command-line entry point.

Exit codes: 0 clean run, 2 run completed but raised consistency flags,
1 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import ConfigError, ExperimentConfig, run_experiment
from .reporting import report_json_payload, write_csv, write_json


def _slug(text: str) -> str:
    out = re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")
    return out or "run"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polya-cli",
        description="Run a configured numerical experiment and write a report.",
    )
    parser.add_argument("--config", required=True, help="YAML experiment description")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the seed stored in the config",
    )
    parser.add_argument(
        "--out", default="reports", help="directory for report files (default: reports)"
    )
    parser.add_argument(
        "--format", choices=("csv", "json", "both"), default="both",
        help="report format(s) to write",
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
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / f"{_slug(cfg.experiment)}-{_slug(cfg.label)}"
    written = []
    if args.format in ("csv", "both"):
        path = base.with_suffix(".csv")
        write_csv(result.rows, path)
        written.append(path)
    if args.format in ("json", "both"):
        path = base.with_suffix(".json")
        payload = report_json_payload(
            experiment=cfg.experiment,
            label=cfg.label,
            seed=cfg.seed,
            config=cfg.to_dict(),
            rows=result.rows,
            flags=result.flags,
            wall_clock=result.wall_clock,
            extras=result.extras,
        )
        write_json(payload, path)
        written.append(path)

    print(
        f"{cfg.experiment} [{cfg.label}] seed={cfg.seed}: "
        f"{len(result.rows)} rows in {result.wall_clock:.2f}s"
    )
    for path in written:
        print(f"  wrote {path}")
    if result.flags:
        for flag in result.flags:
            print(f"  FLAG: {flag}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
