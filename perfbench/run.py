"""polyalab benchmark: one named workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The run:

1. starts one worker that runs the workload through
   `run_experiment(cfg, workers=1)` pass after pass for --seconds seconds
   (with --trace 1: untraced and traced passes in turn).  After each pass
   it starts a fresh interpreter that only imports polyalab from `src/`
   and parses the workload's configs; setup_s is the median of those times;
2. checks the outputs against independent oracles (see oracles.py), outside
   any timed region, and checks that every pass wrote the same CSV bytes;
3. writes a run record to perfbench/runs/ and prints the metrics, the last
   line being one JSON object.

The exit code is 0 when a result was printed, even if some output check
failed (that shows as "correct": false); it is not 0 when no result could be
produced, e.g. when the checkout has no `src/polyalab`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from worker import PER_LAYER, WORKLOADS  # noqa: E402

WORKER_GRACE_S = 100  # one pass past the deadline, plus start-up
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "d_s_total": "1",
    "oracle_digits": "digits",
}


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    # its own process group, so a timeout also stops the set-up probe it may be running
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def parse_rows(text: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "label": rec["label"],
                "quantity": rec["quantity"],
                "s": int(rec["s"]) if rec["s"] else None,
                "i": int(rec["i"]) if rec["i"] else None,
                "j": int(rec["j"]) if rec["j"] else None,
                "value": float(rec["value"]),
                "std_error": float(rec["std_error"]) if rec["std_error"] else None,
            }
        )
    return rows


def d_total(config: dict, rows: list[dict]) -> float:
    """Sum of every d_s the experiment reports, from search and reference cells.

    A fekete cell reports log|V| at m points; it enters as exp(log|V| / l),
    l the degree sum of the first m basis monomials, which is d_s at m = m_s.
    """
    total = 0.0
    for row in rows:
        if row["quantity"] in ("d_s", "d_s_limit"):
            total += row["value"]
        elif row["quantity"] == "log_vdm" and config["experiment"] == "fekete":
            dim = oracles.SetOracle(config["set"]).dim
            total += math.exp(row["value"] / oracles.degree_sum(dim, row["i"]))
    return total


def check_outputs(experiments: list[dict]) -> tuple[int, int, float, float, list]:
    """(attempted, failed, d_s_total, oracle_digits, check entries) over all passes."""
    attempted = failed = 0
    quality = 0.0
    log = oracles.CheckLog()
    for exp in experiments:
        n_before = len(log.failures())
        if exp["error"] is None:
            rows = parse_rows(exp["csv"])
            quality += d_total(exp["config"], rows)
            oracles.check_experiment(exp["config"], rows, exp["extras"], log)
        checks_ok = len(log.failures()) == n_before
        first = exp["pass_sha256"][0]
        for sha, flags, error in zip(exp["pass_sha256"], exp["pass_flags"], exp["pass_errors"]):
            attempted += 1
            if error or oracles.counted_flags(flags) or sha != first or not checks_ok:
                failed += 1
    return attempted, failed, quality, log.digits, log.entries


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"git_sha": sha or "unknown", "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "polyalab" / "__init__.py").is_file():
        print(f"no polyalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        mode = "trace" if args.trace else "measure"
        run = run_worker([mode, *common, "--seconds", str(args.seconds)], args.seconds + WORKER_GRACE_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark worker did not produce a result: {exc}", file=sys.stderr)
        return 1

    attempted, failed, quality, digits, checks = check_outputs(run["experiments"])
    if args.trace:
        values = run["per_layer"]
        units = {name: "s" if name.endswith("_s") else "count" for name in PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(run["pass_wall_s"]),
            "setup_s": statistics.median(run["setup_probe_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "d_s_total": quality,
            "oracle_digits": digits,
        }
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **source_identity(),
        "environment": {**run["environment"], "machine": platform.machine()},
        "setup_s": run.get("setup_probe_s"),
        "pass_wall_s": run["pass_wall_s"],
        "traced_wall_s": run.get("traced_wall_s"),
        "experiments": [
            {
                "label": e["config"]["label"],
                "experiment": e["config"]["experiment"],
                "csv_sha256": e["pass_sha256"][0],
                "passes": len(e["pass_sha256"]),
                "flags": e["pass_flags"][0],
                "error": e["error"],
            }
            for e in run["experiments"]
        ],
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    runs_dir = HERE / "runs"
    runs_dir.mkdir(exist_ok=True)
    out = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for exp in record["experiments"]:
        print(f"{exp['experiment']:<12} {exp['label']:<22} sha256 {exp['csv_sha256'][:16]}")
        for flag in exp["flags"]:
            print(f"  {'FAILED' if oracles.counted_flags([flag]) else 'flag, not counted'}: {flag}")
        if exp["error"]:
            print(f"  FAILED: {exp['error']}")
    for entry in checks:
        if not entry["ok"]:
            print(f"CHECK FAILED {entry}")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:.6g} {m['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
