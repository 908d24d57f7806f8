"""sha256 of the report CSV of each experiment config, at its stored seed.

    python3 scripts/csv_digests.py                      # every shipped config
    python3 scripts/csv_digests.py > before.txt         # save the digests
    python3 scripts/csv_digests.py --against before.txt # exit 1 on a change or a flag
    python3 scripts/csv_digests.py configs/polya_matrix.yaml

With no paths it runs every `configs/*.yaml` and every
`perfbench/workloads/*/*.yaml`, in that order.  Each line is
`sha256  path`, the path relative to the checkout root.  A speedup that
leaves every line unchanged leaves the reports byte-identical.  With
`--against`, a config whose run raises a flag also fails the check, as
`flagged: path: flag` on stderr.

BLAS is pinned to one thread before numpy is first imported, so float
outputs repeat bit for bit, and the library is imported from this
checkout's `src/`.  The configs are only read.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import polyalab  # noqa: E402


def default_configs() -> list[Path]:
    return sorted((ROOT / "configs").glob("*.yaml")) + sorted(
        (ROOT / "perfbench" / "workloads").glob("*/*.yaml")
    )


def display(path: Path) -> str:
    path = path.resolve()
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)


def digest(path: Path) -> tuple[str, list[str]]:
    """The sha256 of the config's report CSV, and the flags its run raised."""
    result = polyalab.run_experiment(polyalab.ExperimentConfig.load(path))
    sha = hashlib.sha256(polyalab.rows_to_csv_text(result.rows).encode()).hexdigest()
    return sha, result.flags


def read_digests(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if line.strip():
            sha, name = line.split(maxsplit=1)
            out[name] = sha
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path, help="config files (default: all shipped)")
    parser.add_argument("--against", type=Path, help="earlier output to compare with")
    args = parser.parse_args(argv)

    expected = read_digests(args.against) if args.against else None
    changed, flagged = [], []
    for path in args.configs or default_configs():
        name, (sha, flags) = display(path), digest(path)
        print(f"{sha}  {name}", flush=True)
        if expected is not None and expected.get(name) != sha:
            changed.append(name)
        flagged += [f"{name}: {flag}" for flag in flags]
    if expected is None:
        return 0
    for name in changed:
        print(f"changed: {name} (was {expected.get(name, 'absent')})", file=sys.stderr)
    for line in flagged:
        print(f"flagged: {line}", file=sys.stderr)
    return 1 if changed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
