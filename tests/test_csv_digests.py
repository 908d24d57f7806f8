"""scripts/csv_digests.py: sha256 of each config's report CSV, and its check."""

import hashlib
import subprocess
import sys
from pathlib import Path

from polyalab import ExperimentConfig, rows_to_csv_text, run_experiment

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "csv_digests.py"
CONFIG = "configs/circle_polya.yaml"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_csv_digests_hash_the_report_and_flag_a_change(tmp_path):
    result = run_experiment(ExperimentConfig.load(ROOT / CONFIG))
    expected = hashlib.sha256(rows_to_csv_text(result.rows).encode()).hexdigest()

    first = _run(CONFIG)
    assert first.returncode == 0, first.stderr
    assert first.stdout == f"{expected}  {CONFIG}\n"

    saved = tmp_path / "before.txt"
    saved.write_text(first.stdout)
    same = _run(CONFIG, "--against", str(saved))
    assert same.returncode == 0, same.stderr

    saved.write_text(f"{'0' * 64}  {CONFIG}\n")
    changed = _run(CONFIG, "--against", str(saved))
    assert changed.returncode == 1
    assert f"changed: {CONFIG}" in changed.stderr


def test_every_report_csv_matches_the_committed_digests():
    # tests/csv_digests.txt holds the sha256 of each shipped and benchmark
    # config's report CSV; a change that means to alter a report updates it
    # and lists the changed cells
    result = _run("--against", "tests/csv_digests.txt")
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == len(
        (ROOT / "tests" / "csv_digests.txt").read_text().splitlines()
    )


def test_csv_digests_against_fails_on_a_flagged_run(tmp_path):
    # two atoms carry no degree-3 L2 norm: the Gram matrix is singular and
    # the run flags an infinite ratio, though its CSV bytes are stable
    config = tmp_path / "singular-bm.yaml"
    config.write_text(ExperimentConfig(
        "bm-ratio", "singular", 0,
        {"measure": {"kind": "discrete", "atoms": [0, 1], "weights": ["1/2", "1/2"]},
         "degrees": [3]},
    ).dump_text())

    first = _run(str(config))
    assert first.returncode == 0, first.stderr
    saved = tmp_path / "before.txt"
    saved.write_text(first.stdout)
    again = _run(str(config), "--against", str(saved))
    assert again.returncode == 1
    assert again.stderr == f"flagged: {config}: s=3: ratio is infinite (singular Gram matrix)\n"
