"""scripts/traffic.py: each config name and function no shipped run uses is kept for a reason."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.fixture
def traffic(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.setattr(os, "environ", dict(os.environ))  # importing the script pins BLAS
    import traffic

    return traffic


def test_every_config_name_no_shipped_config_sets_is_kept_for_a_reason(traffic):
    # a new kind or key ships in a config (and its digest), or is deleted,
    # or goes into traffic.KEPT with the reason it stays
    assert traffic.unset_config_names() == list(traffic.KEPT)
    assert all(traffic.KEPT.values())


def test_every_function_no_shipped_run_calls_is_kept_for_a_reason(traffic):
    # a function that only tests call is deleted, or goes into
    # traffic.KEPT_FUNCTIONS with the reason it stays.  The script runs in
    # a fresh interpreter: a moment this suite has already cached would not
    # be computed, so its functions would not be called.
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "traffic.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    count = next(i for i, line in enumerate(lines) if re.match(r"\d+ of \d+ functions", line))
    assert [line.split(":")[0] for line in lines[:count]] == list(traffic.KEPT_FUNCTIONS)
    assert lines[-1] == "0 never-ran functions without a reason"
    assert all(traffic.KEPT_FUNCTIONS.values())
