"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q -p no:cacheprovider

They cover the tracer's arithmetic and restore, the metric names and units
each workload prints, output checks that fail on a perturbed value, and the
refusal to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import WORKLOADS  # noqa: E402

FAKE_LIB = '''
def inner():
    CLOCK.advance(2.0)
    return "in"

def outer():
    CLOCK.advance(1.0)
    inner()
    CLOCK.advance(4.0)
    return inner()

class Base:
    def work(self):
        CLOCK.advance(3.0)
        return outer()

class Child(Base):
    pass
'''


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


def test_tracer_self_time_is_total_minus_children_and_restores_bindings():
    clock = ManualClock()
    lib = types.ModuleType("fakelib.core")
    lib.CLOCK = clock
    exec(FAKE_LIB, lib.__dict__)
    alias = types.ModuleType("fakelib.alias")
    alias.inner_by_name = lib.inner  # a `from core import inner` elsewhere
    originals = (lib.inner, lib.outer, lib.Base.__dict__["work"])

    tracer = Tracer(clock=clock)
    tracer.patch_function("core.inner", lib.inner, [lib, alias])
    tracer.patch_function("core.outer", lib.outer, [lib, alias])
    tracer.patch_method("core.work", lib.Base, "work")
    assert lib.inner is not originals[0] and alias.inner_by_name is lib.inner
    assert "work" not in lib.Child.__dict__  # inherited, so not patched twice

    assert lib.Child().work() == "in"
    assert alias.inner_by_name() == "in"
    assert dict(tracer.calls) == {"core.work": 1, "core.outer": 1, "core.inner": 3}
    # work: 3 own + outer (1 + 4 own + 2 x 2 inner); then one direct inner call
    assert tracer.self_s["core.work"] == 3.0
    assert tracer.self_s["core.outer"] == 5.0
    assert tracer.self_s["core.inner"] == 6.0
    assert sum(tracer.self_s.values()) == clock.now

    tracer.restore()
    assert (lib.inner, lib.outer, lib.Base.__dict__["work"]) == originals
    assert alias.inner_by_name is originals[0]


def test_tracer_records_counts_and_restores_after_an_exception():
    clock = ManualClock()
    mod = types.ModuleType("fakelib.boom")

    def boom(n):
        clock.advance(1.0)
        if n < 0:
            raise ValueError("negative")
        return n * 2

    mod.boom = boom
    tracer = Tracer(clock=clock)
    tracer.patch_function("boom", boom, [mod], count=lambda a, k, r: {"n": a[0]})
    assert mod.boom(3) == 6
    with pytest.raises(ValueError):
        mod.boom(-1)
    tracer.restore()
    assert mod.boom is boom
    assert tracer.calls["boom"] == 2 and tracer.self_s["boom"] == 2.0
    assert tracer.counts["boom.n"] == 3  # only calls that returned are counted


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_prints_every_declared_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    proc = _run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _library_rows(config: dict) -> tuple[list[dict], dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import polyalab as pl

    result = pl.run_experiment(pl.ExperimentConfig.from_dict(config), workers=1)
    return bench.parse_rows(pl.rows_to_csv_text(result.rows)), result.extras


def _failures(config: dict, rows: list[dict], extras: dict) -> list[dict]:
    log = oracles.CheckLog()
    oracles.check_experiment(config, rows, extras, log)
    assert log.entries, "the experiment has no oracle"
    return log.failures()


ARCSINE = {"kind": "measure", "measure": {"kind": "arcsine", "a": -1.0, "b": 1.0}}
CHECKED_CONFIGS = [
    {"experiment": "hankel", "label": "h", "germ": ARCSINE, "i_max": 12},
    {
        "experiment": "tdiam",
        "label": "t",
        "set": {"kind": "interval", "a": -0.5, "b": 2.0},
        "degrees": [12],
        "search_cap": 0,
    },
    {
        "experiment": "zs-check",
        "label": "z",
        "measure": {"kind": "disk", "radius": 1.0},
        "degrees": [3],
        "samples": 2048,
    },
]


@pytest.mark.parametrize("config", CHECKED_CONFIGS, ids=lambda c: c["experiment"])
def test_a_perturbed_value_fails_its_oracle_check(config):
    rows, extras = _library_rows(config)
    assert _failures(config, rows, extras) == []
    idx = max(i for i, r in enumerate(rows) if r["quantity"] in ("log_hankel", "log_vdm", "log_zs_gram"))
    row = rows[idx]
    bumped = dict(row, value=row["value"] + 1e-6 * max(1.0, abs(row["value"])))
    assert len(_failures(config, rows[:idx] + [bumped] + rows[idx + 1 :], extras)) == 1


def test_a_monte_carlo_estimate_off_by_many_error_bars_fails():
    config = CHECKED_CONFIGS[2]
    rows, extras = _library_rows(config)
    idx = next(i for i, r in enumerate(rows) if r["quantity"] == "log_zs_mc")
    row = rows[idx]
    assert row["std_error"] <= oracles.MC_MAX_REL_ERROR
    moved = dict(row, value=row["value"] + 2 * oracles.MC_SIGMAS * row["std_error"])
    assert len(_failures(config, rows[:idx] + [moved] + rows[idx + 1 :], extras)) == 1
    broken = dict(row, std_error=float("nan"))
    assert len(_failures(config, rows[:idx] + [broken] + rows[idx + 1 :], extras)) == 1


def test_only_the_statistical_flag_goes_uncounted():
    sigma = "s=8: Monte Carlo and Gram routes disagree (-4.52 sigma)"
    other = "s=3: Gram and Hankel routes disagree by 1.000e-03 (tolerance 1e-09)"
    assert oracles.counted_flags([sigma, other]) == [other]


def test_search_points_outside_the_set_fail_the_check():
    config = {
        "experiment": "fekete",
        "label": "f",
        "set": {"kind": "box", "bounds": [[-1.0, 1.0], [-1.0, 1.0]]},
        "sizes": [6],
        "search": {"restarts": 2, "pool_size": 64},
    }
    rows, extras = _library_rows(config)
    assert _failures(config, rows, extras) == []
    moved = json.loads(json.dumps(extras))
    moved["configurations"]["6"][0][0][0] = 1.5  # first point's x leaves [-1, 1]
    cells = [e["cell"] for e in _failures(config, rows, moved)]
    assert any(cell.endswith("points") for cell in cells)


def test_refuses_to_run_without_the_library_sources():
    bare = HERE / "runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run_bench(bare, "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
