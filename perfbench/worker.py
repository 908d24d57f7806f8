"""Runs one benchmark workload in a fresh interpreter and prints one JSON line.

Modes:
  setup    import polyalab and parse the workload's configs, report the time
  measure  untraced passes over the workload until --seconds have elapsed,
           each followed by a `setup` probe in a fresh interpreter
  trace    untraced and traced passes in turn until --seconds have elapsed

BLAS is pinned to one thread before numpy is first imported, so the load
stays within the core count and float outputs repeat bit for bit.
The library is imported from the checkout's own `src/`, never from an
installed copy.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, package_modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("examples", "search-2d", "exact", "sampling")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # at least this many, more when the run has more passes

# (key, module, function) for module-level functions, with the counts taken
# at the same boundary
TRACED_FUNCTIONS = (
    ("multiindex.monomial_matrix", "multiindex", "monomial_matrix"),
    ("vandermonde.fekete_search", "vandermonde", "fekete_search"),
    ("vandermonde.transfinite_diameter_estimate", "vandermonde", "transfinite_diameter_estimate"),
    ("vandermonde.basis_matrix", "vandermonde", "basis_matrix"),
    ("vandermonde.vdm_logdet", "vandermonde", "vdm_logdet"),
    ("vandermonde.vdm_logabs_batch", "vandermonde", "vdm_logabs_batch"),
    ("linalg.exact_logdet", "linalg", "exact_logdet"),
    ("linalg.logdet", "linalg", "logdet"),
    ("linalg.pairwise_difference_logdet", "linalg", "pairwise_difference_logdet"),
    ("linalg.batch_logabs", "linalg", "batch_logabs"),
    ("linalg.batch_pairwise_logabs", "linalg", "batch_pairwise_logabs"),
    ("linalg.exact_ldl", "linalg", "exact_ldl"),
    ("measures.gram", "measures", "gram"),
    ("measures.z_s_gram", "measures", "z_s_gram"),
    ("measures.z_s_montecarlo", "measures", "z_s_montecarlo"),
    ("measures.orthonormal_coefficients", "measures", "orthonormal_coefficients"),
    ("measures.bernstein_markov_ratio", "measures", "bernstein_markov_ratio"),
    ("functionals.hankel_matrix", "functionals", "hankel_matrix"),
    ("functionals.hankel_logdet", "functionals", "hankel_logdet"),
    ("functionals.polya_term", "functionals", "polya_term"),
    ("functionals.polya_sequence", "functionals", "polya_sequence"),
    ("functionals.coeffs_from_contour", "functionals", "coeffs_from_contour"),
    ("experiments.run_experiment", "experiments", "run_experiment"),
    ("reporting.rows_to_csv_text", "reporting", "rows_to_csv_text"),
)
# (key, module, base class, method): wrapped on every class of the module
# that derives from the base and defines the method itself
TRACED_METHODS = (
    ("domains.sample", "domains", "CompactSet", "sample"),
    ("domains.grid", "domains", "CompactSet", "grid"),
    ("domains.project", "domains", "CompactSet", "project"),
    ("domains.reference_points", "domains", "CompactSet", "reference_points"),
    ("measures.moment_fraction", "measures", "Measure", "moment_fraction"),
    ("measures.hermitian_moment_fraction", "measures", "Measure", "hermitian_moment_fraction"),
    ("measures.sample", "measures", "Measure", "sample"),
)
COUNTS = (
    "multiindex.monomial_matrix.evals",
    "linalg.exact_logdet.n3",
    "linalg.logdet.n3",
    "measures.z_s_montecarlo.samples",
    "vandermonde.fekete_search.restarts",
    "vandermonde.fekete_search.restarts_at_best",
)
RESTART_TIE = 1e-9


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_evals(args, kwargs, result):
    return {"evals": result.shape[0] * result.shape[1]}  # basis x points


def _count_rows_n3(args, kwargs, result):
    return {"n3": len(_arg(args, kwargs, 0, "rows")) ** 3}


def _count_matrix_n3(args, kwargs, result):
    return {"n3": len(_arg(args, kwargs, 0, "matrix")) ** 3}


def _count_samples(args, kwargs, result):
    return {"samples": result.samples}


def _count_restarts(args, kwargs, result):
    strategy = _arg(args, kwargs, 2, "strategy")
    searched = getattr(strategy, "mode", "search") == "search" and result.size > 1
    if not searched:
        return {"restarts": 0, "restarts_at_best": 0}
    logs = result.restart_logs
    at_best = sum(1 for v in logs if abs(v - result.log_abs) <= RESTART_TIE)
    return {"restarts": len(logs), "restarts_at_best": at_best}


COUNT_FNS = {
    "multiindex.monomial_matrix": _count_evals,
    "linalg.exact_logdet": _count_rows_n3,
    "linalg.logdet": _count_matrix_n3,
    "measures.z_s_montecarlo": _count_samples,
    "vandermonde.fekete_search": _count_restarts,
}


def traced_names() -> list[str]:
    """Per-layer metrics read off one traced pass."""
    keys = [k for k, *_ in TRACED_FUNCTIONS] + [k for k, *_ in TRACED_METHODS]
    return [f"{k}.{suffix}" for k in keys for suffix in ("calls", "self_s")] + list(COUNTS)


PER_LAYER = traced_names() + ["trace.overhead_s"]


def import_library():
    sys.path.insert(0, str(SRC))
    import polyalab

    if not Path(polyalab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"polyalab was imported from {polyalab.__file__}, not from {SRC}")
    return polyalab


def shrink(experiment: str, spec: dict) -> dict:
    """The smallest useful size of a workload's experiment, for self-tests."""
    out = dict(spec)
    for key in ("degrees", "sizes", "j_values"):
        if key in out:
            out[key] = [min(out[key][0], 6)]
    if "i_max" in out:
        out["i_max"] = min(out["i_max"], 8)
    if "s" in out:
        out["s"] = min(out["s"], 3)
    if "samples" in out:
        out["samples"] = 4096
    if "grid" in out:
        out["grid"] = 32
    if "pairs" in out:
        out["pairs"] = [dict(p, s_max=min(p["s_max"], 2)) for p in out["pairs"][:3]]
    if experiment in ("tdiam", "fekete", "polya-check", "sharpness", "stability"):
        out["search"] = {"restarts": 2, "pool_size": 64, "exchange_passes": 2, "refine_levels": 1}
    return out


def load_workload(pl, name: str, seed: int, tiny: bool) -> list:
    files = sorted((HERE / "workloads" / name).glob("*.yaml"))
    if not files:
        raise FileNotFoundError(f"workload {name!r} has no configs")
    cfgs = []
    for path in files:
        cfg = dataclasses.replace(pl.ExperimentConfig.load(path), seed=seed)
        if tiny:
            cfg = dataclasses.replace(cfg, spec=shrink(cfg.experiment, cfg.spec))
        cfgs.append(cfg)
    return cfgs


def run_pass(pl, cfgs: list) -> tuple[float, list]:
    """One timed pass: every experiment through run_experiment, rows to CSV."""
    outputs = []
    t0 = time.perf_counter()
    for cfg in cfgs:
        try:
            result = pl.run_experiment(cfg, workers=1)
            outputs.append((pl.rows_to_csv_text(result.rows), result, None))
        except Exception:  # noqa: BLE001 - one failed experiment must not stop the pass
            outputs.append(("", None, traceback.format_exc()))
    return time.perf_counter() - t0, outputs


def summarize(cfgs: list, passes: list) -> list[dict]:
    """Per experiment: the first pass's output and every pass's digest."""
    out = []
    for idx, cfg in enumerate(cfgs):
        runs = [outputs[idx] for _, outputs in passes]
        csv_text, result, error = runs[0]
        out.append(
            {
                "config": cfg.to_dict(),
                "csv": csv_text,
                "extras": result.extras if result is not None else {},
                "error": error,
                "pass_sha256": [hashlib.sha256(r[0].encode()).hexdigest() for r in runs],
                "pass_flags": [list(r[1].flags) if r[1] is not None else [] for r in runs],
                "pass_errors": [r[2] for r in runs],
            }
        )
    return out


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, as its own `setup` mode reports it."""
    cmd = [sys.executable, __file__, "setup", "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(
        cmd + (["--tiny"] if args.tiny else []), capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout)["setup_s"]


def room_for_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean so far, ends within half a
    round of --seconds.

    A run then lasts --seconds give or take half a round, rather than
    overrunning it by up to a whole round.
    """
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 0.5) / done <= seconds


def timed_passes(pl, cfgs: list, args) -> tuple[list, list]:
    """Passes for --seconds, with a set-up probe after each.

    The machine's speed drifts over seconds, so probes spread through the
    run see the same mix of fast and slow spells as the passes do.
    """
    passes, setups = [], []
    start = time.perf_counter()
    while room_for_another(start, len(passes), args.seconds):
        passes.append(run_pass(pl, cfgs))
        setups.append(setup_probe(args))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args))
    return passes, setups


def traced_pass(pl, cfgs: list) -> tuple[float, list, dict]:
    tracer = Tracer()
    modules = package_modules("polyalab")
    for key, mod_name, fn_name in TRACED_FUNCTIONS:
        original = getattr(sys.modules[f"polyalab.{mod_name}"], fn_name)
        tracer.patch_function(key, original, modules, COUNT_FNS.get(key))
    for key, mod_name, base_name, method in TRACED_METHODS:
        mod = sys.modules[f"polyalab.{mod_name}"]
        base = getattr(mod, base_name)
        classes = [c for c in vars(mod).values() if isinstance(c, type) and issubclass(c, base)]
        for cls in dict.fromkeys(classes):  # an alias must not wrap twice
            if method in cls.__dict__:
                tracer.patch_method(key, cls, method)
    try:
        wall, outputs = run_pass(pl, cfgs)
    finally:
        tracer.restore()
    layer = {}
    for name in traced_names():
        key, _, field = name.rpartition(".")
        if field == "calls":
            layer[name] = tracer.calls.get(key, 0)
        elif field == "self_s":
            layer[name] = tracer.self_s.get(key, 0.0)
        else:
            layer[name] = tracer.counts.get(name, 0)
    return wall, outputs, layer


def environment(pl) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "polyalab": pl.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    t0 = time.perf_counter()
    pl = import_library()
    cfgs = load_workload(pl, args.workload, args.seed, args.tiny)
    setup_s = time.perf_counter() - t0
    record: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    if args.mode == "measure":
        passes, record["setup_probe_s"] = timed_passes(pl, cfgs, args)
        checked = passes
    else:
        # alternate untraced and traced passes so slow drifts in machine
        # speed cancel out of the overhead
        passes, traced = [], []
        start = time.perf_counter()
        while room_for_another(start, len(traced), args.seconds):
            passes.append(run_pass(pl, cfgs))
            traced.append(traced_pass(pl, cfgs))
        layers = {
            # counts repeat exactly from pass to pass; times take the median
            name: (statistics.median if name.endswith("_s") else statistics.median_low)(
                t[2][name] for t in traced
            )
            for name in traced_names()
        }
        layers["trace.overhead_s"] = statistics.median(
            t[0] - p[0] for p, t in zip(passes, traced)
        )
        record["per_layer"] = layers
        record["traced_wall_s"] = [w for w, _, _ in traced]
        # the traced passes must compute exactly what the untraced ones did
        checked = passes + [(w, outputs) for w, outputs, _ in traced]
    record.update(
        {
            "pass_wall_s": [w for w, _ in passes],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "experiments": summarize(cfgs, checked),
            "environment": environment(pl),
        }
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
