"""List the library functions, config kinds and config keys that the shipped configs never use.

    python3 scripts/traffic.py

Runs every config that `scripts/csv_digests.py` runs (each `configs/*.yaml`
and each `perfbench/workloads/*/*.yaml`) through `run_experiment`, then the
first config once more through `polya-cli` into a temporary directory,
with `sys.settrace` recording each call into `src/polyalab`.  It prints,
in source order, every function and method defined there that none of
those runs called, each with its reason from `KEPT_FUNCTIONS`, then a
count and the wall time.  A
name is kept because the benchmark traces it by name, or because it
serves an input that no shipped config sets; a name without a reason is
code that only tests call, and `tests/test_traffic.py` fails on it.

It then prints each config kind and key that none of those configs sets,
read from the kind tables of `polyalab.experiments` and the fields of
`SearchStrategy`: `measure disk` is a kind, `measure disk.radius` one of
its keys, `search restarts` a field.  Each is printed with its reason
from `KEPT`; a name without one is a setting that no shipped run
exercises, and `tests/test_traffic.py` fails on it.  The last line
counts the never-ran functions without a reason.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import time

from csv_digests import ROOT, default_configs  # also pins BLAS and puts src/ first

import polyalab
from polyalab import experiments
from polyalab.cli import main as cli_main

PACKAGE = ROOT / "src" / "polyalab"

# each `kind:` table, its entries (accepted keys, constructor) keyed by kind
KIND_TABLES = {
    "experiment": experiments._EXPERIMENTS,
    "set": experiments._SETS,
    "family": experiments._FAMILIES,
    "measure": experiments._MEASURES,
    "germ": experiments._GERMS,
    "contour-germ": experiments._CONTOUR_GERMS,
}
# mappings with a fixed key set and no kind
KEY_SETS = {"pair": experiments._PAIR_KEYS, "search": experiments._STRATEGY_KEYS}
# (table, key) -> the table of the mapping, or list of mappings, under that key
NESTED = {
    ("experiment", "set"): "set",
    ("experiment", "family"): "family",
    ("experiment", "measure"): "measure",
    ("experiment", "germ"): "germ",
    ("experiment", "pairs"): "pair",
    ("experiment", "search"): "search",
    ("pair", "set"): "set",
    ("pair", "germ"): "germ",
    ("set", "factors"): "set",
    ("measure", "factors"): "measure",
    ("germ", "measure"): "measure",
    ("germ", "germ"): "contour-germ",
}

_BENCH_SELF_TEST = (
    "set by perfbench/worker.py shrink for the benchmark self-tests; "
    "perfbench/ changes only with the benchmark"
)
# the config names that no shipped config sets, in table order, each with
# the reason it is kept
KEPT = {
    "experiment tdiam.search": _BENCH_SELF_TEST,
    "experiment fekete.search": _BENCH_SELF_TEST,
    "experiment stability.search": _BENCH_SELF_TEST,
    "search exchange_passes": _BENCH_SELF_TEST,
    "search pool_size": _BENCH_SELF_TEST,
    "search refine_levels": _BENCH_SELF_TEST,
}


_BENCH_TRACED = (
    "traced by name in perfbench/worker.py; perfbench/ changes only with the benchmark"
)
# the library functions and methods that no shipped run calls, in source
# order, each with the reason it is kept
KEPT_FUNCTIONS = {
    "domains.CompactSet.grid_blocks": (
        "bm-ratio of a one-variable measure; the one shipped bm-ratio config is a product"
    ),
    "domains.Disk.grid": (
        "searching a disk; the shipped disk cells score the reference configuration"
    ),
    "domains.Disk.project": (
        "searching a disk; the shipped disk cells score the reference configuration"
    ),
    "domains.FiniteSet._array": "sharpness's support check on a discrete measure",
    "domains.FiniteSet.grid": "sharpness's support check on a discrete measure",
    "domains.FiniteSet.project": "sharpness's support check on a discrete measure",
    "functionals.coeffs_from_table": (
        "the tier-1 closed-form germs and scripts/bench_layers.py's zero-minor rows"
    ),
    "functionals.hankel_logdet": _BENCH_TRACED,
    "functionals.polya_term": _BENCH_TRACED,
    "linalg.pairwise_difference_logdet": _BENCH_TRACED,
    "linalg.exact_logdet": _BENCH_TRACED,
    "linalg.MomentMatrix.__len__": (
        "perfbench/worker.py's linalg.exact_logdet n3 counter takes len() of its argument"
    ),
    "linalg.MomentMatrix.logdet": "called by the traced hankel_logdet and z_s_gram",
    "measures.DiscreteMeasure.hermitian_moment": "float moments of complex atoms",
    "measures.DiscreteMeasure.sample": "zs-check of a discrete measure",
    "measures.z_s_gram": _BENCH_TRACED,
}


def _stub(node: ast.FunctionDef) -> bool:
    """An abstract method: its body, past a docstring, is `raise NotImplementedError`."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return len(body) == 1 and ast.unparse(body[0]) == "raise NotImplementedError"


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of each module-level function and method.

    Abstract stubs are left out: no call can run them.
    """
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node, "") for node in tree.body]
        while scopes:
            node, prefix = scopes.pop()
            if isinstance(node, ast.ClassDef):
                scopes.extend((child, f"{prefix}{node.name}.") for child in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _stub(node):
                # a decorated function's code starts at its first decorator
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first)] = f"{path.stem}.{prefix}{node.name}"
    return out


def traced_calls(configs) -> set[tuple[str, int]]:
    """(file, first line) of every library function called by the runs."""
    seen = set()
    prefix = str(PACKAGE)

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            seen.add((code.co_filename, code.co_firstlineno))
        # no per-line tracing: a call is all this needs

    sys.settrace(on_call)
    try:
        for path in configs:
            polyalab.run_experiment(polyalab.ExperimentConfig.load(path))
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            cli_main(["--config", str(configs[0]), "--out", out])
    finally:
        sys.settrace(None)
    return seen


def never_ran_functions() -> tuple[list[str], int]:
    """Each library function and method, in source order, that no config csv_digests.py
    runs calls, and the number defined."""
    defined = defined_functions()
    called = traced_calls(default_configs())
    return [name for key, name in sorted(defined.items()) if key not in called], len(defined)


def settable() -> list[str]:
    """Every config kind and key, in table order."""
    out = []
    for table, kinds in KIND_TABLES.items():
        for kind, (keys, _) in kinds.items():
            out += [f"{table} {kind}"] + [f"{table} {kind}.{key}" for key in sorted(keys)]
    for table, keys in KEY_SETS.items():
        out += [f"{table} {key}" for key in sorted(keys)]
    return out


def set_in(table: str, spec) -> set[str]:
    """The kinds and keys that one mapping of `table`, and each mapping under it, sets."""
    if not isinstance(spec, dict):
        return set()
    if table in KIND_TABLES:
        kind = spec["kind"]
        names = {f"{table} {kind}"} | {f"{table} {kind}.{key}" for key in spec if key != "kind"}
    else:
        names = {f"{table} {key}" for key in spec}
    for key, value in spec.items():
        child = NESTED.get((table, key))
        if child is not None:
            for item in value if isinstance(value, list) else [value]:
                names |= set_in(child, item)
    return names


def unset_config_names() -> list[str]:
    """Each config kind and key, in table order, that no config csv_digests.py runs sets."""
    used = set()
    for path in default_configs():
        cfg = polyalab.ExperimentConfig.load(path)
        used |= set_in("experiment", {**cfg.spec, "kind": cfg.experiment})
    return [name for name in settable() if name not in used]


def main() -> int:
    start = time.perf_counter()
    never, defined = never_ran_functions()
    for name in never:
        print(f"{name}: {KEPT_FUNCTIONS.get(name, 'no reason kept')}")
    elapsed = time.perf_counter() - start
    print(f"{len(never)} of {defined} functions and methods never ran ({elapsed:.1f} s)")

    unset = unset_config_names()
    for name in unset:
        print(f"{name}: {KEPT.get(name, 'no reason kept')}")
    print(f"{len(unset)} of {len(settable())} config kinds and keys no shipped config sets")
    unkept = sum(1 for name in never if name not in KEPT_FUNCTIONS)
    print(f"{unkept} never-ran functions without a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
