"""List the library functions, config kinds and config keys that the shipped configs never use.

    python3 scripts/traffic.py

Runs every config that `scripts/csv_digests.py` runs (each `configs/*.yaml`
and each `perfbench/workloads/*/*.yaml`) through `run_experiment`, then the
first config once more through `polya-cli` into a temporary directory,
with `sys.settrace` recording each call into `src/polyalab`.  It prints,
in source order, every function and method defined there that none of
those runs called, then a count and the wall time.  A name on the list is
reached only from tests, the README, the benchmark, or a config kind that
no shipped config uses; anything else is code that nothing runs.

It then prints each config kind and key that none of those configs sets,
read from the kind tables of `polyalab.experiments` and the fields of
`SearchStrategy`: `measure disk` is a kind, `measure disk.radius` one of
its keys, `search restarts` a field.  Each is printed with its reason
from `KEPT`; a name without one is a setting that no shipped run
exercises, and `tests/test_traffic.py` fails on it.
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
    defined = defined_functions()
    called = traced_calls(default_configs())
    never = [name for key, name in sorted(defined.items()) if key not in called]
    for name in never:
        print(name)
    elapsed = time.perf_counter() - start
    print(f"{len(never)} of {len(defined)} functions and methods never ran ({elapsed:.1f} s)")

    unset = unset_config_names()
    for name in unset:
        print(f"{name}: {KEPT.get(name, 'no reason kept')}")
    print(f"{len(unset)} of {len(settable())} config kinds and keys no shipped config sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
