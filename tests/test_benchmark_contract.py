"""The benchmark in perfbench/ traces library functions and methods by name.

`perfbench/worker.py` lists them in TRACED_FUNCTIONS and TRACED_METHODS.
Its count functions also read some arguments of a traced call by
position or by keyword.  A library change that deletes or renames one of
those names, or moves such a parameter, breaks the benchmark's traced
runs, so these tests check every name against the library.  The worker is
loaded from its file path, unchanged.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_worker():
    sys.path.insert(0, str(PERFBENCH))  # the worker imports its sibling tracer.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_traced_names_exist_in_the_library():
    worker = _load_worker()
    missing = []
    for key, mod_name, fn_name in worker.TRACED_FUNCTIONS:
        mod = importlib.import_module(f"polyalab.{mod_name}")
        if not callable(getattr(mod, fn_name, None)):
            missing.append(key)
    for key, mod_name, base_name, method in worker.TRACED_METHODS:
        # the worker wraps the method on each class of the module that derives
        # from the base and defines it itself; at least one must
        mod = importlib.import_module(f"polyalab.{mod_name}")
        base = getattr(mod, base_name, None)
        owners = [
            c for c in vars(mod).values()
            if isinstance(c, type) and isinstance(base, type) and issubclass(c, base)
            and method in c.__dict__
        ]
        if not owners:
            missing.append(key)
    assert missing == []


def test_counted_arguments_keep_their_names_and_positions():
    # a count function reads an argument as _arg(args, kwargs, position, name):
    # a traced run passes it either way, so the parameter must keep both
    worker = _load_worker()
    functions = {key: (mod_name, fn_name) for key, mod_name, fn_name in worker.TRACED_FUNCTIONS}
    read = set()
    for key, count in worker.COUNT_FNS.items():
        for pos, name in re.findall(r'_arg\(args, kwargs, (\d+), "(\w+)"\)', inspect.getsource(count)):
            read.add((key, int(pos), name))
    assert read >= {
        ("linalg.exact_logdet", 0, "rows"),
        ("linalg.logdet", 0, "matrix"),
        ("vandermonde.fekete_search", 2, "strategy"),
    }
    moved = []
    for key, pos, name in sorted(read):
        mod_name, fn_name = functions[key]
        fn = getattr(importlib.import_module(f"polyalab.{mod_name}"), fn_name)
        params = list(inspect.signature(fn).parameters)
        if params[pos : pos + 1] != [name]:
            moved.append((key, pos, name, params))
    assert moved == []
