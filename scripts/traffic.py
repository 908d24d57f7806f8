"""List the library functions that the shipped configs never run.

    python3 scripts/traffic.py

Runs every config that `scripts/csv_digests.py` runs (each `configs/*.yaml`
and each `perfbench/workloads/*/*.yaml`) through `run_experiment`, then the
first config once more through `polya-cli` into a temporary directory,
with `sys.settrace` recording each call into `src/polyalab`.  It prints,
in source order, every function and method defined there that none of
those runs called, then a count and the wall time.  A name on the list is
reached only from tests, the README, the benchmark, or a config kind that
no shipped config uses; anything else is code that nothing runs.
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
from polyalab.cli import main as cli_main

PACKAGE = ROOT / "src" / "polyalab"


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


def main() -> int:
    start = time.perf_counter()
    defined = defined_functions()
    called = traced_calls(default_configs())
    never = [name for key, name in sorted(defined.items()) if key not in called]
    for name in never:
        print(name)
    elapsed = time.perf_counter() - start
    print(f"{len(never)} of {len(defined)} functions and methods never ran ({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
