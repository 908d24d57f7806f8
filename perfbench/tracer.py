"""Stack-based span tracer that wraps a library's public functions in place.

Each wrapped call opens a span on a stack.  When it closes, its duration is
added to the parent's child time, and its self time (duration minus the
direct children's durations) is added to its key.  Optional count functions
turn a call's arguments and result into extra counters at the same
boundary.

Functions are imported by name across modules, so `patch_function` swaps
every module-level binding of the same function object, and `restore` puts
back every binding it replaced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

CountFn = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # [start, time in direct children]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, key: str, fn: Callable, count: CountFn | None = None) -> Callable:
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                self.calls[key] += 1
                self.self_s[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                for name, value in count(args, kwargs, result).items():
                    self.counts[f"{key}.{name}"] += value
            return result

        return traced

    def patch_function(
        self, key: str, original: Callable, modules: Iterable[object], count: CountFn | None = None
    ) -> None:
        """Replace every module-level binding of `original` in `modules`."""
        wrapper = self.wrap(key, original, count)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def patch_method(self, key: str, cls: type, name: str, count: CountFn | None = None) -> None:
        """Wrap a method defined on `cls` itself (inherited ones are left alone)."""
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, self.wrap(key, original, count))

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def package_modules(package: str) -> list[object]:
    """The package and every submodule already imported."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
