"""Span tracer that wraps public functions of an imported package.

A traced function records one span per call: calls, total time (outermost
activation only, so recursion is not counted twice) and self time (its
duration minus the part covered by traced callees).  Counted functions only
record calls; they are not spans, so their time stays in the caller's self
time.  Every binding of a wrapped function object is replaced: module
globals that imported it under the same object (``from .x import f``),
class attributes that alias it (``__call__ = forward``) and rows of
module-level tables such as ``checks.CHECKS``.  ``restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []          # [name, start, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []       # (setter, owner, key, original)
        self.enabled = False

    # -- recording -------------------------------------------------------
    def _span(self, name_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs)
            frame = [name, self.clock(), 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - frame[1]
                self._stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[2]
                if self._active[name] == 0:
                    self.total_s[name] += elapsed
                if self._stack:
                    self._stack[-1][2] += elapsed
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------
    def wrap(self, fn, name: str | Callable, package: str, count_only: bool = False):
        """Replace every binding of ``fn`` inside ``package``'s loaded modules.

        ``name`` is a metric name or a callable (args, kwargs) -> name for
        functions whose spans split by call site.  Returns how many
        bindings were replaced; 0 means the name the callers look up was
        not found, which the caller should treat as an error.
        """
        name_of = name if callable(name) else (lambda args, kwargs, _n=name: _n)
        if count_only:
            if callable(name):
                raise ValueError("counted functions take a fixed name")
            wrapper = self._counter(name, fn)
        else:
            wrapper = self._span(name_of, fn)
        replaced = 0
        for owner in _owners(package):
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._patched.append((setattr, owner, attr, value))
                    setattr(owner, attr, wrapper)
                    replaced += 1
                elif isinstance(value, list) and not isinstance(owner, type):
                    replaced += self._wrap_in_table(value, fn, wrapper)
        return replaced

    def _wrap_in_table(self, table: list, fn, wrapper) -> int:
        # module-level registries such as checks.CHECKS hold (name, fn) rows
        replaced = 0
        for i, row in enumerate(table):
            if isinstance(row, tuple) and any(x is fn for x in row):
                self._patched.append((_set_item, table, i, row))
                table[i] = tuple(wrapper if x is fn else x for x in row)
                replaced += 1
        return replaced

    def restore(self):
        while self._patched:
            put, owner, key, original = self._patched.pop()
            put(owner, key, original)

    def __enter__(self):
        self.enabled = True
        return self

    def __exit__(self, *exc):
        self.enabled = False
        return False


def _set_item(table, index, value):
    table[index] = value


def _owners(package: str):
    """Modules of the package and the classes defined in them."""
    prefix = package + "."
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(prefix))]
    seen = set()
    for module in modules:
        yield module
        for value in list(vars(module).values()):
            if (isinstance(value, type) and id(value) not in seen
                    and getattr(value, "__module__", "").startswith(package)):
                seen.add(id(value))
                yield value


def resolve(package: str, module: str, qualname: str) -> Optional[object]:
    """Function object for ``package.module`` attribute path ``qualname``."""
    obj = sys.modules.get(f"{package}.{module}")
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
    return obj
