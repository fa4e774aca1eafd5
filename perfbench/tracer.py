"""Outside-in tracing of forensicross layers, installed by the benchmark only.

Each traced function is replaced by a wrapper that times the call and keeps
per-layer totals in memory: calls, and self time (the call's span minus the
spans of traced calls it made). The program binds many of these functions
by name at import time (`from .crypto import sign, verify`), so a module
function is replaced in every loaded `forensicross` module that holds it,
not only where it is defined. Methods are replaced on their class;
classmethods are rewrapped as classmethods.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    def __init__(self, layers):
        """`layers` are "<module>.<qualname>" names under `forensicross`."""
        self.layers = tuple(layers)
        self.reset()
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.layers, 0)
        self.self_s = dict.fromkeys(self.layers, 0.0)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                tracer.calls[layer] += 1
                tracer.self_s[layer] += span - children[0]

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "forensicross" or name.startswith("forensicross."))
        ]
        for layer in self.layers:
            module_name, *path = layer.split(".")
            owner = importlib.import_module(f"forensicross.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            name = path[-1]
            original = owner.__dict__[name]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    self._replace(owner, name, classmethod(self._wrap(layer, original.__func__)))
                else:
                    self._replace(owner, name, self._wrap(layer, original))
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
