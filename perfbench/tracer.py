"""Span tracer that wraps injurylab functions from outside the package.

Every wrapped call records a span ``(name, op id, thread id, start, end,
self seconds)``.  Self time is the span's duration minus the time covered by
its direct child spans on the same thread; since spans on one thread nest
like the call stack, that is the sum of the direct children's durations.
Counters are read from return values or exceptions at the same boundaries.

Wrappers are installed where callers look the function up: every module of
the package that binds the original object by name gets the wrapper, so
``from .metrics import auc`` style imports are traced too.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "injurylab"


class Tracer:
    """In-memory spans and counters; ``enabled`` switches recording."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_ids = itertools.count(1)

    # -- per-thread state -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op_id(self):
        return getattr(self._local, "op_id", None)

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, root: bool = False, on_result=None,
             on_error=None):
        """Return ``fn`` wrapped in a span called ``name``.

        A root span starts a new op id on its thread.  ``on_result(tracer,
        result)`` and ``on_error(tracer, exc)`` read counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if root and not stack:
                self._local.op_id = next(self._op_ids)
            frame = [0.0]           # time covered by direct children
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                span = (name, self.op_id, threading.get_ident(), start, end,
                        duration - frame[0])
                with self._lock:
                    self.spans.append(span)
                if root and not stack:
                    self._local.op_id = None
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    # -- summaries --------------------------------------------------------

    def span_totals(self, names) -> dict:
        """``{name: (calls, total_s, self_s)}`` for every name given."""
        totals = {name: [0, 0.0, 0.0] for name in names}
        with self._lock:
            spans = list(self.spans)
        for name, _, _, start, end, self_s in spans:
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
        return {name: tuple(v) for name, v in totals.items()}

    def self_time_sum(self) -> float:
        with self._lock:
            return sum(span[5] for span in self.spans)


# ---------------------------------------------------------------------------
# Installing wrappers


@dataclass(frozen=True)
class SpanSpec:
    """Where a span's function lives: ``module.attr`` or ``module.owner.attr``."""

    name: str
    module: str
    attr: str
    owner: str | None = None           # class holding the method
    root: bool = False                 # starts an op
    on_result: Callable | None = None
    on_error: Callable | None = None


def _package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(original, replacement) -> int:
    """Point every package-level name, and every entry of a package-level
    dict (such as a dispatch table), bound to ``original`` at the wrapper."""
    hits = 0
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        hits += 1
    return hits


def install(tracer: Tracer, specs) -> None:
    """Wrap every target; fail loudly if one cannot be found."""
    import importlib

    for spec in specs:
        module = importlib.import_module(spec.module)
        hooks = dict(root=spec.root, on_result=spec.on_result,
                     on_error=spec.on_error)
        if spec.owner is None:
            original = getattr(module, spec.attr)
            if rebind(original, tracer.wrap(spec.name, original, **hooks)) == 0:
                raise RuntimeError(f"span target {spec.name} is not bound anywhere")
            continue
        owner = getattr(module, spec.owner)
        raw = vars(owner)[spec.attr]
        if isinstance(raw, classmethod):
            setattr(owner, spec.attr,
                    classmethod(tracer.wrap(spec.name, raw.__func__, **hooks)))
        else:
            setattr(owner, spec.attr, tracer.wrap(spec.name, raw, **hooks))
