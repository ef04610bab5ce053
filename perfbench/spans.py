"""Call spans recorded from outside the program.

A `Tracer` wraps the public functions of a set of modules and rebinds every
module attribute that holds one of them, so that a function imported by name
into another module (``control`` and ``hvi`` both import ``mild_solution``)
is traced however it is called.  Each call becomes one `Span` with its name,
start, end and the span that was open when it started.  Spans stay in memory;
the summaries below derive counts, total time and self time from them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"


# observer(bound arguments, result), called after a traced call returns
Observer = Callable[[inspect.BoundArguments, object], None]


class Tracer:
    """Span recorder for the public functions of a set of modules."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.observers: dict[str, Observer] = {}
        self._stack: list[Span] = []
        self._rebound: list[tuple[ModuleType, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return `fn` recording one span named `name` per call."""
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(name, self.clock(), float("nan"), stack[-1] if stack else None)
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = self.clock()
            if observe is not None:
                observe(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self, modules: Iterable[ModuleType]) -> None:
        """Wrap each public function defined in `modules` and rebind every
        attribute of `modules` that holds it.  Span names are
        ``<last module name component>.<function name>``."""
        modules = list(modules)
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        """Restore every attribute `install` rebound."""
        while self._rebound:
            module, attr, value = self._rebound.pop()
            setattr(module, attr, value)


def package_modules(package: str) -> list[ModuleType]:
    """The loaded modules of `package`, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")]


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the time its child spans take.  Children
    run one after another inside their parent: the stack is per tracer, and
    the program is traced on one thread."""
    selfs = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            selfs[id(s.parent)] -= s.end - s.start
    return selfs


def has_ancestor(span: Span, names: set[str]) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def exclusive_total(spans: list[Span], names: set[str]) -> float:
    """Time spent in spans named in `names`, counting nested ones once."""
    return sum(s.end - s.start for s in spans
               if s.name in names and not has_ancestor(s, names))


def function_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """name -> calls, total seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[id(s)]
    return table
