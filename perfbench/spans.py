"""Timing spans around the program's layer entry points, for traced runs.

:class:`Tracer` replaces each function in :data:`TARGETS` by a wrapper
in every ``fmaf`` module namespace that holds it, including the names
one module imports from another (``fmaf.dsl.build_model``,
``fmaf.simulator.check``, ``fmaf.cli.run`` ...), and puts the originals
back on :meth:`Tracer.uninstall`.  Each call adds its self time (its
duration minus the spans nested directly inside it), a call count and
the sizes :func:`_counts` reads off its arguments and result to per-phase
totals.  Calls made under :meth:`Tracer.pause` are not recorded.
Nothing in the program changes.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Layer entry points: module -> public functions wrapped.  Helpers the
#: program calls inside them (``detection_race``, ``blocking_violations``
#: ...) are not spans, so their time counts as their caller's self time.
TARGETS = {
    "dsl": ("parse", "parse_file", "serialize"),
    "model": ("build_model",),
    "checker": ("check",),
    "simulator": ("run", "enumerate_outcomes", "compute_metrics", "summarize",
                  "format_trace", "write_trace"),
    "viewgen": ("project", "to_dot"),
    "casestudy": ("load_bundle",),
    "cli": ("main",),
}


def _counts(name: str, args, result, parent: str | None) -> dict[str, int]:
    if name == "dsl.parse":
        return {"dsl.lines": args[0].count("\n") + 1}
    if name == "model.build_model":
        return {"model.activities": sum(len(g.nodes) for g in result.processes.values())}
    if name == "simulator.run":
        return {"simulator.events": len(result.events)}
    if name == "simulator.format_trace":
        return {"simulator.trace_bytes": len(result)}
    if name == "viewgen.to_dot":
        return {"viewgen.dot_bytes": len(result.encode())}
    if name == "simulator.summarize" and parent == "simulator.enumerate_outcomes":
        return {"simulator.enumerate_leaves": 1}
    return {}


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [child seconds, name]
        self._saved: list[tuple[object, str, object]] = []
        self.paused = False
        self.reset()

    def reset(self) -> None:
        """Start new per-phase totals."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.main_ms: list[float] = []  # duration of each cli.main call

    @contextmanager
    def pause(self):
        """Calls made inside run unrecorded, as if the wrappers were absent."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, name: str, fn):
        stack = self._stack

        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.self_s[name] += end - start - frame[0]
                self.calls[name] += 1
                if parent is not None:
                    parent[0] += end - start
                if name == "cli.main":
                    self.main_ms.append((end - start) * 1000.0)
            self.counts.update(_counts(name, args, result, parent[1] if parent else None))
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        originals = {}
        for short, names in TARGETS.items():
            module = sys.modules[f"fmaf.{short}"]
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "fmaf" and not modname.startswith("fmaf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()
