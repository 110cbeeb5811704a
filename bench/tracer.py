"""Outside-in tracer: times calls into fldp's modules without editing them.

Each target names a function the way its caller looks it up (for example
``fldp.engine.local_train`` is the module global that ``run_simulation``
calls, ``fldp.models.grad`` the attribute that ``local_train`` reads). While
installed, the tracer replaces that binding with a wrapper that records a
span: its name, its duration and the time covered by its direct child spans,
so self time = duration - child time. Spans are aggregated in memory and read
out at the end.

A target whose module, class or function no longer exists is recorded as
absent and skipped; its metrics then read 0 and the name is reported.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

perf = time.perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    name: str
    child_s: float = 0.0


@dataclass
class Target:
    """One binding to wrap.

    ``path`` is ``module:attribute`` or ``module:Class.attribute``. ``span``
    names the span; it may be a callable of the call's arguments, so one
    function can feed several spans. ``hook(tracer, args, kwargs, result)``
    runs after the call for counters derived from arguments or results; its
    cost is kept out of every span's self time. ``count_only`` counts calls
    without timing them.
    """

    path: str
    span: str | Callable[..., str]
    hook: Optional[Callable[..., None]] = None
    count_only: bool = False


@dataclass
class Tracer:
    targets: list[Target]
    spans: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            owner, attr = _resolve(target.path)
            if owner is None or not hasattr(owner, attr):
                if target.path not in self.absent:
                    self.absent.append(target.path)
                continue
            own = not isinstance(owner, type) or attr in owner.__dict__
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original if own else None))
            setattr(owner, attr, self._wrap(target, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open (an ancestor)."""
        return any(frame.name == name for frame in self._stack)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        if target.count_only:
            name = target.span

            def counted(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)

            return counted

        hook_label = f"{target.path} (counters)"

        def traced(*args, **kwargs):
            name = target.span(*args, **kwargs) if callable(target.span) else target.span
            frame = _Frame(name)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stats = spans.get(name)
                if stats is None:
                    stats = spans[name] = SpanStats()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
            if target.hook is not None and hook_label not in self.absent:
                hook_start = perf()
                try:
                    target.hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The call's arguments or result changed shape: report
                    # the counter as absent rather than fail the run.
                    self.absent.append(hook_label)
                if stack:
                    # Hook time is tracer overhead, not the caller's own work.
                    stack[-1].child_s += perf() - hook_start
            return result

        return traced

    # -- read-out ----------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(self.spans[n].total_s for n in names if n in self.spans)

    def self_time(self, name: str) -> float:
        return self.spans[name].self_s if name in self.spans else 0.0

    def calls(self, *names: str) -> int:
        return sum(self.spans[n].calls for n in names if n in self.spans)


def _resolve(path: str) -> tuple[Any, str]:
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None, dotted
    *owners, attr = dotted.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr
