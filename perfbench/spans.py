"""Benchmark-side spans around the program's public calls, and per-layer self time.

The traced run wraps public methods *on the instance* (``motion.step``,
``ThermalJoin.step_delta``, ``SimulationRunner.run``, the ``ShardRing``
calls) and opens their spans on the program's own
:class:`repro.obs.Tracer`, the same tracer that records the engine's step,
stage and task spans.  The wrapper spans and the engine's step spans are
roots; when an op ends, each root is adopted by the shortest longer span of
the op that contains it in time, which is the call that ran it.  Spans stay
in memory and are written out as JSONL when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.obs import JsonlWriter, Span, Tracer, set_tracer

#: Engine span names (``repro.engine``) to the layer that does the work.
_ENGINE_NAMES = {
    "step": "engine.step",
    "prepare": "core.prepare",
    "partition": "engine.partition",
    "verify": "engine.verify",
    "merge": "engine.merge",
}

#: The four engine stages, by layer name; together they should make up a join step.
ENGINE_STAGES = ("core.prepare", "engine.partition", "engine.verify", "engine.merge")

#: Engine task phases to the layer whose code the task runs.
_TASK_PHASES = {
    "external": "kernels.external",
    "internal": "core.internal",
    "reverify": "engine.reverify",
}

#: Clock slack when deciding whether one span contains another.  All spans
#: share the tracer's clock; the slack only absorbs the few microseconds
#: between a span's start reading and the start of its wall-time reading.
_SLACK_S = 1e-5


class SpanLog:
    """The spans of one traced run, grouped by op (a step or an epoch).

    ``op`` is the index of the op running now; spans are only recorded
    inside :meth:`traced` blocks.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()  # the tracer's zero, to within microseconds
        self.tracer = Tracer()
        self.by_op: dict[int, list[Span]] = defaultdict(list)
        #: Engine tasks run per op.
        self.tasks: Counter[int] = Counter()
        self.enabled = False
        self.op = 0

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Replace ``obj.method`` on this instance by a spanned, observed call.

        The wrapper lives on a per-instance subclass that keeps the base's
        name and module, so ``vars(obj)`` and the class identity recorded
        in checkpoints are unchanged: recovery snapshots motion models
        reflectively and would refuse a function-valued attribute.
        """
        base = type(obj)
        original = getattr(base, method)

        def wrapper(instance: Any, *args: Any, **kwargs: Any) -> Any:
            if self.enabled:
                with self.tracer.span(name):
                    result = original(instance, *args, **kwargs)
            else:
                result = original(instance, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        obj.__class__ = type(
            base.__name__,
            (base,),
            {method: wrapper, "__module__": base.__module__, "__qualname__": base.__qualname__},
        )

    @contextmanager
    def traced(self, on: bool) -> Iterator[None]:
        """Trace the ``with`` body when ``on``: wrapper spans and the engine's."""
        if not on:
            yield
            return
        set_tracer(self.tracer)
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            set_tracer(None)
            self._adopt(self.tracer.drain())

    def _adopt(self, spans: list[Span]) -> None:
        """File a finished op's spans under layer names and give each root a parent."""
        for span in spans:
            if span.name.startswith("task:"):
                span.name = _TASK_PHASES.get(span.phase or "", f"engine.task.{span.phase}")
                self.tasks[self.op] += 1
            else:
                span.name = _ENGINE_NAMES.get(span.name, span.name)
        for span in spans:
            if span.parent_id is None:
                span.parent_id = _innermost(spans, span)
        self.by_op[self.op].extend(spans)

    def record(self, name: str, start: float, wall: float, parent: Span | None = None) -> Span:
        """Add a span measured elsewhere; ``start`` is a ``perf_counter`` reading."""
        span = self.tracer.record(name, parent=parent, wall_seconds=wall)
        span.start = start - self.origin
        self.by_op[self.op].extend(self.tracer.drain())
        return span

    def last(self, name: str) -> Span:
        """The latest span called ``name`` in the current op."""
        return next(s for s in reversed(self.by_op[self.op]) if s.name == name)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def per_op(self, ops: set[int], match: Callable[[Span], bool]) -> dict[int, float]:
        """Total wall of the matching spans in each op of ``ops`` (0.0 when none)."""
        return {
            op: sum(s.wall_seconds for s in self.by_op.get(op, ()) if match(s)) for op in ops
        }

    def wall_per_op(self, name: str, ops: set[int]) -> dict[int, float]:
        """Total wall of the spans called ``name`` in each op of ``ops``."""
        return self.per_op(ops, lambda span: span.name == name)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, total wall, self wall)}``; self = wall minus child walls."""
        spans = [span for op_spans in self.by_op.values() for span in op_spans]
        child_wall: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                child_wall[span.parent_id] += span.wall_seconds
        table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in spans:
            row = table[span.name]
            row[0] += 1
            row[1] += span.wall_seconds
            row[2] += span.wall_seconds - child_wall.get(span.span_id, 0.0)
        return {name: (int(c), total, own) for name, (c, total, own) in table.items()}

    def write_jsonl(self, path: Path, header: dict[str, Any]) -> None:
        with JsonlWriter(path) as writer:
            writer.write({"kind": "run", **header})
            for op, spans in sorted(self.by_op.items()):
                for span in spans:
                    writer.write({**span.to_json(), "op": op})


def _innermost(spans: list[Span], inner: Span) -> int | None:
    """Id of the shortest span longer than ``inner`` that contains it in time."""
    best: Span | None = None
    end = inner.start + inner.wall_seconds
    for span in spans:
        if (
            span.wall_seconds > inner.wall_seconds
            and span.start - _SLACK_S <= inner.start
            and end <= span.start + span.wall_seconds + _SLACK_S
            and (best is None or span.wall_seconds < best.wall_seconds)
        ):
            best = span
    return best.span_id if best is not None else None


def render_table(title: str, rows: dict[str, tuple[int, float, float]], ops: int) -> str:
    """Per-layer self-time table, layers sorted by self time."""
    lines = [
        f"== {title}: per-layer self time over {ops} traced ops ==",
        f"{'layer':<28}{'calls':>7}{'total s':>11}{'self s':>11}{'self/op s':>12}",
    ]
    for name, (calls, total, own) in sorted(rows.items(), key=lambda item: -item[1][2]):
        per_op = own / ops if ops else 0.0
        lines.append(f"{name:<28}{calls:>7}{total:>11.4f}{own:>11.4f}{per_op:>12.5f}")
    return "\n".join(lines)
