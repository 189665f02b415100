"""The :class:`Pipeline` runner: ordered passes + built-in observability.

Running a pipeline threads one :class:`PassContext` through its passes in
order under one root span named after the pipeline, timing each pass as a
child span that carries its counters.  The root's children form the
:class:`~repro.obs.trace.Trace` attached to the context (and to the
pipeline as ``last_trace``); the root itself nests into any enclosing
span, such as a :class:`~repro.obs.session.Session`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.obs.events import log_event
from repro.obs.registry import get_registry
from repro.obs.trace import Trace, span
from repro.pipeline.context import PassContext
from repro.pipeline.passes import Pass, compile_passes


class Pipeline:
    """An ordered, instrumented sequence of compiler passes."""

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline"):
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.name = name
        self.last_trace: Optional[Trace] = None

    def __repr__(self) -> str:
        stages = ", ".join(p.name for p in self.passes)
        return f"Pipeline({self.name!r}: [{stages}])"

    @property
    def pass_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    # ------------------------------------------------------------------
    def run(self, context: PassContext) -> PassContext:
        """Run every pass over ``context`` and attach the trace."""
        registry = get_registry()
        with span(self.name) as root:
            for stage in self.passes:
                with span(stage.name) as record:
                    counters = stage.run(context)
                    if counters:
                        record.counters.update(counters)
                registry.inc("pipeline.passes")
                registry.observe("pipeline.pass_seconds", record.seconds)
        context.trace = Trace(root.name, spans=root.children)
        self.last_trace = context.trace
        registry.inc("pipeline.runs")
        log_event(
            "pipeline.run",
            pipeline=self.name,
            passes=len(self.passes),
            seconds=context.trace.total_seconds,
        )
        return context


def build_compile_pipeline(scheduler: str = "xtalk",
                           select_region: bool = False,
                           scheduler_kwargs: Optional[dict] = None) -> Pipeline:
    """The Figure 2 toolflow as a pipeline: layout -> routing -> basis
    decomposition -> scheduling policy -> hardware timing.

    ``scheduler_kwargs`` is forwarded to the scheduling pass (e.g.
    ``max_solve_seconds`` / ``fallback`` for ``"xtalk"``)."""
    return Pipeline(
        compile_passes(scheduler, select_region=select_region,
                       scheduler_kwargs=scheduler_kwargs),
        name=f"compile[{scheduler}]",
    )
