"""Live terminal dashboard over a running sweep.

:class:`LiveDashboardSink` is a :class:`~repro.core.results.ResultSink`
that makes long local and distributed sweeps observable while they run:
it maintains an incremental Pareto front, per-metric value ranges and an
evaluation rate from the record stream, and — when the experiment layer
attaches them — mirrors the engine's memo/store counters and the search
strategy's prune counters.  A compact status block is redrawn in place on
a TTY (ANSI cursor movement) and emitted as single status lines on any
other stream, at most once per ``interval`` seconds.

The dashboard writes to *stderr* by default, so the artefact bytes a run
prints or saves stay untouched — attaching the dashboard never changes
what an exploration produces (tested).  Select it per experiment with
``sink: {"name": "dashboard"}`` in the spec document, or ``dmexplore run
experiment.json --set sink.name=dashboard``.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from ..core.pareto import IncrementalParetoFront
from ..core.results import ExplorationRecord
from ..profiling.metrics import metric_keys


def _compact(value: float) -> str:
    """Short human form of a number (1234567 -> '1.23M')."""
    magnitude = abs(value)
    for unit, scale in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if magnitude >= scale:
            return f"{value / scale:.2f}{unit}"
    if value == int(value):
        return str(int(value))
    return f"{value:.3g}"


class LiveDashboardSink:
    """A :class:`ResultSink` rendering live sweep statistics to a terminal.

    Parameters
    ----------
    metrics:
        Metric selection the Pareto front and the ranges are kept over
        (defaults to every registered metric).
    interval:
        Minimum seconds between two renders; accepted records between
        renders only update the statistics.
    stream:
        Where to draw (default ``sys.stderr``; artefact stdout is never
        touched).  On a TTY the status block is redrawn in place.
    """

    def __init__(
        self,
        metrics: list[str] | None = None,
        interval: float = 0.5,
        stream: TextIO | None = None,
    ) -> None:
        self.metrics = list(metrics or metric_keys())
        self.interval = float(interval)
        self.stream = stream if stream is not None else sys.stderr
        self.front: IncrementalParetoFront[ExplorationRecord] = IncrementalParetoFront()
        self.seen = 0
        self.feasible = 0
        self.renders = 0
        #: metric name -> (lowest, highest) value observed so far.
        self.ranges: dict[str, tuple[float, float]] = {}
        self._engine = None
        self._strategy = None
        self._windows = None
        self._started = time.monotonic()
        # The monotonic clock's origin is unspecified (boot time on Linux),
        # so start at -inf: the first accept always renders.
        self._last_render = float("-inf")
        self._block_height = 0

    # -- attachment (called by the experiment layer) -----------------------

    def attach_engine(self, engine) -> None:
        """Mirror ``engine``'s memo (L1) and store (L2) counters live."""
        self._engine = engine

    def attach_strategy(self, strategy) -> None:
        """Mirror ``strategy``'s dominance-prune counters live."""
        self._strategy = strategy

    def attach_windows(self, analysis) -> None:
        """Mirror a windowed analysis' per-window front sizes live.

        ``analysis`` is anything with a ``status_line() -> str`` method
        (:class:`repro.stream.WindowedAnalysis` in practice); the line is
        re-read at every render, so it tracks the fronts as configurations
        stream in.  Attaching the dashboard never changes the produced
        artefact — the window section bytes come from the analysis itself.
        """
        self._windows = analysis

    # -- the sink protocol -------------------------------------------------

    def accept(self, record: ExplorationRecord) -> None:
        self.seen += 1
        if record.feasible:
            self.feasible += 1
            vector = record.metric_vector(self.metrics)
            self.front.add(record, vector)
            for name, value in zip(self.metrics, vector):
                low, high = self.ranges.get(name, (value, value))
                self.ranges[name] = (min(low, value), max(high, value))
        now = time.monotonic()
        if now - self._last_render >= self.interval:
            self._last_render = now
            self.render()

    # -- rendering ---------------------------------------------------------

    def rate(self) -> float:
        """Records accepted per second since the sink was created."""
        elapsed = time.monotonic() - self._started
        return self.seen / elapsed if elapsed > 0 else 0.0

    def status_lines(self) -> list[str]:
        """The current status block, one string per line (render-free)."""
        lines = [
            f"sweep: {self.seen} evaluated ({self.feasible} feasible) | "
            f"front: {len(self.front.items())} | "
            f"rate: {_compact(self.rate())}/s"
        ]
        if self.ranges:
            spans = "  ".join(
                f"{name}=[{_compact(low)}, {_compact(high)}]"
                for name, (low, high) in self.ranges.items()
            )
            lines.append(f"ranges: {spans}")
        counters = []
        engine = self._engine
        if engine is not None:
            counters.append(
                f"memo {engine.cache_hits}/{engine.cache_hits + engine.cache_misses}"
            )
            if engine.store is not None:
                counters.append(
                    f"store {engine.store_hits}/"
                    f"{engine.store_hits + engine.store_misses} "
                    f"(loaded {engine.store.loaded})"
                )
        strategy = self._strategy
        if strategy is not None:
            counters.append(
                f"pruned {strategy.prune_skipped}"
                f"+{strategy.prune_predicted} predicted"
            )
            if getattr(strategy, "surrogate_skips", 0):
                counters.append(f"surrogate {strategy.surrogate_skips}")
        if counters:
            lines.append("counters: " + " | ".join(counters))
        if self._windows is not None:
            lines.append(self._windows.status_line())
        return lines

    def render(self, final: bool = False) -> None:
        """Draw the status block (in place on a TTY, as a line otherwise)."""
        self.renders += 1
        lines = self.status_lines()
        stream = self.stream
        if getattr(stream, "isatty", lambda: False)():
            # Rewind over the previous block, then redraw line by line.
            if self._block_height:
                stream.write(f"\x1b[{self._block_height}F")
            stream.write("".join(f"\x1b[2K{line}\n" for line in lines))
            self._block_height = len(lines)
            if final:
                self._block_height = 0
        else:
            stream.write(" | ".join(lines) + "\n")
        stream.flush()

    def finish(self) -> None:
        """Render the final state (called by the experiment layer at the end)."""
        self.render(final=True)

    def records(self) -> list[ExplorationRecord]:
        """Current front members, in arrival order."""
        return self.front.items()
