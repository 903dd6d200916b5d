"""The event-loop replay oracle, reached by the rule that selects it.

:class:`~repro.profiling.profiler.SegmentReplaySession` takes the kernel
path only for an allocator whose type is exactly
:class:`~repro.allocator.composed.ComposedAllocator` and whose unused pools
form a standard stack (:func:`~repro.profiling.profiler.kernel_can_replay`),
and only on a trace that re-binds no live request id.  Everything else
takes the event loop,
:meth:`~repro.profiling.profiler.Profiler._replay_events`: the executable
specification that every replay identity suite compares against.
:func:`event_loop` puts a built allocator's pools behind a subclass that
changes nothing but the type, so a replay through it is the oracle's.
The identity tests and the evaluator benchmark import this module.
"""

from __future__ import annotations

from repro.allocator.composed import ComposedAllocator
from repro.profiling.profiler import kernel_can_replay

__all__ = ["EventLoopAllocator", "event_loop", "replay_event_loop"]


class EventLoopAllocator(ComposedAllocator):
    """A :class:`ComposedAllocator` the replay kernel does not take."""


def event_loop(allocator: ComposedAllocator) -> EventLoopAllocator:
    """The pools of a freshly built ``allocator`` behind an
    :class:`EventLoopAllocator` of the same name."""
    if allocator.live_blocks:
        raise ValueError("event_loop needs a freshly built allocator")
    return EventLoopAllocator(allocator.pools, name=allocator.name)


def replay_event_loop(profiler, allocator, trace, configuration_id=""):
    """Profile ``trace`` through the event loop.

    Returns ``(result, oracle allocator)``; the allocator is the one whose
    end state the replay left behind.
    """
    oracle = event_loop(allocator)
    assert not kernel_can_replay(oracle), "the kernel path takes the oracle"
    return profiler.run(oracle, trace, configuration_id), oracle
