"""Micro-batching: group compatible requests before dispatch.

One ProcessPool round-trip carries fixed costs (pickling, IPC, task
wake-up), and a batch's requests that share a trace run as one sweep;
amortizing both over a batch is where the service's throughput under
concurrent load comes from.  A warm width-1 request simulates in about
1 ms, so waiting a 5 ms window for companions that are not coming would
cost a lone request several times its own simulation.

The batcher pops the most urgent entry from the
:class:`~repro.service.scheduler.DeadlineScheduler`, then fills the
batch with *compatible* entries — same CPU model and strategy
(:attr:`SimRequest.shard_key`), any mix of workloads, offsets and
seeds — up to ``max_batch_size``.

If the queue cannot fill the batch immediately, the batcher waits up to
``window_s`` for companions, but only while some other request is
running on a worker: admitted and unanswered (the ``inflight`` count)
but no longer queued.  A request still in the queue cannot be the
reason to wait, since this batch's hold keeps it there.  A lone request
has nobody to wait for and dispatches at once, and so does an
interactive one (priority <= ``interactive_cutoff``): latency beats
occupancy there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.service.scheduler import DeadlineScheduler, ScheduledEntry
from repro.testkit.clock import SYSTEM_CLOCK


@dataclass
class Batch:
    """One dispatchable group of compatible requests.

    Attributes:
        shard_key: the shared compatibility key (cpu/strategy).
        entries: the scheduled entries, in scheduling order.
    """

    shard_key: str
    entries: List[ScheduledEntry]

    @property
    def occupancy(self) -> int:
        """Number of requests in the batch."""
        return len(self.entries)


class MicroBatcher:
    """Builds :class:`Batch`\\ es from a :class:`DeadlineScheduler`.

    Args:
        scheduler: the admission queue to consume.
        inflight: returns how many admitted requests are unanswered:
            queued, in the batch being built, or dispatched
            (:attr:`SimulationService.inflight`).  The window stays
            open only while some of them are dispatched, i.e. while it
            exceeds the queue depth plus the batch's occupancy.
        max_batch_size: hard cap on batch occupancy.
        window_s: the longest an under-full batch is held open waiting
            for compatible companions (0 disables accumulation).
        interactive_cutoff: entries with ``priority <= cutoff`` skip the
            accumulation window entirely.
        clock: time source driving the accumulation window (tests
            inject a :class:`~repro.testkit.clock.FakeClock` so the
            window elapses in virtual time).
    """

    def __init__(self, scheduler: DeadlineScheduler,
                 inflight: Callable[[], int],
                 max_batch_size: int = 8, window_s: float = 0.005,
                 interactive_cutoff: int = 0,
                 clock=SYSTEM_CLOCK) -> None:
        """See class docstring."""
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        self.scheduler = scheduler
        self.max_batch_size = max_batch_size
        self.window_s = window_s
        self.interactive_cutoff = interactive_cutoff
        self.clock = clock
        self.inflight = inflight

    async def next_batch(self) -> Batch:
        """Pop the most urgent entry and fill its batch; awaits if idle."""
        first = await self.scheduler.pop()
        entries = [first]
        entries.extend(self.scheduler.take_compatible(
            first.request.shard_key, self.max_batch_size - len(entries)))
        if (self.window_s > 0
                and first.request.priority > self.interactive_cutoff):
            deadline = self.clock.monotonic() + self.window_s
            poll = max(self.window_s / 4.0, 1e-4)
            while (len(entries) < self.max_batch_size
                   and self.inflight() - self.scheduler.depth
                   > len(entries)):
                remaining = deadline - self.clock.monotonic()
                if remaining <= 0:
                    break
                await self.clock.sleep(min(poll, remaining))
                entries.extend(self.scheduler.take_compatible(
                    first.request.shard_key,
                    self.max_batch_size - len(entries)))
        return Batch(shard_key=first.request.shard_key, entries=entries)
