"""Asynchronous batching of compute tasks.

"The execution of the multiple compute tasks waiting for input data is
delayed until a timer expires.  At this point there are multiple batches
of compute waiting to be executed (one batch per kind of compute task)."
(paper, Section II-A)

:class:`BatchAccumulator` implements exactly that: submitted work items
are appended to the open batch of their kind; a flush is triggered by the
timer (simulated time), by a batch reaching its size cap, or explicitly
at drain time.  The accumulator never reorders items of one kind and
never loses or duplicates an item — properties the test suite checks by
property-based testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuntimeConfigError
from repro.runtime.task import TaskKind, WorkItem


@dataclass
class Batch:
    """A flushed group of same-kind work items."""

    kind: TaskKind
    items: list[WorkItem]
    created_at: float
    flushed_at: float

    @property
    def size(self) -> int:
        """Number of work items in the batch."""
        return len(self.items)


@dataclass
class _OpenBatch:
    items: list[WorkItem] = field(default_factory=list)
    opened_at: float = 0.0


class BatchAccumulator:
    """Groups submitted work items by kind until flushed.

    Args:
        flush_interval: simulated seconds after the first pending item of
            any kind before a timer flush is due (the paper's batching
            timer).
        max_batch_size: flush a kind eagerly when it accumulates this
            many items (keeps transfer buffers bounded).
    """

    def __init__(self, flush_interval: float = 0.01, max_batch_size: int = 1024):
        if flush_interval <= 0:
            raise RuntimeConfigError(
                f"flush interval must be positive, got {flush_interval}"
            )
        if max_batch_size < 1:
            raise RuntimeConfigError(
                f"max batch size must be >= 1, got {max_batch_size}"
            )
        self.flush_interval = flush_interval
        self.max_batch_size = max_batch_size
        self._open: dict[TaskKind, _OpenBatch] = {}
        self.submitted = 0
        self.flushed = 0

    # -- submission ------------------------------------------------------------

    def submit(self, item: WorkItem, now: float) -> Batch | None:
        """Add an item; returns an eagerly-flushed batch if the size cap hit."""
        batch = self._open.get(item.kind)
        if batch is None:
            batch = _OpenBatch(opened_at=now)
            self._open[item.kind] = batch
        batch.items.append(item)
        self.submitted += 1
        if len(batch.items) >= self.max_batch_size:
            return self._flush_kind(item.kind, now)
        return None

    # -- flushing ----------------------------------------------------------------

    def next_deadline(self) -> float | None:
        """Earliest instant at which a timer flush is due (None if empty)."""
        if not self._open:
            return None
        return min(b.opened_at for b in self._open.values()) + self.flush_interval

    def due(self, now: float) -> list[TaskKind]:
        """Kinds whose timer has expired at ``now``."""
        return [
            kind
            for kind, b in self._open.items()
            if now - b.opened_at >= self.flush_interval
        ]

    def _flush_kind(self, kind: TaskKind, now: float) -> Batch:
        open_batch = self._open.pop(kind)
        self.flushed += len(open_batch.items)
        return Batch(
            kind=kind,
            items=open_batch.items,
            created_at=open_batch.opened_at,
            flushed_at=now,
        )

    def flush(self, now: float, kinds: list[TaskKind] | None = None) -> list[Batch]:
        """Flush the given kinds (default: everything pending)."""
        if kinds is None:
            kinds = list(self._open)
        return [self._flush_kind(k, now) for k in kinds if k in self._open]

    @property
    def pending(self) -> int:
        """Total items waiting across all open (unflushed) batches."""
        return sum(len(b.items) for b in self._open.values())

    def pending_kinds(self) -> list[TaskKind]:
        """Kinds that currently have an open batch, in insertion order."""
        return list(self._open)
