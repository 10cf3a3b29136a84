"""Tasks of the hybrid runtime.

The paper's extension asks the algorithm developer to split a
compute-intensive MADNESS task into three sub-tasks:

- *preprocess* — CPU, data-intensive: gathers inputs (e.g. looks up the
  ``h`` operator matrices) and emits a :class:`WorkItem`;
- *compute*    — CPU **or** GPU, compute-intensive: the Formula 1 tensor
  contractions on the work item;
- *postprocess* — CPU, data-intensive: accumulates the result into the
  tree.

Batching groups work items by :class:`TaskKind`: "the 'kind' of a task is
given by a combination of the memory address of the compute function and
the result of a user-defined hash function applied to the input data"
(paper, footnote 2) — here the function's qualified name plus a shape
signature, which is what makes items of one batch uniformly shaped and
safely aggregatable into one transfer buffer.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class TaskKind:
    """Identity of a batchable compute-task family."""

    compute_name: str
    signature: Hashable

    def __str__(self) -> str:
        return f"{self.compute_name}[{self.signature}]"


@dataclass
class WorkItem:
    """One compute task inside a batch.

    Attributes:
        kind: batch grouping key.
        payload: optional real data (tensors and operator blocks) for
            numeric execution; ``None`` for cost-only (synthetic) items.
        flops: floating-point work of the compute phase.
        input_bytes: bytes that must reach the compute device (task
            inputs, excluding operator blocks, which are cached).
        output_bytes: bytes produced by the compute phase.
        block_keys: identities of the operator blocks the item needs on
            the device; the write-once GPU cache dedups their transfer.
        block_bytes: total size of those blocks if they all missed.
        steps: number of small matrix multiplications inside the item
            (``rank x dim`` for Formula 1) — the quantity that decides
            custom-kernel vs cuBLAS behaviour.
        step_rows / step_q: shape of each multiplication,
            ``(step_rows, step_q) x (step_q, step_q)`` — the paper's
            ``(k^{d-1}, k) x (k, k)``.
    """

    kind: TaskKind
    payload: Any = None
    flops: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    block_keys: tuple[Hashable, ...] = ()
    block_bytes: int = 0
    steps: int = 0
    step_rows: int = 0
    step_q: int = 0
    #: postprocess hook: called with the numeric result when the compute
    #: phase finishes (the *postprocess* sub-task of the paper's split).
    on_complete: Callable[[Any], None] | None = None


@dataclass
class HybridTask:
    """A full preprocess/compute/postprocess task triple.

    ``preprocess`` returns the :class:`WorkItem` to batch; ``postprocess``
    consumes the compute result.  Either may be ``None`` for synthetic
    workloads.

    Attributes:
        preprocess: callable () -> WorkItem.
        postprocess: callable (result) -> None.
        pre_bytes / post_bytes: data touched by the CPU-side phases (fed
            to the data-intensive cost model).
    """

    preprocess: Callable[[], WorkItem] | None = None
    postprocess: Callable[[Any], None] | None = None
    pre_bytes: int = 0
    post_bytes: int = 0
    work: WorkItem | None = None

    def run_preprocess(self) -> WorkItem:
        """Run the preprocess sub-task, yielding this task's WorkItem."""
        if self.preprocess is not None:
            self.work = self.preprocess()
        if self.work is None:
            raise ValueError("task has neither a preprocess nor a prepared WorkItem")
        return self.work


@dataclass(frozen=True)
class BatchStats:
    """Aggregate shape of a batch, consumed by the kernel cost models.

    An immutable value built by one fold over the items: :meth:`fold`
    returns the stats of every prefix, :meth:`of` those of the whole
    batch.
    """

    n_items: int = 0
    flops: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    steps: int = 0
    step_rows: int = 0
    step_q: int = 0
    unique_block_bytes: int = 0
    #: distinct operator blocks among the items
    n_blocks: int = 0

    @classmethod
    def fold(cls, items: Iterable[WorkItem]) -> list["BatchStats"]:
        """Stats of every prefix of ``items`` in one pass: entry ``c``
        aggregates the first ``c`` items (entry 0 is empty).

        Operator-block bytes are deduplicated by key: each of an item's
        blocks costs ``block_bytes / len(block_keys)``, and only keys no
        earlier item carried are added.  A key repeated inside one item
        is added once per repetition (ROADMAP item 3).  O(n + total
        keys): a prefix carries a count of distinct blocks, not a set.
        """
        out = [cls()]
        n = flops = input_bytes = output_bytes = steps = 0
        step_rows = step_q = unique_block_bytes = 0
        seen: set[Hashable] = set()
        for it in items:
            n += 1
            flops += it.flops
            input_bytes += it.input_bytes
            output_bytes += it.output_bytes
            steps += it.steps
            step_rows = max(step_rows, it.step_rows)
            step_q = max(step_q, it.step_q)
            keys = it.block_keys
            if keys:
                new = [k for k in keys if k not in seen]
                if new:
                    seen.update(new)
                    per_block = it.block_bytes / len(keys)
                    unique_block_bytes += int(per_block * len(new))
            out.append(
                cls(
                    n, flops, input_bytes, output_bytes, steps, step_rows,
                    step_q, unique_block_bytes, len(seen),
                )
            )
        return out

    @classmethod
    def of(cls, items: Iterable[WorkItem]) -> "BatchStats":
        """Stats of the whole of ``items`` (the fold's last entry)."""
        return cls.fold(items)[-1]
