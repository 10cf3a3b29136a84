"""The reference computation that ``wall_norm`` divides by.

The shared host's speed drifts by 30% and more within seconds.  A
fixed computation timed right before and right after every repetition
slows with it, so the repetition's time divided by the two reference
times keeps what the program did and drops most of what the host did.

The reference imports nothing from the program: a change to the
simulator cannot make it faster or slower.  It mixes the kinds of work
the workloads do, because a slow phase of the host slows some of them
more than others: a heap of tuples and a churning dict (the ledgers),
generator processes driven from a time-ordered heap (the DES core), a
JSON round trip and a sort of trace-like records (the dumps and
checkers), regular-expression scans, and chained dense array products
(the kernels).  It takes about 0.15 s on the reference host.
"""

from __future__ import annotations

import heapq
import json
import re

import numpy as np

#: heap pushes and dict stores of the ledger part
LEDGER_STEPS, HEAP_CAP = 20_000, 10_000
#: generator processes and events of the DES part
PROCESSES, EVENTS = 1500, 12_000
#: records of the JSON part
RECORDS = 2000
#: scans of the regular-expression part
SCANS = 8
#: matrix order and chained products of the array part
ORDER, PRODUCTS = 200, 12

_TEXT = " ".join(
    f"rank{i % 97} task-{i} t={i * 0.37:.3f}s kind=apply{i % 7}" for i in range(400)
)
_FIELD = re.compile(r"(\w+)-(\d+) t=([\d.]+)s")


def _lcg(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def _ledger() -> float:
    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(LEDGER_STEPS):
        x = _lcg(x)
        heapq.heappush(heap, (x % 1000 / 7.0, i, (i, x)))
        table[(i & 4095, x & 7)] = [i, x]
        if len(heap) > HEAP_CAP:
            heapq.heappop(heap)
    return float(sum(v[0] for v in table.values())) + heap[0][0]


class _Process:
    __slots__ = ("rank", "load", "steps")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.load = 0
        self.steps = 0


def _body(proc: _Process):
    x = proc.rank * 7919 + 1
    while True:
        x = _lcg(x)
        proc.load += x & 15
        proc.steps += 1
        yield (x % 1000) / 997.0


def _des() -> float:
    procs = [_Process(rank) for rank in range(PROCESSES)]
    bodies = [_body(proc) for proc in procs]
    heap = [(0.0, rank) for rank in range(PROCESSES)]
    heapq.heapify(heap)
    last = {}
    for seq in range(EVENTS):
        now, rank = heapq.heappop(heap)
        delay = next(bodies[rank])
        last[(rank, seq & 63)] = (now, delay)
        heapq.heappush(heap, (now + delay, rank))
    return sum(p.load for p in procs) + len(last) + heap[0][0]


def _records() -> float:
    records = [
        {"op": f"op{i % 11}", "rank": i % 37, "t": i * 0.5, "items": list(range(i % 5))}
        for i in range(RECORDS)
    ]
    back = json.loads(json.dumps(records))
    records.sort(key=lambda r: (r["rank"], -r["t"]))
    by_op: dict = {}
    for record in back:
        by_op.setdefault(record["op"], []).append(record["t"])
    return len(by_op) + records[0]["t"] + sum(map(len, by_op.values()))


def _text() -> float:
    total = 0
    for _ in range(SCANS):
        for match in _FIELD.finditer(_TEXT):
            total += int(match.group(2)) + len(match.group(1))
    return float(total)


def _arrays() -> float:
    a = np.arange(float(ORDER * ORDER)).reshape(ORDER, ORDER)
    for _ in range(PRODUCTS):
        b = np.einsum("ij,jk->ik", a, a[::-1])
        a = b / b.max()
    return float(a.sum())


def reference() -> float:
    """Run the reference computation once; returns its checksum, which
    is the same on every call."""
    return _ledger() + _des() + _records() + _text() + _arrays()
