"""The extended LLC query logic unit (§4.1.3).

The Morpheus controller tracks outstanding extended LLC requests with four
structures, all memory-mapped so the extended LLC kernel warps can read and
write them with plain load/store instructions:

* a **request queue** that buffers bursts so the NoC is not clogged,
* a **warp status table** with one row per extended LLC set, tracking the
  warp assigned to that set (busy bit, op, tag, origin, result, data pointer),
* a **read data buffer** holding cache blocks returned by the kernel, and
* a **write data buffer** holding dirty blocks headed to the extended LLC.

Each extended LLC kernel warp serves exactly one request at a time, which is
also what guarantees atomicity of read-modify-write operations on extended
LLC blocks (§4.2.3).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.memory.request import MemoryRequest


class WarpOp(enum.Enum):
    """Operation a warp-status-table row is currently serving."""

    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"


class WarpResult(enum.Enum):
    """Result field of a warp status table row."""

    PENDING = "pending"
    HIT = "hit"
    MISS = "miss"


@dataclass
class WarpStatusRow:
    """One row of the warp status table (one extended LLC set / kernel warp)."""

    set_index: int
    busy: bool = False
    tag: int = -1
    origin_sm: int = -1
    op: WarpOp = WarpOp.READ
    result: WarpResult = WarpResult.PENDING
    data_buffer_index: int = -1
    requests_served: int = 0


class WarpStatusTable:
    """The warp status table: one row per extended LLC set in this partition."""

    def __init__(self, num_rows: int = 256) -> None:
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        self.num_rows = num_rows
        self._rows: List[WarpStatusRow] = [WarpStatusRow(set_index=i) for i in range(num_rows)]

    def row(self, set_index: int) -> WarpStatusRow:
        """Row for ``set_index``."""
        if not 0 <= set_index < self.num_rows:
            raise ValueError(f"set_index {set_index} out of range [0, {self.num_rows})")
        return self._rows[set_index]

    def is_busy(self, set_index: int) -> bool:
        """Whether the warp assigned to ``set_index`` is serving a request."""
        return self.row(set_index).busy

    def begin(self, set_index: int, request: MemoryRequest, data_buffer_index: int = -1) -> WarpStatusRow:
        """Mark the set's warp busy with ``request``.  Raises if already busy."""
        row = self.row(set_index)
        if row.busy:
            raise RuntimeError(f"warp for set {set_index} is already busy")
        row.busy = True
        row.tag = request.address
        row.origin_sm = request.sm_id
        if request.access_type.name == "ATOMIC":
            row.op = WarpOp.ATOMIC
        elif request.is_write:
            row.op = WarpOp.WRITE
        else:
            row.op = WarpOp.READ
        row.result = WarpResult.PENDING
        row.data_buffer_index = data_buffer_index
        return row

    def complete(self, set_index: int, hit: bool) -> WarpStatusRow:
        """Record the lookup outcome and free the warp."""
        row = self.row(set_index)
        if not row.busy:
            raise RuntimeError(f"warp for set {set_index} is not busy")
        row.busy = False
        row.result = WarpResult.HIT if hit else WarpResult.MISS
        row.requests_served += 1
        return row

    def reset(self) -> None:
        """Clear all rows."""
        self._rows = [WarpStatusRow(set_index=i) for i in range(self.num_rows)]


class DataBuffer:
    """A fixed pool of cache-block-sized payload slots (read or write buffer)."""

    def __init__(self, num_entries: int = 16, block_size: int = 128) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self.block_size = block_size
        self._free: Deque[int] = deque(range(num_entries))
        self._in_use: Dict[int, int] = {}

    @property
    def available(self) -> int:
        """Free slots."""
        return len(self._free)

    def allocate(self, block_address: int) -> Optional[int]:
        """Reserve a slot for ``block_address``; returns the index or ``None`` if full."""
        if not self._free:
            return None
        index = self._free.popleft()
        self._in_use[index] = block_address
        return index

    def release(self, index: int) -> None:
        """Free a previously allocated slot."""
        if index not in self._in_use:
            raise ValueError(f"buffer slot {index} is not allocated")
        del self._in_use[index]
        self._free.append(index)

    def storage_bytes(self) -> int:
        """Total payload storage of this buffer."""
        return self.num_entries * self.block_size

    def reset(self) -> None:
        """Free every slot."""
        self._free = deque(range(self.num_entries))
        self._in_use.clear()


class RequestQueue:
    """FIFO of extended LLC requests waiting for their set's warp to free up."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._queue: Deque[MemoryRequest] = deque()
        self.enqueued = 0
        self.rejected = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """True when no further request can be buffered."""
        return len(self._queue) >= self.capacity

    def enqueue(self, request: MemoryRequest) -> bool:
        """Buffer ``request``; returns False (back-pressure) when the queue is full."""
        if self.full:
            self.rejected += 1
            return False
        self._queue.append(request)
        self.enqueued += 1
        self.max_occupancy = max(self.max_occupancy, len(self._queue))
        return True

    def dequeue(self) -> Optional[MemoryRequest]:
        """Pop the oldest buffered request, or ``None`` when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def peek(self) -> Optional[MemoryRequest]:
        """Oldest buffered request without removing it."""
        return self._queue[0] if self._queue else None

    def reset(self) -> None:
        """Drop all buffered requests and statistics."""
        self._queue.clear()
        self.enqueued = 0
        self.rejected = 0
        self.max_occupancy = 0


class ExtendedLLCQueryLogic:
    """Request queue + warp status table + read/write data buffers for one partition."""

    def __init__(
        self,
        num_sets: int = 256,
        queue_capacity: int = 64,
        buffer_entries: int = 16,
        block_size: int = 128,
    ) -> None:
        self.request_queue = RequestQueue(queue_capacity)
        self.warp_status = WarpStatusTable(num_sets)
        self.read_buffer = DataBuffer(buffer_entries, block_size)
        self.write_buffer = DataBuffer(buffer_entries, block_size)
        self.block_size = block_size

    def admit(self, request: MemoryRequest) -> bool:
        """Buffer an incoming extended LLC request (returns False on back-pressure)."""
        return self.request_queue.enqueue(request)

    def dispatch(self, set_index: int) -> Optional[MemoryRequest]:
        """Dequeue the next request if the target set's warp is idle.

        The simulator calls this with the set of the queue head; a request is
        only released when its warp is not busy, matching §4.1.3 ("a given
        request is de-queued as soon as the warp assigned to the request's
        extended LLC set is ready").
        """
        head = self.request_queue.peek()
        if head is None:
            return None
        if self.warp_status.is_busy(set_index):
            return None
        request = self.request_queue.dequeue()
        assert request is not None
        buffer = self.write_buffer if request.is_write else self.read_buffer
        slot = buffer.allocate(request.address)
        self.warp_status.begin(set_index, request, data_buffer_index=slot if slot is not None else -1)
        return request

    def complete(self, set_index: int, hit: bool) -> None:
        """Finish the request being served by ``set_index``'s warp and free its buffer."""
        row = self.warp_status.complete(set_index, hit)
        if row.data_buffer_index >= 0:
            buffer = self.write_buffer if row.op == WarpOp.WRITE else self.read_buffer
            try:
                buffer.release(row.data_buffer_index)
            except ValueError:
                pass

    def storage_bytes(self) -> int:
        """Approximate on-chip storage of the query logic unit (≈5 KiB)."""
        # 16 bytes of metadata per warp status row plus the two payload buffers
        # and queue head/tail pointers.
        row_bytes = 8
        return (
            self.warp_status.num_rows * row_bytes
            + self.read_buffer.storage_bytes()
            + self.write_buffer.storage_bytes()
            + 64
        )

    def reset(self) -> None:
        """Reset every component."""
        self.request_queue.reset()
        self.warp_status.reset()
        self.read_buffer.reset()
        self.write_buffer.reset()
