"""Unified Buffer allocators (the Table 8 storyline).

The paper reports that the TPU ran at full Unified Buffer capacity for its
first 18 months until an improved storage allocator cut the largest app to
14 MiB.  We implement both generations:

* :class:`StaticPartitionAllocator` -- the deployed scheme: the buffer is
  split into two fixed halves that ping-pong between producer and
  consumer.  Simple, double-buffered, and it *reserves the whole buffer*
  no matter the model (hence "used its full capacity").
* :class:`LivenessAllocator` -- the improved scheme: exact live ranges
  (including residual-skip extensions) with first-fit address reuse, so
  the footprint is the true maximum of concurrently-live bytes.

Both produce an :class:`Allocation` mapping tensor names to byte offsets
and reporting the peak footprint.
"""

from __future__ import annotations

from dataclasses import dataclass


class UBOverflowError(MemoryError):
    """A model's working set does not fit the Unified Buffer."""


@dataclass(frozen=True)
class Request:
    """A tensor's allocation request: size and live interval.

    ``start``/``end`` are inclusive program steps (layer indices); a
    tensor is live from the step that defines it through its last use.
    """

    name: str
    nbytes: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"{self.name}: nbytes must be positive, got {self.nbytes}")
        if self.end < self.start:
            raise ValueError(f"{self.name}: live range [{self.start}, {self.end}] inverted")

    def overlaps(self, other: "Request") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass
class Allocation:
    """Result of allocating a request set."""

    offsets: dict[str, int]
    peak_bytes: int
    capacity_bytes: int
    allocator: str
    alignment: int = 256


def _align(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment


class LivenessAllocator:
    """First-fit interval allocation with address reuse."""

    name = "liveness"

    def __init__(self, alignment: int = 256) -> None:
        if alignment <= 0:
            raise ValueError(f"alignment must be positive, got {alignment}")
        self.alignment = alignment

    def allocate(self, requests: list[Request], capacity_bytes: int) -> Allocation:
        """Place every request at the lowest non-conflicting offset.

        Two requests conflict if both their live intervals and their byte
        ranges overlap.  Requests are placed in order of decreasing size
        (classic interval-coloring heuristic), which keeps the packing
        tight without an exponential search.
        """
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        placed: list[tuple[Request, int, int]] = []  # (request, lo, hi)
        offsets: dict[str, int] = {}
        peak = 0
        for req in sorted(requests, key=lambda r: (-r.nbytes, r.start, r.name)):
            if req.name in offsets:
                raise ValueError(f"duplicate tensor name {req.name!r}")
            size = _align(req.nbytes, self.alignment)
            conflicts = sorted(
                ((lo, hi) for other, lo, hi in placed if req.overlaps(other)),
                key=lambda span: span[0],
            )
            offset = 0
            for lo, hi in conflicts:
                if offset + size <= lo:
                    break
                offset = max(offset, hi)
            if offset + size > capacity_bytes:
                raise UBOverflowError(
                    f"{req.name}: needs [{offset}, {offset + size}) but the "
                    f"Unified Buffer holds {capacity_bytes} B"
                )
            placed.append((req, offset, offset + size))
            offsets[req.name] = offset
            peak = max(peak, offset + size)
        return Allocation(
            offsets=offsets,
            peak_bytes=peak,
            capacity_bytes=capacity_bytes,
            allocator=self.name,
            alignment=self.alignment,
        )


class StaticPartitionAllocator:
    """The deployed (pre-improvement) scheme: two fixed half-buffer banks.

    Every tensor lands in the bank opposite its producer step's parity, so
    producer and consumer never collide -- at the price of reserving the
    whole buffer regardless of the model (the "full capacity" behaviour
    the paper describes).  Tensors pinned across many steps (residual
    sources) are copied aside into a bump region at the top of the bank.
    """

    name = "static-partition"

    def __init__(self, alignment: int = 256) -> None:
        if alignment <= 0:
            raise ValueError(f"alignment must be positive, got {alignment}")
        self.alignment = alignment

    def allocate(self, requests: list[Request], capacity_bytes: int) -> Allocation:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        half = capacity_bytes // 2
        offsets: dict[str, int] = {}
        # Long-lived tensors (live > 2 steps) are pinned from the top of
        # each bank downward; short-lived ones bump from the bottom and
        # reset every step.
        pin_top = [half, capacity_bytes]
        bump = [0, half]
        current_step = None
        for req in sorted(requests, key=lambda r: (r.start, r.name)):
            if req.name in offsets:
                raise ValueError(f"duplicate tensor name {req.name!r}")
            size = _align(req.nbytes, self.alignment)
            bank = req.start % 2
            if current_step != req.start:
                current_step = req.start
                bump[bank] = bank * half  # the bank recycles wholesale
            if req.end - req.start > 2:
                pin_top[bank] -= size
                offset = pin_top[bank]
            else:
                offset = bump[bank]
                bump[bank] += size
            if offset < bank * half or bump[bank] > pin_top[bank]:
                raise UBOverflowError(
                    f"{req.name}: static partition bank {bank} exhausted "
                    f"({size} B request, half-buffer {half} B)"
                )
            offsets[req.name] = offset
        # The scheme reserves everything: that is its defining waste.
        return Allocation(
            offsets=offsets,
            peak_bytes=capacity_bytes,
            capacity_bytes=capacity_bytes,
            allocator=self.name,
            alignment=self.alignment,
        )
