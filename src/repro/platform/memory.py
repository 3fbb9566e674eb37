"""Memory slaves.

Word-addressable memory with configurable access latency, attached to the
bus as a TLM target.  Reads of never-written words are recorded as
:class:`UninitializedRead` occurrences — the defect class the paper's
Laerte++ *memory inspection capability* caught at level 1 ("design errors
related to incorrect memory initialization ... reflected on a less
precise images matching").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.events import wait
from repro.kernel.scheduler import Simulator
from repro.tlm.transaction import Command, Response, Transaction


#: Read default marking a never-written word; ``in`` finds it by identity.
_MISSING = object()


@dataclass(frozen=True)
class UninitializedRead:
    """One read of a word that was never written."""

    address: int
    origin: str
    time_ps: int


class Memory:
    """A word-addressable RAM/flash model with fixed access latency.

    ``base`` is the bus-visible base address; internally storage is
    indexed by word offset.  ``latency_cycles`` applies once per beat.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        base: int,
        size_words: int,
        latency_ps: int = 20_000,
        word_bytes: int = 4,
        readonly: bool = False,
    ):
        if size_words <= 0:
            raise ValueError(f"memory {name!r}: size must be positive")
        self.name = name
        self.sim = sim
        self.base = base
        self.size_words = size_words
        self.latency_ps = latency_ps
        self.word_bytes = word_bytes
        self.readonly = readonly
        self._storage: dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.uninitialized_reads: list[UninitializedRead] = []

    @property
    def size_bytes(self) -> int:
        return self.size_words * self.word_bytes

    def _offset(self, address: int) -> int:
        offset, rem = divmod(address - self.base, self.word_bytes)
        if rem:
            raise ValueError(f"memory {self.name!r}: unaligned address {address:#x}")
        if not 0 <= offset < self.size_words:
            raise ValueError(f"memory {self.name!r}: address {address:#x} out of range")
        return offset

    # -- direct (debug / preload) access; no timing ------------------------------

    def _span(self, address: int, count: int) -> int:
        """Word offset of ``address``, checking ``count`` words fit from it."""
        start = self._offset(address)
        if count > 1:
            self._offset(address + (count - 1) * self.word_bytes)
        return start

    def preload(self, address: int, words: list[int]) -> None:
        """Initialise memory contents without simulated traffic."""
        start = self._span(address, len(words))
        self._storage.update(zip(range(start, start + len(words)), words))

    def peek(self, address: int, count: int = 1) -> list[int]:
        """Read words without timing or statistics (debugger view)."""
        start = self._span(address, count)
        return [self._storage.get(start + i, 0) for i in range(count)]

    # -- TLM target interface ------------------------------------------------------

    def transport(self, txn: Transaction):
        """Service a bus transaction (generator; bus calls this).

        A burst moves in one step: writes update the storage with the
        whole burst, reads fetch it with a sentinel default and build
        :class:`UninitializedRead` records only when a word is missing.
        """
        burst = txn.burst_len
        try:
            start = self._span(txn.address, burst)
        except ValueError:
            txn.response = Response.SLAVE_ERROR
            return txn
        yield wait(self.latency_ps * burst)
        offsets = range(start, start + burst)
        if txn.command is Command.WRITE:
            if self.readonly:
                txn.response = Response.SLAVE_ERROR
                return txn
            self._storage.update(zip(offsets, txn.data))
            self.writes += burst
        else:
            get = self._storage.get
            data = [get(offset, _MISSING) for offset in offsets]
            if _MISSING in data:
                now_ps = self.sim.now_ps
                for offset, word in zip(offsets, data):
                    if word is _MISSING:
                        self.uninitialized_reads.append(UninitializedRead(
                            address=self.base + offset * self.word_bytes,
                            origin=txn.origin,
                            time_ps=now_ps,
                        ))
                data = [0 if word is _MISSING else word for word in data]
            txn.data = data
            self.reads += burst
        txn.response = Response.OK
        return txn

    def stats(self) -> dict:
        return {
            "name": self.name,
            "reads": self.reads,
            "writes": self.writes,
            "uninitialized_reads": len(self.uninitialized_reads),
        }
