"""Differential test: burst-at-once ``Memory.transport`` vs a per-word model.

``Memory.transport`` moves a whole burst per call.  The reference model
here services the same transactions one word at a time, the obvious way.
Seeded random bursts (reads, writes, writes to read-only memory,
unaligned and out-of-range addresses) must give the same data,
responses, counters, simulated time and uninitialised-read records.
"""

import random

import pytest

from repro.kernel import Simulator
from repro.platform import Memory, UninitializedRead
from repro.tlm import Command, Response, Transaction

BASE = 0x1000
SIZE_WORDS = 16
LATENCY_PS = 7_000
ORIGINS = ("cpu", "dma", "efpga.config")


class PerWordMemory:
    """Reference: one word at a time, errors decided before any timing."""

    def __init__(self, readonly: bool):
        self.readonly = readonly
        self.storage: dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.uninitialized_reads: list[UninitializedRead] = []
        self.now_ps = 0

    def word_offset(self, address: int):
        offset, rem = divmod(address - BASE, 4)
        if rem or not 0 <= offset < SIZE_WORDS:
            return None
        return offset

    def transport(self, txn: Transaction):
        """Return ``(response, data)`` and advance ``now_ps``."""
        first = self.word_offset(txn.address)
        last = self.word_offset(txn.address + (txn.burst_len - 1) * 4)
        if first is None or last is None:
            return Response.SLAVE_ERROR, txn.data
        self.now_ps += LATENCY_PS * txn.burst_len
        if txn.command is Command.WRITE:
            if self.readonly:
                return Response.SLAVE_ERROR, txn.data
            for i in range(txn.burst_len):
                self.storage[first + i] = txn.data[i]
                self.writes += 1
            return Response.OK, txn.data
        data = []
        for i in range(txn.burst_len):
            offset = first + i
            if offset not in self.storage:
                self.uninitialized_reads.append(UninitializedRead(
                    BASE + offset * 4, txn.origin, self.now_ps))
            data.append(self.storage.get(offset, 0))
            self.reads += 1
        return Response.OK, data


def random_transaction(rng: random.Random) -> Transaction:
    burst = rng.randint(1, 6)
    word = rng.randint(-3, SIZE_WORDS + 2)
    address = max(0, BASE + word * 4 + (rng.randint(1, 3) if rng.random() < 0.1 else 0))
    origin = rng.choice(ORIGINS)
    if rng.random() < 0.5:
        return Transaction.write(address, [rng.randint(0, 2**32 - 1) for __ in range(burst)],
                                 origin=origin)
    return Transaction.read(address, burst_len=burst, origin=origin)


@pytest.mark.parametrize("seed", range(12))
def test_burst_transport_matches_per_word_model(seed):
    rng = random.Random(seed)
    readonly = seed % 3 == 0
    sim = Simulator()
    memory = Memory("mem", sim, BASE, SIZE_WORDS, latency_ps=LATENCY_PS,
                    readonly=readonly)
    reference = PerWordMemory(readonly)
    image = {rng.randrange(SIZE_WORDS): rng.randint(0, 99) for __ in range(6)}
    for offset, word in image.items():
        memory.preload(BASE + offset * 4, [word])
    reference.storage.update(image)
    transactions = [random_transaction(rng) for __ in range(150)]
    observed = []

    def master():
        for txn in transactions:
            result = yield from memory.transport(txn)
            assert result is txn
            observed.append((txn.response, txn.data, sim.now_ps,
                             memory.reads, memory.writes))

    sim.spawn("master", master())
    sim.run()

    expected = []
    for txn in transactions:
        probe = Transaction(txn.command, txn.address, txn.burst_len,
                            None if txn.command is Command.READ else list(txn.data),
                            txn.origin)
        response, data = reference.transport(probe)
        expected.append((response, data, reference.now_ps,
                         reference.reads, reference.writes))
    assert observed == expected
    assert memory.uninitialized_reads == reference.uninitialized_reads
    assert reference.uninitialized_reads
    assert memory.peek(BASE, SIZE_WORDS) == [reference.storage.get(i, 0)
                                             for i in range(SIZE_WORDS)]
    responses = {row[0] for row in expected}
    assert Response.SLAVE_ERROR in responses and Response.OK in responses
