"""Tests for sockets and address decoding."""

import random

import pytest

from repro.kernel import NS, Simulator, wait
from repro.tlm import (
    AddressMap,
    AddressRange,
    DecodeError,
    InitiatorSocket,
    Response,
    TargetSocket,
    Transaction,
    TransportError,
)


class TestAddressMap:
    def test_basic_decode(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "ram")
        amap.add(0x2000, 0x100, "hw")
        assert amap.decode(0x1000).slave_name == "ram"
        assert amap.decode(0x10FF).slave_name == "ram"
        assert amap.decode(0x1100) is None
        assert amap.decode(0x2050).slave_name == "hw"

    def test_overlap_rejected(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "a")
        with pytest.raises(DecodeError):
            amap.add(0x10FF, 0x10, "b")

    def test_adjacent_ranges_ok(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "a")
        amap.add(0x1100, 0x100, "b")  # starts exactly at a's end
        assert amap.decode(0x1100).slave_name == "b"

    def test_invalid_ranges(self):
        with pytest.raises(DecodeError):
            AddressRange(-1, 10, "x")
        with pytest.raises(DecodeError):
            AddressRange(0, 0, "x")

    def test_burst_must_fit_one_range(self):
        amap = AddressMap()
        amap.add(0x0, 0x10, "a")  # 4 words
        assert amap.decode_burst(0x0, 4) is not None
        assert amap.decode_burst(0x0, 5) is None
        assert amap.decode_burst(0x8, 2) is not None

    def test_describe_lists_ranges(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "ram")
        assert "ram" in amap.describe()

    def test_ranges_sorted(self):
        amap = AddressMap()
        amap.add(0x2000, 0x10, "b")
        amap.add(0x1000, 0x10, "a")
        assert [r.slave_name for r in amap.ranges] == ["a", "b"]

    @pytest.mark.parametrize("seed", range(10))
    def test_decode_matches_linear_reference(self, seed):
        """Bisected decode against a scan of every range, on random maps."""
        rng = random.Random(seed)
        amap = AddressMap()
        spans = []
        cursor = rng.randrange(0, 64)
        for index in range(rng.randint(1, 12)):
            size = rng.randint(1, 40)
            spans.append((cursor, size, f"s{index}"))
            cursor += size + rng.choice((0, 0, rng.randint(1, 30)))  # gaps
        for base, size, name in rng.sample(spans, len(spans)):
            amap.add(base, size, name)

        def linear(address):
            for base, size, name in spans:
                if base <= address < base + size:
                    return name
            return None

        probes = {-1, 0, cursor, cursor + 5}
        for base, size, __ in spans:
            probes |= {base - 1, base, base + size - 1, base + size}
        probes |= {rng.randrange(-4, cursor + 8) for __ in range(50)}
        for address in sorted(probes):
            rng_hit = amap.decode(address)
            assert (rng_hit.slave_name if rng_hit else None) == linear(address)
            for burst_len in (1, 2, 3, 5):
                last = address + (burst_len - 1) * 4
                owner = linear(address)
                want = owner if owner is not None and linear(last) == owner else None
                got = amap.decode_burst(address, burst_len)
                assert (got.slave_name if got else None) == want


class TestSockets:
    def test_point_to_point_transport(self):
        sim = Simulator()
        served = []

        def transport(txn):
            yield wait(10, NS)
            served.append(txn.address)
            txn.data = [42] * txn.burst_len
            txn.response = Response.OK
            return txn

        target = TargetSocket("mem", transport)
        initiator = InitiatorSocket("cpu")
        initiator.bind(target)
        results = []

        def master():
            txn = Transaction.read(0x100, burst_len=2)
            yield from initiator.transport(txn)
            results.append((txn.data, txn.response, sim.now_ps))

        sim.spawn("m", master())
        sim.run()
        assert served == [0x100]
        assert results == [([42, 42], Response.OK, 10_000)]
        assert initiator.issued_count == 1
        assert target.served_count == 1

    def test_unbound_initiator_raises(self):
        initiator = InitiatorSocket("cpu")
        with pytest.raises(TransportError):
            list(initiator.transport(Transaction.read(0)))

    def test_double_bind_rejected(self):
        def transport(txn):
            yield wait(1)
            return txn

        target = TargetSocket("t", transport)
        initiator = InitiatorSocket("cpu")
        initiator.bind(target)
        with pytest.raises(TransportError):
            initiator.bind(target)

    def test_rebind_allows_retargeting(self):
        def transport(txn):
            yield wait(1)
            return txn

        a = TargetSocket("a", transport)
        b = TargetSocket("b", transport)
        initiator = InitiatorSocket("cpu")
        initiator.bind(a)
        initiator.rebind(b)
        sim = Simulator()

        def master():
            yield from initiator.transport(Transaction.read(0))

        sim.spawn("m", master())
        sim.run()
        assert b.served_count == 1
        assert a.served_count == 0

    def test_bind_requires_transport(self):
        initiator = InitiatorSocket("cpu")
        with pytest.raises(TransportError):
            initiator.bind(object())

    def test_default_ok_response(self):
        """Initiator marks INCOMPLETE transactions OK after transport."""
        def transport(txn):
            yield wait(1)
            return txn  # forgets to set response

        target = TargetSocket("t", transport)
        initiator = InitiatorSocket("cpu")
        initiator.bind(target)
        sim = Simulator()
        txn = Transaction.read(0)

        def master():
            yield from initiator.transport(txn)

        sim.spawn("m", master())
        sim.run()
        assert txn.response is Response.OK
