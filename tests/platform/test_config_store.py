"""The level-3 configuration store: a preloaded, read-only bitstream image.

For every registered workload a reduced level-3 run must read only
inside the image, each reconfiguration tiling exactly its own context's
region, and the bus's bitstream word count must equal the FPGA's.  A
device reading outside the image is a real fault and must show up as
uninitialised reads.
"""

import pytest

from repro.api import CampaignSpec, Session, get_workload, workload_names
from repro.fpga import Configuration
from repro.platform.architecture import CONFIG_STORE_BASE, Architecture
from repro.platform.bus import Bus
from repro.tlm import Response

ALL_WORKLOADS = workload_names()


@pytest.fixture(scope="module")
def level3_runs():
    """Per workload: the level-3 architecture and its bitstream transactions."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        bus_transport = Bus.transport
        arch_run = Architecture.run
        log: list = []
        archs: list = []

        def spy_transport(self, txn):
            result = yield from bus_transport(self, txn)
            if txn.kind == "bitstream":
                log.append((txn.address, txn.burst_len, txn.origin, txn.response))
            return result

        def spy_run(self, stimuli):
            metrics = arch_run(self, stimuli)
            archs.append((self, metrics))
            return metrics

        mp.setattr(Bus, "transport", spy_transport)
        mp.setattr(Architecture, "run", spy_run)
        for name in ALL_WORKLOADS:
            log.clear()
            archs.clear()
            overrides = dict(get_workload(name).conformance_overrides)
            session = Session(CampaignSpec(name=f"config-store-{name}",
                                           workload=name, levels=(1, 2, 3),
                                           **overrides))
            session.run("level3")
            (arch, metrics), = [(a, m) for a, m in archs if a.fpga is not None]
            runs[name] = (arch, metrics, list(log))
    return runs


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestConfigStore:
    def test_no_uninitialized_reads(self, level3_runs, name):
        arch, __, __ = level3_runs[name]
        assert arch.config_store.readonly
        assert arch.config_store.reads > 0
        assert arch.config_store.uninitialized_reads == []

    def test_bus_bitstream_words_match_fpga(self, level3_runs, name):
        __, metrics, __ = level3_runs[name]
        assert metrics.fpga_report["reconfigurations"] > 0
        assert (metrics.bus_report["words_by_kind"]["bitstream"]
                == metrics.fpga_report["bitstream_words"])

    def test_image_is_contexts_back_to_back(self, level3_runs, name):
        arch, __, __ = level3_runs[name]
        address = CONFIG_STORE_BASE
        for context in arch.fpga_plan.contexts:
            assert arch.fpga.region(context.name) == (address, context.bitstream_words)
            address += context.bitstream_words * 4
        assert arch.fpga.image_words * 4 == address - CONFIG_STORE_BASE

    def test_each_download_tiles_its_context_region(self, level3_runs, name):
        arch, __, log = level3_runs[name]
        expected = []
        for event in arch.controller.journal:
            if not event.switched:
                continue
            base, words = arch.fpga.region(event.context)
            for offset in range(0, words, arch.burst_words):
                burst = min(arch.burst_words, words - offset)
                expected.append((base + offset * 4, burst, "efpga.config", Response.OK))
        assert len({row[0] for row in expected}) > 1
        assert log == expected


def test_read_outside_the_image_is_recorded(level3_runs):
    """A context missing from the image reads unloaded words: one record each."""
    ran, __, __ = level3_runs[ALL_WORKLOADS[0]]
    arch = Architecture(ran.partition, ran.annotations, ran.cpu,
                        burst_words=ran.burst_words, fpga_plan=ran.fpga_plan)
    arch._elaborate()
    image_words = arch.fpga.image_words
    rogue = Configuration("rogue", frozenset({"rogue"}), gate_count=1,
                          bitstream_words=arch.burst_words + 6)
    arch.fpga.define_context(rogue)  # after elaboration: not in the image
    base, words = arch.fpga.region("rogue")
    assert base == CONFIG_STORE_BASE + image_words * 4

    def download():
        yield from arch.fpga.reconfigure("rogue")

    arch.sim.spawn("rogue", download())
    arch.sim.run()
    records = arch.config_store.uninitialized_reads
    assert [r.address for r in records] == [base + 4 * i for i in range(words)]
    assert {r.origin for r in records} == {"efpga.config"}
    assert [r.time_ps for r in records] == sorted(r.time_ps for r in records)
    assert records[0].time_ps > 0
    assert arch.fpga.loaded is rogue
