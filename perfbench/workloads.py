"""The four workloads: seeded op generation and one closed-loop client each.

Generation is plain data and imports nothing from the program: a
workload's ``rounds(seed)`` yields rounds, each a list of items (spec
documents, or a sweep base with its grid).  The program only ever sees
those generated documents, parsed through ``CampaignSpec.from_dict``.
A run always stops on a round boundary, so every run executes the same
mix of ops whatever its length.

``Client`` subclasses drive the program.  They are imported only by the
worker process, after ``import repro.cli``.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

SPEC_SCHEMA = "repro.campaign_spec/v2"
FLOW_WORKLOADS = ("facerec", "edgescan", "blockcipher")
PCC_WORKLOADS = ("edgescan", "blockcipher")
#: (workload, frames) of the architecture-exploration sweeps
EXPLORE_SCENARIOS = (("facerec", 6), ("edgescan", 6), ("blockcipher", 16))
EXPLORE_GRID = {"cpu": ("ARM7TDMI", "ARM9TDMI"),
                "capacity_gates": (13000, 16000, 20000)}
#: service specs draw their seed from this pool, whose results are recorded
SERVICE_SEEDS = tuple(range(1, 513))
SERVICE_BLOCK = 10
SERVICE_COLD_PER_BLOCK = 3


def spec_doc(**fields: Any) -> dict:
    return {"schema": SPEC_SCHEMA, **fields}


def flow_specs() -> list[dict]:
    return [spec_doc(name=f"flow-{w}", workload=w) for w in FLOW_WORKLOADS]


def pcc_specs() -> list[dict]:
    return [spec_doc(name=f"pcc-{w}", workload=w, levels=[4], run_pcc=True)
            for w in PCC_WORKLOADS]


def explore_bases() -> list[dict]:
    return [spec_doc(name=f"explore-{w}", workload=w, frames=frames,
                     levels=[1, 2, 3])
            for w, frames in EXPLORE_SCENARIOS]


def explore_point_specs() -> list[dict]:
    """Every explore grid point as its own spec, named as the sweep names it."""
    points = []
    for base in explore_bases():
        for cpu in EXPLORE_GRID["cpu"]:
            for gates in EXPLORE_GRID["capacity_gates"]:
                label = f"cpu={cpu},capacity_gates={gates}"
                points.append({**base, "name": f"{base['name']}[{label}]",
                               "cpu": cpu, "capacity_gates": gates})
    return points


def service_spec(seed: int) -> dict:
    return spec_doc(name="service-blockcipher", workload="blockcipher",
                    levels=[1, 2, 3], frames=2, seed=seed)


# -- seeded generation -------------------------------------------------------------


def flow_rounds(seed: int) -> Iterator[list[dict]]:
    rng = random.Random(seed)
    specs = flow_specs()
    while True:
        yield rng.sample(specs, len(specs))


def pcc_rounds(seed: int) -> Iterator[list[dict]]:
    rng = random.Random(seed)
    specs = pcc_specs()
    while True:
        yield rng.sample(specs, len(specs))


def explore_rounds(seed: int) -> Iterator[list[dict]]:
    """Each round sweeps every scenario once, in a seeded order.

    The grid itself keeps one order (cpu outer, capacity inner, values
    as listed): which point follows which decides how much ``with_spec``
    carries over, and one scenario's sweep took up to 1.8 times as long
    in one value order as in another.  A seeded value order would make
    the work of a run depend on its seed.
    """
    rng = random.Random(seed)
    bases = explore_bases()
    while True:
        yield [{"base": base,
                "grid": {key: list(values)
                         for key, values in EXPLORE_GRID.items()}}
               for base in rng.sample(bases, len(bases))]


def service_rounds(seed: int) -> Iterator[list[dict]]:
    """Blocks of ten submissions, three of them cold at seeded positions.

    A cold op submits a spec never submitted before in the run (a new
    content address); a warm op resubmits a seeded choice among the
    specs already done.  The first op is cold.  The generator ends when
    the seed pool runs out.
    """
    rng = random.Random(seed)
    fresh = iter(rng.sample(SERVICE_SEEDS, len(SERVICE_SEEDS)))
    done: list[int] = []
    first = True
    while True:
        cold = set(rng.sample(range(SERVICE_BLOCK), SERVICE_COLD_PER_BLOCK))
        if first and 0 not in cold:
            cold.remove(max(cold))
            cold.add(0)
        first = False
        block = []
        for position in range(SERVICE_BLOCK):
            if position in cold:
                spec_seed = next(fresh, None)
                if spec_seed is None:
                    return
                done.append(spec_seed)
                block.append({"kind": "cold", "spec": service_spec(spec_seed)})
            else:
                block.append({"kind": "warm",
                              "spec": service_spec(rng.choice(done))})
        yield block


# -- the clients -------------------------------------------------------------------


@dataclass
class OpResult:
    """One op as the client saw it: its latency and result documents."""

    latency: Optional[float]
    docs: list[Optional[dict]] = field(default_factory=list)
    error: Optional[str] = None
    meta: dict = field(default_factory=dict)
    #: ``time.perf_counter()`` when the latency started
    start: float = 0.0


class Client:
    """One closed-loop client: set-up, one item at a time, tear-down."""

    name = ""
    #: rounds a run makes at least, whatever ``--seconds`` says
    min_rounds = 1
    #: whether calibration samples are taken while ops run, each op then
    #: scaled by its own, or between ops, every op then scaled by the
    #: run's mean (``perfbench/calibrate.py``)
    sample_during_ops = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def rounds(self) -> Iterator[list[dict]]:
        raise NotImplementedError

    def execute(self, item: dict) -> OpResult:
        raise NotImplementedError


def _cold_level4_run(spec_document: dict) -> OpResult:
    """Fresh session, level 4 forced past the process-wide memo, then run."""
    from repro.api import Campaign, CampaignSpec, Session

    spec = CampaignSpec.from_dict(spec_document)
    start = time.perf_counter()
    session = Session(spec)
    session.run("level4", force=True)
    outcome = Campaign(spec).run(session=session)
    latency = time.perf_counter() - start
    return OpResult(latency, [outcome.to_dict()], start=start)


class FlowClient(Client):
    """Cold full four-level flow, rotating the three built-in workloads."""

    name = "flow"
    #: 10 facerec ops, the slowest of the three, so that the tail sample
    #: (the 8th slowest of 30 ops) sits inside them: two are faster
    min_rounds = 10

    def rounds(self):
        return flow_rounds(self.seed)

    def execute(self, item):
        return _cold_level4_run(item)


class PccClient(Client):
    """Level 4 with property-coverage checking (PCC)."""

    name = "verify-pcc"
    #: two ops of each workload, however fast the host, so that every
    #: run has the same mix
    min_rounds = 2

    def rounds(self):
        return pcc_rounds(self.seed)

    def execute(self, item):
        return _cold_level4_run(item)


class ExploreClient(Client):
    """Serial architecture sweeps over levels 1-3; one op per sweep.

    An op is one ``Campaign.sweep`` call over the six grid points of a
    scenario, timed on the benchmark's clock, so ``with_spec``
    derivation between points counts.  A single point is not the op:
    how much a point carries over from the one before makes point
    latencies spread from 0.03 to 0.27 s for facerec and edgescan,
    with no dense middle for a median.  The points' own
    ``wall_seconds`` serve only as a cross-check: a sweep may not take
    less than they add up to.
    """

    name = "explore"
    #: six sweeps at least: the median is then inside the four facerec
    #: and edgescan sweeps, the tail the faster blockcipher one
    min_rounds = 2

    def rounds(self):
        return explore_rounds(self.seed)

    def execute(self, item):
        from repro.api import Campaign, CampaignSpec

        base = CampaignSpec.from_dict(item["base"])
        start = time.perf_counter()
        sweep = Campaign.sweep(base, item["grid"])
        latency = time.perf_counter() - start
        docs = sweep.runs()
        points = math.prod(len(values) for values in item["grid"].values())
        own = sum(doc["wall_seconds"] for doc in docs)
        error = None
        if len(docs) != points:
            error = f"sweep ran {len(docs)} of {points} points"
        elif latency < own:
            error = (f"sweep timed at {latency:.6f} s, below its points' "
                     f"own wall_seconds {own:.6f} s")
        return OpResult(latency, docs, error, start=start)


class ServiceClientLoop(Client):
    """One ``ServiceClient`` against an in-process one-worker service."""

    name = "service"
    #: client poll interval: first probe, then backoff up to the cap (s)
    POLL = (0.005, 0.02)
    #: Samples taken while the daemon's threads and job children run
    #: measure them, not the host (2.4 times slower than between ops).
    sample_during_ops = False

    def setup(self):
        from repro.service import CampaignService, ServiceClient

        # ServiceClient.wait jitters its polls with the module-level RNG.
        random.seed(self.seed)
        self.root = self.workdir / f"service-{self.seed}"
        self.service = CampaignService(self.root, workers=1).start()
        self.client = ServiceClient(self.service.url)
        self.client.healthz()

    def teardown(self):
        self.service.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def rounds(self):
        return service_rounds(self.seed)

    def execute(self, item):
        start = time.perf_counter()
        job = self.client.submit(item["spec"])
        record = self.client.wait(job["id"], interval=self.POLL[0],
                                  max_interval=self.POLL[1])
        latency = time.perf_counter() - start
        resume = (record.get("result") or {}).get("store_resume", {})
        meta = {
            "kind": item["kind"],
            "queue_wait_s": record["started_at"] - record["submitted_at"],
            "exec_s": record["finished_at"] - record["started_at"],
            "polls": record["wait_polls"],
            "executed": len(resume.get("executed", ())),
            "hit": len(resume.get("hits", ())),
        }
        error = None
        if record["status"] != "done" or record.get("payload") is None:
            error = f"job ended {record['status']}: {record.get('error')}"
        elif (meta["executed"], meta["hit"]) != \
                ((1, 0) if item["kind"] == "cold" else (0, 1)):
            error = (f"{item['kind']} submission executed "
                     f"{meta['executed']} and hit {meta['hit']} points")
        return OpResult(latency, [record.get("payload")], error, meta, start)


CLIENTS = {cls.name: cls for cls in
           (FlowClient, ExploreClient, PccClient, ServiceClientLoop)}
