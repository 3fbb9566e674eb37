"""Turning op latencies, resource usage and spans into metrics."""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from .spans import Span, self_times

STAGES = ("reference", "profile", "partition", "level1", "level2", "level3",
          "level4")

#: Every per-layer metric with its unit, in report order.
PER_LAYER: list[tuple[str, str]] = (
    [(f"api.stage.{stage}_s", "s") for stage in STAGES]
    + [
        ("rtl.synthesize_s", "s"), ("rtl.synthesize_calls", "count"),
        ("bmc.encode_s", "s"), ("bmc.checks", "count"),
        ("sat.solve_s", "s"), ("sat.solves", "count"),
        ("sat.conflicts", "count"), ("sat.decisions", "count"),
        ("sat.propagations", "count"),
        ("pcc.encode_s", "s"), ("pcc.mutants", "count"),
        ("pcc.killed", "count"), ("pcc.kill_ratio", "ratio"),
        ("lpv.check_s", "s"), ("symbc.check_s", "s"),
        ("kernel.run_s", "s"), ("kernel.runs", "count"),
        ("kernel.activations", "count"),
        ("platform.profile_s", "s"), ("platform.sim_elapsed_ps", "ps"),
        ("platform.bus_words", "count"),
        ("platform.host_ns_per_bus_word", "ns"),
        ("fpga.reconfigurations", "count"), ("fpga.bitstream_words", "count"),
        ("swir.build_s", "s"), ("swir.run_s", "s"), ("swir.runs", "count"),
        ("service.submit_s", "s"), ("service.queue_wait_s", "s"),
        ("service.exec_s", "s"), ("service.polls", "count"),
        ("service.points_executed", "count"), ("service.points_hit", "count"),
        ("service.hit_ratio", "ratio"),
        ("store.read_s", "s"), ("store.reads", "count"),
        ("trace.traced_ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
    ])

#: Units of the per-layer host times (``platform.sim_elapsed_ps`` is
#: simulated time, and is never scaled).
HOST_TIME_UNITS = ("s", "ns")

#: The end-to-end metrics with their units; ``setup_s`` comes from the
#: launcher, the rest from the worker's timed phase.
END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
    ("op_tail_s", "s"), ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"),
]

#: Tail samples: the highest percentile with at least this many beyond.
TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the latency tail.

    The value is the slowest sample that still has ``TAIL_BEYOND``
    samples above it, i.e. the (TAIL_BEYOND+1)-th slowest.  Below
    ``4 * TAIL_BEYOND`` samples no percentile short of the top quarter
    has that many beyond it; the tail then keeps a quarter of the
    samples beyond it (``count // 4``), so that it is never one extreme
    sample unless there are fewer than four.
    """
    if not latencies:
        raise ValueError("no latencies")
    ordered = sorted(latencies)
    count = len(ordered)
    beyond = min(TAIL_BEYOND, count // 4)
    index = count - beyond - 1
    return ordered[index], 100.0 * (index + 1) / count, beyond


def cpu_and_rss() -> tuple[float, float]:
    """(user+sys CPU seconds, peak RSS in MB) of this process and its
    reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def end_to_end(latencies: list[float], attempted: int, elapsed: float,
               cpu_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The worker's end-to-end metrics; ``latencies`` of the ops that
    succeeded, CPU shared over every op attempted."""
    value, _percentile, _beyond = tail(latencies)
    return {
        "ops_per_s": len(latencies) / elapsed,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "cpu_s_per_op": cpu_s / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


@dataclass
class Outcome:
    """What a run keeps of one op once its result has been checked."""

    round: int
    latency: Optional[float]
    failure: Optional[str] = None
    sim_ok: bool = True
    meta: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    #: host seconds of the op's slot (the op and the check of its
    #: result), calibration samples taken out
    wall: float = 0.0
    cpu: float = 0.0
    #: what its host times are scaled by: reference over the samples
    #: taken during it
    wall_factor: float = 1.0
    cpu_factor: float = 1.0


def timed(outcomes: list[Outcome], peak_rss_mb: float,
          scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics of a timed phase, each op's host times scaled
    by its own calibration factors (or left raw)."""
    latencies: list[float] = []
    elapsed = cpu = 0.0
    for o in outcomes:
        wall_factor, cpu_factor = ((o.wall_factor, o.cpu_factor) if scaled
                                   else (1.0, 1.0))
        if o.failure is None and o.latency is not None:
            latencies.append(o.latency * wall_factor)
        elapsed += o.wall * wall_factor
        cpu += o.cpu * cpu_factor
    return end_to_end(latencies, len(outcomes), elapsed, cpu, peak_rss_mb)


def document_work(document: dict, meta: dict) -> dict[str, float]:
    """Simulated work of the levels 1-3 stages one op actually computed."""
    work: dict[str, float] = defaultdict(float)
    if meta.get("executed") == 0:
        return work  # answered from the service's store
    stages = document.get("stages") or {}
    for level in ("level1", "level2", "level3"):
        stage = stages.get(level)
        if not stage or stage["from_cache"]:
            continue
        value = stage["value"]
        if level == "level1":
            work["kernel.activations"] += value["activations"]
            continue
        metrics = value["metrics"]
        work["platform.sim_elapsed_ps"] += metrics["elapsed_ps"]
        work["platform.bus_words"] += metrics["bus"]["words"]
        if level == "level3":
            work["level3.host_s"] += metrics["wall_seconds"]
            work["level3.bus_words"] += metrics["bus"]["words"]
        if metrics.get("fpga"):
            work["fpga.reconfigurations"] += \
                metrics["fpga"]["reconfigurations"]
            work["fpga.bitstream_words"] += metrics["fpga"]["bitstream_words"]
    return work


def per_layer(spans: list[Span], results: list[Outcome], worker_pid: int,
              traced: tuple[float, int], untraced: tuple[float, int],
              wall_factor: float = 1.0) -> dict[str, float]:
    """Per-op layer metrics of the traced rounds.

    ``results`` are the traced rounds' ops, ``traced``/``untraced`` the
    (scaled wall seconds, ops) of the traced and untraced rounds.  Host
    times from spans and job records are scaled by the run's
    ``wall_factor``; simulated figures and counts are not.  Store reads
    count on the daemon side only (this process); forked job children
    read the store too, but those reads are part of their execution.
    """
    ops = max(1, len(results))
    selfs = self_times(spans)
    time_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    extra: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name == "store.read" and span.span_id[0] != worker_pid:
            continue
        time_s[span.name] += selfs[span.span_id]
        calls[span.name] += 1
        for key, value in (span.extra or {}).items():
            extra[f"{span.name}.{key}"] += value
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"api.stage.{stage}_s"] = time_s[f"api.stage.{stage}"] / ops
    m["rtl.synthesize_s"] = time_s["rtl.synthesize"] / ops
    m["rtl.synthesize_calls"] = calls["rtl.synthesize"] / ops
    m["bmc.encode_s"] = time_s["bmc.check"] / ops
    m["bmc.checks"] = calls["bmc.check"] / ops
    m["sat.solve_s"] = time_s["sat.solve"] / ops
    m["sat.solves"] = calls["sat.solve"] / ops
    for key in ("conflicts", "decisions", "propagations"):
        m[f"sat.{key}"] = extra[f"sat.solve.{key}"] / ops
    m["pcc.encode_s"] = time_s["pcc.run"] / ops
    mutants, killed = extra["pcc.run.mutants"], extra["pcc.run.killed"]
    m["pcc.mutants"] = mutants / ops
    m["pcc.killed"] = killed / ops
    m["pcc.kill_ratio"] = killed / mutants if mutants else 0.0
    m["lpv.check_s"] = time_s["lpv.check"] / ops
    m["symbc.check_s"] = time_s["symbc.check"] / ops
    m["kernel.run_s"] = time_s["kernel.run"] / ops
    m["kernel.runs"] = calls["kernel.run"] / ops
    work: dict[str, float] = defaultdict(float)
    for result in results:
        for key, value in result.work.items():
            work[key] += value
    m["kernel.activations"] = work["kernel.activations"] / ops
    m["platform.profile_s"] = time_s["platform.profile"] / ops
    m["platform.sim_elapsed_ps"] = work["platform.sim_elapsed_ps"] / ops
    m["platform.bus_words"] = work["platform.bus_words"] / ops
    m["platform.host_ns_per_bus_word"] = (
        1e9 * work["level3.host_s"] / work["level3.bus_words"]
        if work["level3.bus_words"] else 0.0)
    m["fpga.reconfigurations"] = work["fpga.reconfigurations"] / ops
    m["fpga.bitstream_words"] = work["fpga.bitstream_words"] / ops
    m["swir.build_s"] = time_s["swir.build"] / ops
    m["swir.run_s"] = time_s["swir.run"] / ops
    m["swir.runs"] = calls["swir.run"] / ops
    m["service.submit_s"] = time_s["service.submit"] / ops
    service = [r.meta for r in results if "kind" in r.meta]
    for key in ("queue_wait_s", "exec_s", "polls"):
        m[f"service.{key}"] = sum(meta[key] for meta in service) / ops
    executed = sum(meta["executed"] for meta in service)
    hit = sum(meta["hit"] for meta in service)
    m["service.points_executed"] = executed / ops
    m["service.points_hit"] = hit / ops
    m["service.hit_ratio"] = hit / (hit + executed) if hit + executed else 0.0
    m["store.read_s"] = time_s["store.read"] / ops
    m["store.reads"] = calls["store.read"] / ops
    m["trace.traced_ops_per_s"] = rate(*traced)
    m["trace.untraced_ops_per_s"] = rate(*untraced)
    for name, unit in PER_LAYER:
        if unit in HOST_TIME_UNITS:
            m[name] *= wall_factor
    return m


def rate(wall: float, ops: int) -> float:
    return ops / wall if wall > 0 else 0.0


def tail_note(latencies: list[float]) -> str:
    _value, percentile, beyond = tail(latencies)
    if beyond == 0:
        return f"op_tail_s is the maximum of {len(latencies)} samples"
    note = (f"op_tail_s is p{percentile:.1f} of {len(latencies)} samples "
            f"({beyond} beyond it)")
    if beyond < TAIL_BEYOND:
        note += (f"; fewer than {4 * TAIL_BEYOND} samples, so a quarter "
                 f"of them rather than {TAIL_BEYOND}")
    return note
