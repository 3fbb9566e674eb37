"""One benchmark process: set a workload up, then run its timed phase.

Started by ``run.py`` in a fresh interpreter, as ``python3 -m
perfbench.worker`` from the root of the checkout.  It imports
``repro.cli`` (what every ``repro`` command pays), sets the workload up
and prints ``READY``; the launcher times the interval from process start
to that line as one set-up sample.  With ``--setup-only`` it then tears down and
exits.  Otherwise it runs whole rounds of ops until ``--seconds`` have
passed, checking every result against the recorded one and taking
host-speed calibration samples while they run, and prints one JSON
document as its last stdout line.

With ``--trace 1`` an untimed warm-up round comes first; then even
rounds run with the layer wrappers installed and odd rounds without, so
the same run gives the per-layer metrics (from the traced rounds) and
the tracing overhead (traced against untraced throughput).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from . import check, measure
from .calibrate import Calibrator
from .spans import Recorder, Tracer, read_spans, write_spans
from .workloads import CLIENTS, OpResult

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def timed_phase(client, seconds: float, tracer) -> dict:
    """Whole rounds until ``seconds`` pass (and ``min_rounds`` are done).

    Each op's result is checked as soon as it returns, outside its
    latency, so that result documents do not pile up on the heap.
    """
    expected = check.load_expected()
    generated = client.rounds()
    if tracer is not None:
        # Untimed warm-up, so that neither side of the traced/untraced
        # comparison pays the process's first-op costs alone.
        for item in next(generated):
            client.execute(item)
    outcomes: list[measure.Outcome] = []
    calibrator = Calibrator()
    calibrator.take(4)
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    during = client.sample_during_ops
    with calibrator.running() if during else contextlib.nullcontext():
        for items in generated:
            traced = tracer is not None and rounds % 2 == 0
            if traced:
                tracer.install()
            try:
                for item in items:
                    if tracer is not None:
                        tracer.recorder.op = len(outcomes)
                    outcomes.append(
                        timed_op(client, item, rounds, expected, calibrator))
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            # A traced run needs a traced and an untraced round.
            least = max(client.min_rounds, 2 if tracer is not None else 1)
            if time.perf_counter() >= deadline and rounds >= least:
                break
    _cpu, rss = measure.cpu_and_rss()
    if not during:
        factors = calibrator.factors()
        for outcome in outcomes:
            outcome.wall_factor, outcome.cpu_factor = factors
    return {"outcomes": outcomes, "peak_rss_mb": rss, "rounds": rounds,
            "elapsed": time.perf_counter() - start,
            "samples": len(calibrator.samples)}


def timed_op(client, item, round_index: int, expected: dict,
             calibrator: Calibrator) -> measure.Outcome:
    """Run and check one op; take the calibration samples taken during
    it out of its times, and scale it by them."""
    if not client.sample_during_ops:
        calibrator.take(1, units=1)  # before the op, outside its times
    first = len(calibrator.samples)
    cpu0, _rss = measure.cpu_and_rss()
    slot_start = time.perf_counter()
    try:
        result = client.execute(item)
    except Exception as exc:  # an op failure must not end the run
        traceback.print_exc(file=sys.stderr)
        result = failure(exc)
    outcome = judge(round_index, result, expected)
    wall = time.perf_counter() - slot_start
    cpu = measure.cpu_and_rss()[0] - cpu0
    end = len(calibrator.samples)
    spent_wall, spent_cpu = calibrator.spent(first, end)
    outcome.wall, outcome.cpu = wall - spent_wall, cpu - spent_cpu
    if outcome.latency is not None:
        outcome.latency -= calibrator.spent(
            first, end, result.start, result.start + result.latency)[0]
    outcome.wall_factor, outcome.cpu_factor = calibrator.factors(first, end)
    return outcome


def failure(exc: Exception) -> OpResult:
    return OpResult(None, error=f"{type(exc).__name__}: {exc}")


def judge(round_index: int, result: OpResult, expected: dict
          ) -> measure.Outcome:
    """Check one op's results against the recorded ones; keep the verdict."""
    if result.error is not None:
        return measure.Outcome(round_index, result.latency, result.error)
    verdicts = [check.verify(doc, expected) for doc in result.docs]
    reason = next((reason for reason, _ in verdicts if reason), None)
    if not verdicts:
        reason = "no result document"
    work: dict[str, float] = defaultdict(float)
    if reason is None:
        for doc in result.docs:
            for key, value in measure.document_work(doc, result.meta).items():
                work[key] += value
    return measure.Outcome(round_index, result.latency, reason,
                           all(ok for _, ok in verdicts), result.meta, work)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import repro.cli  # noqa: F401 -- the import every repro command pays

    client = CLIENTS[args.workload](args.seed, args.workdir)
    client.setup()
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            child_dir = args.workdir / "child-spans"
            child_dir.mkdir(parents=True, exist_ok=True)
            tracer = Tracer(Recorder(), child_dir)
        phase = timed_phase(client, args.seconds, tracer)
    finally:
        client.teardown()
    print(json.dumps(report(args, phase, tracer)), flush=True)
    return 0


def report(args, phase: dict, tracer) -> dict:
    outcomes = phase["outcomes"]
    failures = [o.failure for o in outcomes if o.failure is not None]
    latencies = [o.latency for o in outcomes
                 if o.failure is None and o.latency is not None]
    out = {
        "workload": args.workload,
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": sorted(set(failures))[:10],
        "sim_repeat": all(o.sim_ok for o in outcomes),
        "rounds": phase["rounds"],
        "elapsed_s": phase["elapsed"],
        "tail_note": measure.tail_note(latencies) if latencies else None,
    }
    # The factors the run's times were scaled by, on the whole.
    wall = sum(o.wall for o in outcomes)
    cpu = sum(o.cpu for o in outcomes)
    wall_factor = sum(o.wall * o.wall_factor for o in outcomes) / wall
    cpu_factor = (sum(o.cpu * o.cpu_factor for o in outcomes) / cpu
                  if cpu > 0 else 1.0)
    out["calibration"] = {"samples": phase["samples"],
                          "wall_factor": wall_factor,
                          "cpu_factor": cpu_factor}
    if latencies:
        out["raw"] = measure.timed(outcomes, phase["peak_rss_mb"],
                                   scaled=False)
        out["end_to_end"] = measure.timed(outcomes, phase["peak_rss_mb"])
    if tracer is not None:
        spans = list(tracer.recorder.spans)
        for path in sorted(tracer.child_dir.glob("spans-*.json")):
            spans += read_spans(path)
        traced = [o for o in outcomes if o.round % 2 == 0]
        untraced = [o for o in outcomes if o.round % 2 == 1]
        out["per_layer"] = measure.per_layer(
            spans, traced, os.getpid(), wall_of(traced), wall_of(untraced),
            wall_factor)
        out["spans"] = len(spans)
        if args.spans_out is not None:
            write_spans(spans, args.spans_out)
    return out


def wall_of(outcomes: list[measure.Outcome]) -> tuple[float, int]:
    """(scaled wall seconds, ops) of some ops."""
    return sum(o.wall * o.wall_factor for o in outcomes), len(outcomes)


if __name__ == "__main__":
    sys.exit(main())
