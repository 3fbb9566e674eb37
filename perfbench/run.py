"""Benchmark of the four-level flow, run from the root of a checkout.

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

Workloads: ``flow``, ``explore``, ``verify-pcc`` and ``service`` (see
``perfbench/NOTES.md``).  The launcher imports nothing from the program.
It starts fresh interpreters running ``perfbench.worker``: two only set the
workload up, the third sets up and then runs the timed phase.
``setup_s`` is the median, over the three, of the wall time from
starting the interpreter to the worker's ``READY`` line.  Every host
time is scaled to the reference host's speed by calibration samples
taken before each set-up and while the ops run (``perfbench/calibrate.py``).

Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  Spans of a traced run are written to
``.perfbench/spans-<workload>-seed<seed>.json``.  Exits non-zero without
a result when the program's sources are missing, a worker fails or the
run overruns its time limit.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import Calibrator  # noqa: E402
from perfbench.measure import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import CLIENTS  # noqa: E402

#: fresh interpreters whose start-to-READY time gives setup_s
SETUPS = 3
#: calibration samples the launcher takes before each of them
SETUP_CALIBRATION = 5
#: the whole run, set-ups and timed phase, must end within this
TIME_LIMIT_S = 170.0

MODEL_NOTE = ("simulated statistics come from a model that has not been "
              "validated against real hardware; no error figure is given")


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(CLIENTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def launch(args, workdir: Path, deadline: float, setup_only: bool,
           spans_out: Path | None = None) -> tuple[float, dict | None]:
    """Run one worker; return (start-to-READY seconds, its report)."""
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    start = time.perf_counter()
    # Its own process group, so that a kill also reaches the service's
    # forked job children.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               kill_group, (process,))
    watchdog.start()
    try:
        first = process.stdout.readline()
        ready = time.perf_counter() - start
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            kill_group(process)
            process.wait()
        process.stdout.close()
    if first.strip() != "READY":
        raise WorkerError(f"worker exited with {code} before it was ready")
    if code != 0:
        raise WorkerError(f"worker exited with {code}")
    if setup_only:
        return ready, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no report")
    return ready, json.loads(lines[-1])


def kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # Untimed build step: byte-compile once so every set-up sample
    # measures the import of compiled modules, as an installed package.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_out = (out_dir / f"spans-{args.workload}-seed{args.seed}.json"
                 if args.trace else None)
    calibrator = Calibrator()
    try:
        samples = []
        for index in range(SETUPS):
            calibrator.take(SETUP_CALIBRATION)
            setup_only = index < SETUPS - 1
            ready, report = launch(args, workdir, deadline, setup_only,
                                   None if setup_only else spans_out)
            samples.append(ready)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return emit(args, samples, calibrator.factors()[0], report)


def emit(args, samples: list[float], setup_factor: float,
         report: dict) -> int:
    attempted, failed = report["attempted"], report["failed"]
    if "end_to_end" not in report:
        print(f"perfbench: all {attempted} ops failed: {report['failures']}",
              file=sys.stderr)
        return 1
    head = f"[{args.workload} seed={args.seed} trace={args.trace}]"
    print(f"{head} {attempted} ops in {report['rounds']} rounds, "
          f"{report['elapsed_s']:.2f} s timed")
    raw_setup_s = statistics.median(samples)
    values = dict(report["end_to_end"], setup_s=raw_setup_s * setup_factor)
    raw = dict(report["raw"], setup_s=raw_setup_s)
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        print(f"{head} {name} = {values[name]:.6g} {unit} "
              f"(unscaled {raw[name]:.6g})")
    calibration = report["calibration"]
    timed = (f"wall {calibration['wall_factor']:.4f}, cpu "
             f"{calibration['cpu_factor']:.4f} over the run "
             f"({calibration['samples']} samples)")
    print(f"{head} host-speed factors: {timed}; set-up {setup_factor:.4f} "
          f"({SETUPS * SETUP_CALIBRATION} samples)")
    print(f"{head} error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} ops failed)")
    for reason in report["failures"]:
        print(f"{head}   failure: {reason}")
    print(f"{head} setup samples: "
          + ", ".join(f"{sample:.3f}" for sample in samples) + " s")
    print(f"{head} {report['tail_note']}")
    print(f"{head} simulated statistics repeat exactly: "
          f"{'yes' if report['sim_repeat'] else 'NO'}")
    print(f"{head} {MODEL_NOTE}")
    if args.trace:
        units = dict(PER_LAYER)
        values = report["per_layer"]
        for name, unit in PER_LAYER:
            print(f"{head} {name} = {values[name]:.6g} {unit}")
        traced = values["trace.traced_ops_per_s"]
        untraced = values["trace.untraced_ops_per_s"]
        if untraced:
            print(f"{head} tracing overhead: traced {traced:.4g} vs "
                  f"untraced {untraced:.4g} ops/s "
                  f"({100.0 * (untraced / traced - 1.0):+.1f}% time per op); "
                  f"{report['spans']} spans")
    result = {
        "correct": failed == 0 and report["sim_repeat"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
