"""Record the expected result of every op the workloads can generate.

    python3 -m perfbench.record

Runs each distinct spec once, over a pool of spawned interpreters, in
a fresh session with level 4 forced past the process-wide memo, and
writes its digest, gate verdicts and simulated statistics to
``perfbench/expected.json``.  The benchmark then checks its ops, however
it reaches them (a serial sweep that carries stages over, the service's
fork children and store), against these fresh runs.  Re-record only
when a change to the program is meant to change results.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

from . import check, workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: spawned interpreters at most; each holds one flow in memory
POOL_SIZE = 4


def all_specs() -> list[dict]:
    return (workloads.flow_specs() + workloads.explore_point_specs()
            + workloads.pcc_specs()
            + [workloads.service_spec(seed)
               for seed in workloads.SERVICE_SEEDS])


def run_one(spec_document: dict) -> tuple[str, dict]:
    from repro.api import Campaign, CampaignSpec, Session

    spec = CampaignSpec.from_dict(spec_document)
    session = Session(spec)
    if 4 in spec.levels:
        session.run("level4", force=True)
    document = Campaign(spec).run(session=session).to_dict()
    return check.spec_key(spec_document), check.record(document)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]
                            ).parse_args(argv)
    specs = all_specs()
    context = multiprocessing.get_context("spawn")
    with context.Pool(min(POOL_SIZE, os.cpu_count() or 1)) as pool:
        entries = pool.map(run_one, specs)
    ops = dict(entries)
    if len(ops) != len(specs):
        raise SystemExit("two generated specs share a content key")
    bad = sorted(entry["name"] for entry in ops.values()
                 if not all(entry["gates"].values()))
    if bad:
        raise SystemExit(f"specs failing their gates: {bad}")
    check.EXPECTED_PATH.write_text(json.dumps(
        {"schema": check.EXPECTED_SCHEMA, "ops": ops}, sort_keys=True,
        separators=(",", ":")) + "\n")
    print(f"recorded {len(ops)} ops in {check.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
