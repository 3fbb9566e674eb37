"""Correctness of op results against the recorded ones.

Every op's result document is reduced to its canonical digest (the
program's own ``repro.serialize.canonical_json``, which drops wall-clock
keys) and its gate verdicts.  ``expected.json`` holds both for every op
the workloads can generate, keyed by the content of the op's spec.  An
op fails if its gates do not all pass or its digest differs from the
recorded one.

The simulated statistics (kernel activations, platform and FPGA
counters, BMC verdicts, PCC kill counts) are extracted separately, so a
run can say whether they repeated exactly.  They come from a model that
has not been validated against real hardware, so the benchmark gives no
error figure for them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
EXPECTED_SCHEMA = "perfbench.expected/v1"


def canonical(document: Any) -> str:
    from repro.serialize import canonical_json

    return canonical_json(document)


def spec_key(spec_document: dict) -> str:
    """Content key of a spec: digest of its normalised document."""
    from repro.api import CampaignSpec

    normal = CampaignSpec.from_dict(spec_document).to_dict()
    return hashlib.sha256(canonical(normal).encode()).hexdigest()[:24]


def digest(document: dict) -> str:
    return hashlib.sha256(canonical(document).encode()).hexdigest()


def sim_stats(document: dict) -> dict:
    """The exact simulated statistics of one campaign outcome document."""
    stages = document.get("stages") or {}
    out: dict[str, Any] = {}
    level1 = (stages.get("level1") or {}).get("value")
    if level1:
        out["kernel.activations"] = level1["activations"]
    for level in ("level2", "level3"):
        value = (stages.get(level) or {}).get("value")
        if not value:
            continue
        metrics = value["metrics"]
        out[f"{level}.elapsed_ps"] = metrics["elapsed_ps"]
        out[f"{level}.bus_words"] = metrics["bus"]["words"]
        if metrics.get("fpga"):
            out[f"{level}.fpga.reconfigurations"] = \
                metrics["fpga"]["reconfigurations"]
            out[f"{level}.fpga.bitstream_words"] = \
                metrics["fpga"]["bitstream_words"]
    level4 = (stages.get("level4") or {}).get("value")
    if level4:
        verdicts = []
        for name, module in sorted(level4["modules"].items()):
            verdicts += [f"{name}:{p['property']}:{p['solver']}"
                         for p in module["properties"]]
            if module.get("pcc"):
                out[f"pcc.{name}.mutants"] = module["pcc"]["mutants"]
                out[f"pcc.{name}.killed"] = module["pcc"]["killed"]
        out["bmc.verdicts"] = verdicts
    return out


def record(document: dict) -> dict:
    """The expected-file entry for one outcome document."""
    return {"name": document["spec"]["name"], "digest": digest(document),
            "gates": document["gates"], "sim": sim_stats(document)}


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict]:
    data = json.loads(path.read_text())
    if data.get("schema") != EXPECTED_SCHEMA:
        raise ValueError(f"{path}: not a {EXPECTED_SCHEMA} file")
    return data["ops"]


def verify(document: Optional[dict], expected: dict[str, dict]
           ) -> tuple[Optional[str], bool]:
    """(failure reason or None, simulated statistics repeated)."""
    if document is None:
        return "no result document", True
    entry = expected.get(spec_key(document["spec"]))
    if entry is None:
        return f"no recorded result for {document['spec']['name']!r}", True
    sim_ok = sim_stats(document) == entry["sim"]
    failed_gates = sorted(level for level, ok in document["gates"].items()
                          if not ok)
    if failed_gates:
        return f"level gates failed: {failed_gates}", sim_ok
    if document["gates"] != entry["gates"]:
        return "gate verdicts differ from the recorded ones", sim_ok
    if digest(document) != entry["digest"]:
        return "result digest differs from the recorded one", sim_ok
    return None, sim_ok
