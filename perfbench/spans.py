"""Spans around calls into the program's layers, for the traced run only.

The benchmark never changes the program.  For a traced run it replaces
each layer's entry point, where its callers look it up, with a wrapper
that records one span per call: name, start, end, parent span and the id
of the op the call belongs to.  Spans stay in memory; the worker writes
them out when its run ends.  Uninstalling restores every original
object, so untraced rounds run the unmodified program.

Self time is a span's duration minus the part of it that its child spans
cover.  ``api.stage.*`` spans subtract only nested stages (the
dependencies ``Session.run`` resolves), so a stage's self time still
contains the lower layers it drives; every other span subtracts all of
its children.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Optional

STAGE_PREFIX = "api.stage."


@dataclass
class Span:
    span_id: tuple[int, int]
    parent: Optional[tuple[int, int]]
    op: int
    name: str
    start: float
    end: float
    extra: Optional[dict] = None

    def to_list(self) -> list:
        return [list(self.span_id), list(self.parent) if self.parent else None,
                self.op, self.name, self.start, self.end, self.extra]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span_id, parent, op, name, start, end, extra = row
        return cls(tuple(span_id), tuple(parent) if parent else None, op,
                   name, start, end, extra)


class Recorder:
    """In-memory span sink with a per-thread stack of open spans.

    ``op`` is the id of the op in flight; the benchmark is a closed loop
    with one client, so every span opened meanwhile, on any thread,
    belongs to it.  Span ids carry the process id, so spans written by
    forked children never collide with the parent's.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             extract: Optional[Callable] = None) -> Any:
        stack = self._stack()
        span_id = (os.getpid(), next(self._ids))
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = extract(args, result) if extract is not None else None
            self.spans.append(Span(span_id, parent, self.op, name, start,
                                   end, extra))


def write_spans(spans: list[Span], path: Path) -> None:
    path.write_text(json.dumps([span.to_list() for span in spans]))


def read_spans(path: Path) -> list[Span]:
    return [Span.from_list(row) for row in json.loads(path.read_text())]


# -- self time ---------------------------------------------------------------------


def covered(interval: tuple[float, float],
            parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in parts
                     if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by span id (see module docstring)."""
    children: dict[tuple[int, int], list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = children.get(span.span_id, ())
        if span.name.startswith(STAGE_PREFIX):
            kids = [k for k in kids if k.name.startswith(STAGE_PREFIX)]
        out[span.span_id] = (span.end - span.start) - covered(
            (span.start, span.end), [(k.start, k.end) for k in kids])
    return out


# -- the wrapped entry points ------------------------------------------------------


def _stage_name(args: tuple, kwargs: dict) -> str:
    return STAGE_PREFIX + (args[1] if len(args) > 1 else kwargs["name"])


def _sat_stats(args: tuple, result: Any) -> dict:
    stats = args[0].stats
    return {"conflicts": stats.conflicts, "decisions": stats.decisions,
            "propagations": stats.propagations}


def _pcc_counts(args: tuple, result: Any) -> Optional[dict]:
    if result is None:
        return None
    return {"mutants": len(result.verdicts), "killed": result.killed_count}


class _TracedEngine:
    """The executor ``create_engine`` returned, with ``run`` spanned."""

    def __init__(self, recorder: Recorder, engine: Any):
        self._recorder = recorder
        self._engine = engine

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def run(self, *args, **kwargs):
        return self._recorder.call("swir.run", self._engine.run, args, kwargs)


#: (module, owner attribute path, span name or namer, extractor).  Each
#: entry is patched where the program's callers look it up: a class
#: method on its class, a function in the namespace of the module that
#: calls it.
TARGETS: list[tuple[str, str, Any, Optional[Callable]]] = [
    ("repro.api.session", "Session.run", _stage_name, None),
    ("repro.platform.profiler", "profile_graph", "platform.profile", None),
    ("repro.flow.level4", "synthesize", "rtl.synthesize", None),
    ("repro.verify.mc.bmc", "BoundedModelChecker.check_invariant_clauses",
     "bmc.check", None),
    ("repro.verify.sat", "SatSolver.solve", "sat.solve", _sat_stats),
    ("repro.verify.pcc.checker", "PropertyCoverageChecker.run", "pcc.run",
     _pcc_counts),
    ("repro.flow.level2", "check_deadline", "lpv.check", None),
    ("repro.flow.level2", "size_fifos", "lpv.check", None),
    ("repro.verify.symbc.analysis", "SymbcAnalyzer.check", "symbc.check",
     None),
    ("repro.kernel.scheduler", "Simulator.run", "kernel.run", None),
    ("repro.store", "CampaignStore.get", "store.read", None),
    ("repro.service.client", "ServiceClient.submit", "service.submit", None),
]


class Tracer:
    """Installs and removes the wrappers around the program's layers."""

    def __init__(self, recorder: Recorder, child_dir: Optional[Path] = None):
        self.recorder = recorder
        #: where forked service job children write their spans
        self.child_dir = child_dir
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = inspect.getattr_static(owner, attr)
        own = True
        if inspect.isclass(owner):
            if not inspect.isfunction(original):
                raise TypeError(f"cannot wrap {owner.__name__}.{attr}: "
                                f"not a plain method")
            own = attr in vars(owner)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            return
        recorder = self.recorder
        for module_name, path, name, extract in TARGETS:
            owner = import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            self._patch(owner, attr, _wrapper(recorder, getattr(owner, attr),
                                              name, extract))
        level3 = import_module("repro.flow.level3")
        create = level3.create_engine

        def create_engine(*args, **kwargs):
            engine = recorder.call("swir.build", create, args, kwargs)
            return _TracedEngine(recorder, engine)

        self._patch(level3, "create_engine", create_engine)
        if self.child_dir is not None:
            self._patch_service_child()

    def _patch_service_child(self) -> None:
        """Make each forked job child write its own spans when it ends."""
        workers = import_module("repro.service.workers")
        execute = workers.execute_job
        recorder, child_dir = self.recorder, self.child_dir

        def execute_job(*args, **kwargs):
            first = len(recorder.spans)
            try:
                return recorder.call("service.child", execute, args, kwargs)
            finally:
                write_spans(recorder.spans[first:],
                            child_dir / f"spans-{os.getpid()}.json")

        self._patch(workers, "execute_job", execute_job)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _wrapper(recorder: Recorder, fn: Callable, name: Any,
             extract: Optional[Callable]) -> Callable:
    def wrapped(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        return recorder.call(label, fn, args, kwargs, extract)
    return wrapped
