"""Host-time spans recorded from outside the program under test.

The traced benchmark run installs a wrapper at the use site of every
callable in :data:`TABLE` -- the module attribute or class attribute the
program looks up when it makes the call -- so no file under ``src/``
changes.  Each call becomes one span: name, start, end, parent span,
thread, and a request id (the benchmark pass index or the service job
id).  Spans stay in memory and are written as JSONL when the run ends.

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`).  Children are same-thread
calls made while the parent was open; spans recorded in forked pool
workers die with the worker, which is why kernel time for pooled sweeps
comes from ``EngineStats`` deltas instead.

This module is named ``spans`` rather than ``trace`` so that putting
this directory on ``sys.path`` does not shadow the standard library's
``trace`` module.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional


def _job_id(value) -> Optional[str]:
    return getattr(value, "id", None)


class Site(NamedTuple):
    """One wrapped use site: ``module.attr`` (``attr`` may be
    ``Class.method``) recorded under ``name``.  ``rid`` derives the
    request id from ``(args, result)`` once the call returns.  ``stats`` marks
    engine methods whose ``EngineStats`` delta (cells executed, kernel
    seconds) and pool size are attached to the span."""

    module: str
    attr: str
    name: str
    rid: Optional[Callable[[tuple, object], Optional[str]]] = None
    stats: bool = False


#: Every layer boundary the traced run records, by module.
TABLE = (
    # engine
    Site("repro.harness.engine", "cell_key", "engine.cell_key"),
    Site("repro.harness.engine", "simulate_run", "kernel.simulate_run"),
    Site("repro.harness.engine", "ExecutionEngine.run_cells", "engine.run_cells", stats=True),
    Site("repro.harness.engine", "ResultCache.get", "engine.cache_get"),
    Site("repro.harness.engine", "ResultCache.put", "engine.cache_put"),
    # kernel and the service's sharded cache
    Site("repro.jvm.batch", "simulate_batch", "kernel.simulate_batch"),
    Site("repro.service.shards", "ShardedResultCache.get", "shards.get"),
    Site("repro.service.shards", "ShardedResultCache.put", "shards.put"),
    Site("repro.service.shards", "ShardedResultCache.flush", "shards.flush"),
    # plans
    Site("repro.harness.plans", "lbo_curves", "plans.lbo_curves"),
    Site("repro.harness.plans", "geomean_curves", "plans.geomean_curves"),
    Site("repro.harness.plans", "replay", "plans.replay"),
    Site("repro.harness.plans", "latency_report", "plans.latency_report"),
    # campaign and supervision
    Site("repro.harness.experiments", "Campaign.rendered", "experiments.render"),
    Site("repro.service.server", "run_campaign", "experiments.campaign"),
    Site("repro.resilience.supervisor", "Supervisor.admit", "supervisor.admit"),
    # service
    Site(
        "repro.service.jobqueue",
        "JobQueue.submit_idempotent",
        "jobqueue.submit",
        rid=lambda args, result: _job_id(result[0]),
    ),
    Site(
        "repro.service.jobqueue",
        "JobQueue.claim",
        "jobqueue.claim",
        rid=lambda args, result: _job_id(result),
    ),
    Site(
        "repro.service.jobqueue",
        "JobQueue.finish",
        "jobqueue.finish",
        rid=lambda args, result: args[1],
    ),
    Site(
        "repro.service.server",
        "ServiceWorker.execute",
        "server.execute",
        rid=lambda args, result: _job_id(args[1]),
    ),
)


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """Record the enclosed block as one span; yields its record so
        the caller can attach attributes."""
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "thread": threading.get_ident(),
            "rid": rid,
            "start": time.perf_counter(),
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, fn: Callable, site: Site) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(site.name) as record:
                if site.stats:
                    before = (args[0].stats.executed, args[0].stats.execute_s)
                result = fn(*args, **kwargs)
                if site.stats:
                    record["executed"] = args[0].stats.executed - before[0]
                    record["execute_s"] = args[0].stats.execute_s - before[1]
                    record["jobs"] = args[0].jobs
                if site.rid is not None:
                    record["rid"] = site.rid(args, result)
                return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every site in :data:`TABLE`; :meth:`uninstall` restores them."""
        for site in TABLE:
            owner = importlib.import_module(site.module)
            path = site.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            # vars() rather than getattr(): a class attribute must be the
            # plain function so the wrapper binds like the original.
            original = vars(owner)[path[-1]]
            setattr(owner, path[-1], self.wrap(original, site))
            self._installed.append((owner, path[-1], original))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def dump(self, path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load(path) -> List[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover (clipped to
    the parent's own interval)."""
    by_id = {s["id"]: s for s in spans}
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            )
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
        for s in spans
    }
