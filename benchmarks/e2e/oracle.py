"""Correctness oracles for the end-to-end benchmark.

The goldens under ``golden/`` come from the serial scalar path
(``ExecutionEngine()``, batch kernel off) via ``make_golden.py``.  Curve
points are compared within ``BATCH_TOLERANCE``, so a future engine that
batches by default still passes while a wrong value fails; min-heap
minima and work counts must match exactly.  Every check returns a list
of mismatch messages, empty when the output is correct.

Work is counted from ``EngineStats`` (``executed`` + ``cached``), never
from ``Campaign.cells``: for min-heap campaigns that field adds
``negative_hits`` on top of ``cached``, which already includes them.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.harness.engine import Cell, ExecutionEngine, cell_key
from repro.harness.experiments import run_campaign
from repro.harness.plans import plan_latency, plan_lbo, plan_minheap
from repro.harness.runner import RunConfig
from repro.jvm.batch import batch_scalars_close
from repro.workloads import registry

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_golden(name: str) -> dict:
    with (GOLDEN_DIR / f"{name}.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def diff(
    expected,
    actual,
    close: Callable[[float, float], bool] = batch_scalars_close,
    path: str = "",
) -> List[str]:
    """Mismatches between two JSON-shaped values: key sets and lengths
    must agree exactly, floats within ``close``, everything else equal."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            missing = sorted(set(expected) - set(actual or {}))
            extra = sorted(set(actual or {}) - set(expected))
            return [f"{path or '/'}: keys differ (missing {missing}, extra {extra})"]
        return [m for k in sorted(expected) for m in diff(expected[k], actual[k], close, f"{path}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: expected {len(expected)} items, got {actual!r}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in diff(e, a, close, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return [] if close(expected, float(actual)) else [f"{path}: expected {expected!r}, got {actual!r}"]
    return [] if expected == actual else [f"{path}: expected {expected!r}, got {actual!r}"]


def lbo_points(suite) -> dict:
    """A :class:`~repro.harness.plans.SuiteLbo` as JSON: every
    per-benchmark point as ``[mean, half_width, n]`` and every geomean
    point, keyed by benchmark, collector and ``repr(multiple)``."""

    def curves(by_collector) -> dict:
        return {
            collector: {
                repr(p.heap_multiple): [p.overhead.mean, p.overhead.half_width, p.overhead.n]
                for p in points
            }
            for collector, points in by_collector.items()
        }

    def geomean(by_collector) -> dict:
        return {
            collector: {repr(m): v for m, v in points}
            for collector, points in by_collector.items()
        }

    return {
        "per_benchmark": {
            c.benchmark: {"wall": curves(c.wall), "task": curves(c.task)}
            for c in suite.per_benchmark
        },
        "geomean_wall": geomean(suite.geomean_wall),
        "geomean_task": geomean(suite.geomean_task),
    }


def minima(results) -> Dict[str, Dict[str, float]]:
    """Min-heap results as ``{benchmark: {collector: min_heap_mb}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for r in results:
        out.setdefault(r.benchmark, {})[r.collector] = r.min_heap_mb
    return out


def check_work(stats, executed: int, cached: int) -> List[str]:
    """Exact work counts from an ``EngineStats`` delta."""
    if (stats.executed, stats.cached) == (executed, cached):
        return []
    return [
        f"work: expected {executed} executed + {cached} cached, got "
        f"{stats.executed} executed + {stats.cached} cached"
    ]


def check_lbo(golden: dict, suite, stats, executed: int, cached: int) -> List[str]:
    return diff(golden["lbo"], lbo_points(suite), path="lbo") + check_work(stats, executed, cached)


def check_minheap(golden: dict, campaign) -> List[str]:
    """A min-heap campaign over the suite on a cold cache: exact minima,
    and exactly one executed cell per golden probe."""
    messages = diff(golden["minima"], minima(campaign.result), close=operator.eq, path="minima")
    if campaign.holes:
        messages.append(f"minheap: {len(campaign.holes)} hole(s)")
    probes = sum(len(h) for pair in golden["probes"].values() for h in pair.values())
    return messages + check_work(campaign.stats, probes, 0)


# ----------------------------------------------------------------------
# serve-mixed


def _run_config(payload: dict) -> RunConfig:
    # The same RunConfig the service worker builds from a JobSpec.
    return RunConfig(
        invocations=payload["invocations"],
        duration_scale=payload["scale"],
        fidelity=payload.get("fidelity"),
    )


def spec_cells(payload: dict, probes: dict) -> List[Cell]:
    """Every cell a job spec simulates on a cold cache.  Min-heap probe
    schedules are dynamic, so they come from the golden ``probes``."""
    spec = registry.workload(payload["benchmark"])
    collectors = tuple(payload["collectors"])
    multiples = tuple(payload["multiples"])
    config = _run_config(payload)
    kind = payload["kind"]
    if kind == "lbo":
        return plan_lbo(spec, collectors, multiples, config).cells()
    if kind == "latency":
        return plan_latency(spec, collectors, multiples or (2.0,), config).cells()
    config = plan_minheap(spec, collectors, config).config
    return [
        Cell(spec=spec, collector=c, heap_mb=mb, invocation=0, config=config)
        for c in collectors
        for mb in probes[spec.name][c]
    ]


def render_fresh(payload: dict) -> str:
    """What a job spec renders through a fresh, cacheless engine."""
    campaign = run_campaign(
        payload["kind"],
        registry.workload(payload["benchmark"]),
        collectors=tuple(payload["collectors"]),
        multiples=tuple(payload["multiples"]) or None,
        config=_run_config(payload),
        engine=ExecutionEngine(),
    )
    return campaign.rendered()


def check_serve(
    jobs: Sequence[dict],
    renders: Dict[str, str],
    sample: Sequence[str],
    probes: dict,
) -> List[str]:
    """``jobs`` are client records (``spec`` as canonical JSON text,
    ``state``, ``executed``, ``id``); ``renders`` maps job id to its
    rendered result; ``sample`` lists specs to re-render fresh.

    Checks that every job of one spec rendered byte-identical text, that
    the sampled specs match a fresh engine, and that the service
    simulated each distinct cell of the stream exactly once."""
    messages = [
        f"job {j['id']} ended {j['state']}" for j in jobs if j["state"] != "DONE"
    ]
    by_spec: Dict[str, str] = {}
    for j in jobs:
        text = renders.get(j["id"])
        first = by_spec.setdefault(j["spec"], text)
        if text is None or text != first:
            messages.append(f"job {j['id']}: rendered text differs from another job of its spec")
    for spec in sample:
        if render_fresh(json.loads(spec)) != by_spec[spec]:
            messages.append(f"spec {spec}: served text differs from a fresh engine")
    distinct = {
        cell_key(cell)
        for spec in by_spec
        for cell in spec_cells(json.loads(spec), probes)
    }
    simulated = sum(j["executed"] for j in jobs)
    if simulated != len(distinct):
        messages.append(
            f"service simulated {simulated} cells for {len(distinct)} distinct cells"
        )
    return messages
