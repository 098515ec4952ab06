"""Regenerate the oracles under ``golden/`` from the serial scalar path.

    PYTHONPATH=src python benchmarks/e2e/make_golden.py

``sweep.json`` holds every per-benchmark and geomean LBO point of the
sweep workloads' plan; ``minheap.json`` holds the 110 min-heap minima
and every probe each (workload, collector) search makes -- the probes
let the serve-mixed check count the distinct cells a job stream needs.
Both are produced by ``ExecutionEngine()``: no pool, no cache, batch
kernel off.
"""

from __future__ import annotations

import json

import oracle
from workloads import MINHEAP_CONFIG, SWEEP_CONFIG

from repro.harness.engine import ExecutionEngine, ProgressSink
from repro.harness.experiments import run_campaign, suite_lbo
from repro.harness.plans import DEFAULT_MULTIPLES
from repro.jvm.collectors import COLLECTOR_NAMES
from repro.workloads import registry


class _Probes(ProgressSink):
    """Records every min-heap probe, in the order the search made it."""

    def __init__(self) -> None:
        self.heaps: dict = {}

    def cell_finished(self, cell, result, from_cache: bool) -> None:
        by_collector = self.heaps.setdefault(cell.spec.name, {})
        by_collector.setdefault(cell.collector, []).append(cell.heap_mb)


def write(name: str, payload: dict) -> None:
    oracle.GOLDEN_DIR.mkdir(exist_ok=True)
    path = oracle.GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> int:
    specs = registry.all_workloads()
    engine = ExecutionEngine()
    suite = suite_lbo(specs, COLLECTOR_NAMES, DEFAULT_MULTIPLES, SWEEP_CONFIG, engine)
    write(
        "sweep",
        {
            "work": {"executed": engine.stats.executed, "cached": engine.stats.cached},
            "lbo": oracle.lbo_points(suite),
        },
    )

    probes = _Probes()
    engine = ExecutionEngine(progress=probes)
    campaign = run_campaign("minheap", specs, COLLECTOR_NAMES, config=MINHEAP_CONFIG, engine=engine)
    if engine.stats.cached:
        raise SystemExit("a search probed one heap twice: probe lists are not cold-cache work")
    write("minheap", {"minima": oracle.minima(campaign.result), "probes": probes.heaps})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
