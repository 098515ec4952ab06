"""Workload and metric names and units, shared by the runner and the
workloads.

``E2E`` metrics are measured with tracing off and gated by the bounds in
the root ``BENCHMARK.json``; ``PER_LAYER`` metrics come from the traced
run and carry no bound.  Every workload reports every metric: a layer a
workload never crosses reads 0.  "Per op" means per benchmark pass for
the one-shot workloads and per job for ``serve-mixed``.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS = ("sweep-cold", "sweep-warm", "minheap-cold", "serve-mixed")

#: name -> (unit, better)
E2E: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    # harness.engine
    "engine.cell_key.calls_per_op": ("count", "lower"),
    "engine.cell_key.self_ms_per_op": ("ms", "lower"),
    "engine.cache_get.calls_per_op": ("count", "lower"),
    "engine.cache_get.self_ms_per_op": ("ms", "lower"),
    "engine.cache_get.hit_ratio": ("ratio", "higher"),
    "engine.cache_put.calls_per_op": ("count", "lower"),
    "engine.cache_put.self_ms_per_op": ("ms", "lower"),
    "engine.run_cells.calls_per_op": ("count", "lower"),
    "engine.run_cells.self_ms_per_op": ("ms", "lower"),
    "engine.pool.efficiency": ("ratio", "higher"),
    # jvm.simulator / jvm.batch
    "kernel.cells_per_op": ("count", "lower"),
    "kernel.busy_ms_per_op": ("ms", "lower"),
    "kernel.ms_per_cell": ("ms", "lower"),
    "kernel.batch_calls_per_op": ("count", "higher"),
    # harness.plans / core
    "plans.lbo_assemble.self_ms_per_op": ("ms", "lower"),
    "plans.replay.calls_per_op": ("count", "lower"),
    "plans.replay.self_ms_per_op": ("ms", "lower"),
    "plans.latency_report.self_ms_per_op": ("ms", "lower"),
    # harness.experiments
    "experiments.campaign.self_ms_per_op": ("ms", "lower"),
    "experiments.render.self_ms_per_op": ("ms", "lower"),
    # resilience.supervisor
    "supervisor.admit.calls_per_op": ("count", "lower"),
    "supervisor.admit.self_ms_per_op": ("ms", "lower"),
    # service.server
    "server.http.requests_per_op": ("count", "lower"),
    "server.http.submit_p50_ms": ("ms", "lower"),
    "server.http.refused": ("count", "lower"),
    "server.worker.busy_ms_per_op": ("ms", "lower"),
    "server.worker.utilization": ("ratio", "higher"),
    "server.cold_job_p50_ms": ("ms", "lower"),
    "server.warm_job_p50_ms": ("ms", "lower"),
    # service.jobqueue
    "jobqueue.wait_p50_ms": ("ms", "lower"),
    "jobqueue.submit.self_ms_per_op": ("ms", "lower"),
    "jobqueue.finish.self_ms_per_op": ("ms", "lower"),
    "jobqueue.journal_records_per_op": ("count", "lower"),
    "jobqueue.journal_bytes_per_op": ("bytes", "lower"),
    # service.shards
    "shards.get.calls_per_op": ("count", "lower"),
    "shards.get.self_ms_per_op": ("ms", "lower"),
    "shards.hot_hit_ratio": ("ratio", "higher"),
    "shards.put.self_ms_per_op": ("ms", "lower"),
    # the tracer itself
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}
