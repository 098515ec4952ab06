"""repro - a reproduction of *Rethinking Java Performance Analysis*
(Blackburn et al., ASPLOS 2025).

The package implements the DaCapo Chopin methodology suite over a
simulated JVM:

- :mod:`repro.jvm` - the substrate: heap, machine model, the five
  OpenJDK 21 production collector models (Serial, Parallel, G1,
  Shenandoah, ZGC), and the vectorized batch kernel
  (:func:`simulate_batch`) that runs a whole heap-factor row in one
  struct-of-arrays pass.
- :mod:`repro.workloads` - the 22 workload models parameterized from the
  paper's published nominal statistics, including the nine
  latency-sensitive request-driven workloads.
- :mod:`repro.core` - the methodologies: lower-bound overhead (LBO),
  simple and metered latency, minimum-heap search, nominal statistics,
  and principal components analysis.
- :mod:`repro.harness` - the experiment runner and the pre-packaged
  experiments behind every figure and table of the paper.
- :mod:`repro.observability` - the JFR-style flight recorder: typed
  events, metrics, and Chrome-trace export.
- :mod:`repro.planner` - the adaptive sweep planner: curve models fit
  from completed cells, deterministic acquisition policies, CV-based
  cell grading, and gmean collector ranking.
- :mod:`repro.resilience` - retries, timeouts, checkpoint/resume, and
  deterministic fault injection for production-scale sweeps.
- :mod:`repro.service` - the long-running sweep service behind ``chopin
  serve``: an HTTP/JSON job queue over the engine with a sharded
  multi-tenant result cache.

Quickstart::

    from repro import registry, lbo_experiment

    spec = registry.workload("lusearch")
    curves = lbo_experiment(spec)
    print(curves.point("wall", "G1", 2.0).overhead.mean)
"""

from repro.core.characterize import characterize, spearman_rank_correlation
from repro.core.compare import bootstrap_ci, compare_collectors
from repro.core.insights import format_insights, insights_for
from repro.core.latency import (
    latency_report,
    metered_latencies,
    simple_latencies,
    synthetic_starts,
)
from repro.core.lbo import RunCosts, costs_from_iteration, geomean_curves, lbo_curves
from repro.core.minheap import MinHeapResult, find_min_heap
from repro.core.nominal import METRICS, format_report, score_benchmark
from repro.core.pca import determinant_metrics, suite_pca
from repro.core.stats import confidence_interval_95, geometric_mean
from repro.harness.engine import (
    Cell,
    EngineStats,
    ExecutionEngine,
    Hole,
    LogSink,
    PartialBatch,
    ProgressSink,
    ResultCache,
    cell_key,
)
from repro.harness.experiments import (
    Campaign,
    ChaosDrill,
    chaos_drill,
    heap_timeseries,
    latency_experiment,
    lbo_experiment,
    minheap_experiment,
    run_campaign,
    suite_lbo,
)
from repro.resilience import (
    CellExecutionError,
    CheckpointJournal,
    CircuitBreaker,
    CostModel,
    FaultInjector,
    FaultSpec,
    NullInjector,
    RetryPolicy,
    Supervisor,
    compact_journal,
    scan_cache,
    verify_cells,
)
from repro.observability import (
    MetricsRegistry,
    NullRecorder,
    Recorder,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.harness.perfdiff import (
    DiffReport,
    diff_artifacts,
    load_artifact,
    resolve_artifacts,
)
from repro.harness.plans import (
    PLAN_CROSSOVER_TOLERANCE,
    PLAN_KINDS,
    AdaptivePlan,
    AdaptiveResult,
    AdaptiveRound,
    ExperimentPlan,
    LatencyRun,
    SuiteLbo,
    grid_crossovers,
    plan_adaptive,
    plan_latency,
    plan_lbo,
    plan_minheap,
    run_adaptive,
    run_plan,
)
from repro.planner import (
    CellGrade,
    CollectorScore,
    CurveModel,
    LatencyPlanner,
    MinHeapPlanner,
    Planner,
    crossover_points,
    grade_cell,
    rank_collectors,
    render_ranking,
    score_collector,
)
from repro.harness.config import HarnessConfig, engine_from_config, harness_config
from repro.harness.runner import RunConfig, measure
from repro.harness.configs import EXPERIMENTS, run_experiment
from repro.harness.export import write_gc_log_csv, write_latency_csv
from repro.jvm.batch import (
    BATCH_TOLERANCE,
    BatchCell,
    BatchResult,
    BatchSpec,
    CellOutcome,
    batch_scalars_close,
    simulate_batch,
)
from repro.jvm.collectors import (
    COLLECTOR_NAMES,
    COLLECTORS,
    UnknownCollectorError,
    resolve_collector,
)
from repro.jvm.environment import EnvironmentProfile, EnvironmentSensitivity
from repro.jvm.heap import Heap, OutOfMemoryError
from repro.jvm.simulator import simulate_iteration, simulate_run
from repro.jvm.telemetry import (
    FIDELITIES,
    FIDELITY_AGGREGATE,
    FIDELITY_FULL,
    AggregateTelemetry,
    FidelityError,
    FullTelemetry,
    resolve_fidelity,
)
from repro.observability import RecorderLike
from repro.service import (
    JobQueue,
    JobSpec,
    ServiceClient,
    ServiceError,
    ShardedResultCache,
    SweepService,
    service_from_config,
)
from repro.workloads import registry
from repro.workloads.registry import all_workloads, available_sizes, latency_workloads, workload

__version__ = "1.0.0"

__all__ = [
    "AdaptivePlan",
    "AdaptiveResult",
    "AdaptiveRound",
    "AggregateTelemetry",
    "BATCH_TOLERANCE",
    "BatchCell",
    "BatchResult",
    "BatchSpec",
    "COLLECTORS",
    "COLLECTOR_NAMES",
    "Campaign",
    "Cell",
    "CellGrade",
    "CellOutcome",
    "CellExecutionError",
    "ChaosDrill",
    "CheckpointJournal",
    "CircuitBreaker",
    "CollectorScore",
    "CostModel",
    "CurveModel",
    "DiffReport",
    "EXPERIMENTS",
    "EngineStats",
    "EnvironmentProfile",
    "EnvironmentSensitivity",
    "ExecutionEngine",
    "ExperimentPlan",
    "FIDELITIES",
    "FIDELITY_AGGREGATE",
    "FIDELITY_FULL",
    "FaultInjector",
    "FaultSpec",
    "FidelityError",
    "FullTelemetry",
    "HarnessConfig",
    "Heap",
    "Hole",
    "JobQueue",
    "JobSpec",
    "LatencyPlanner",
    "LatencyRun",
    "LogSink",
    "METRICS",
    "MetricsRegistry",
    "MinHeapPlanner",
    "MinHeapResult",
    "NullInjector",
    "NullRecorder",
    "OutOfMemoryError",
    "PLAN_CROSSOVER_TOLERANCE",
    "PLAN_KINDS",
    "PartialBatch",
    "Planner",
    "ProgressSink",
    "Recorder",
    "RecorderLike",
    "ResultCache",
    "RetryPolicy",
    "RunConfig",
    "RunCosts",
    "ServiceClient",
    "ServiceError",
    "ShardedResultCache",
    "SuiteLbo",
    "Supervisor",
    "SweepService",
    "UnknownCollectorError",
    "__version__",
    "all_workloads",
    "available_sizes",
    "batch_scalars_close",
    "bootstrap_ci",
    "cell_key",
    "chaos_drill",
    "characterize",
    "chrome_trace",
    "compact_journal",
    "compare_collectors",
    "confidence_interval_95",
    "costs_from_iteration",
    "crossover_points",
    "determinant_metrics",
    "diff_artifacts",
    "engine_from_config",
    "find_min_heap",
    "format_insights",
    "format_report",
    "geomean_curves",
    "geometric_mean",
    "grade_cell",
    "grid_crossovers",
    "harness_config",
    "heap_timeseries",
    "insights_for",
    "latency_experiment",
    "latency_report",
    "latency_workloads",
    "lbo_curves",
    "lbo_experiment",
    "load_artifact",
    "measure",
    "metered_latencies",
    "minheap_experiment",
    "plan_adaptive",
    "plan_latency",
    "plan_lbo",
    "plan_minheap",
    "rank_collectors",
    "registry",
    "render_ranking",
    "resolve_artifacts",
    "resolve_collector",
    "resolve_fidelity",
    "run_adaptive",
    "run_campaign",
    "run_experiment",
    "run_plan",
    "score_collector",
    "scan_cache",
    "score_benchmark",
    "service_from_config",
    "simple_latencies",
    "simulate_batch",
    "simulate_iteration",
    "simulate_run",
    "spearman_rank_correlation",
    "suite_lbo",
    "suite_pca",
    "synthetic_starts",
    "validate_chrome_trace",
    "verify_cells",
    "workload",
    "write_chrome_trace",
    "write_gc_log_csv",
    "write_jsonl",
    "write_latency_csv",
]
