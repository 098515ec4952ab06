"""Experiment plans: declarative sweeps with a single execution entry point.

An :class:`ExperimentPlan` captures *what* to run — workloads, collectors,
heap multiples, and a :class:`~repro.harness.runner.RunConfig` — without
running anything.  :func:`run_plan` enumerates the plan into independent
:class:`~repro.harness.engine.Cell` jobs, submits them through an
:class:`~repro.harness.engine.ExecutionEngine` (parallel and cached when
the caller provides one), and assembles the results into the same objects
the legacy entry points returned: :class:`SuiteLbo` for LBO sweeps, a
list of :class:`LatencyRun` for latency sweeps.

``lbo_experiment``, ``suite_lbo``, and ``latency_experiment`` in
:mod:`repro.harness.experiments` are thin wrappers over these plans, and
assembly here follows the exact enumeration order and drop rules of the
legacy serial code, so results are bit-identical whichever door you use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.latency import LatencyReport, latency_report
from repro.core.lbo import LboCurves, RunCosts, costs_from_iteration, geomean_curves, lbo_curves
from repro.core.minheap import MinHeapResult, _min_heap_search
from repro.core.rng import generator_for
from repro.harness.engine import (
    Cell,
    CellResult,
    EngineStats,
    ExecutionEngine,
    Hole,
)
from repro.harness.runner import DEFAULT_CONFIG, RunConfig
from repro.resilience import Supervisor
from repro.jvm.collectors import COLLECTOR_NAMES, resolve_collector
from repro.jvm.heap import OutOfMemoryError
from repro.jvm.telemetry import FIDELITY_AGGREGATE, FIDELITY_FULL
from repro.workloads.requests import EventRecord, replay
from repro.workloads.spec import WorkloadSpec

#: Heap multiples used for the paper's 1-6x sweeps, with extra resolution
#: at small heaps where the time-space tradeoff carries most information
#: (the paper's advice in Section 4.2).
DEFAULT_MULTIPLES: Tuple[float, ...] = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)

#: Plan kinds :func:`run_plan` knows how to assemble — the campaign
#: families of the paper's analysis: LBO cost curves, metered-latency
#: tails, and minimum-heap determination.
PLAN_KINDS = ("lbo", "latency", "minheap")


@dataclass(frozen=True)
class SuiteLbo:
    """Suite-wide LBO: per-benchmark curves plus geometric means."""

    per_benchmark: List[LboCurves]
    geomean_wall: Dict[str, List[Tuple[float, float]]]
    geomean_task: Dict[str, List[Tuple[float, float]]]


@dataclass(frozen=True)
class LatencyRun:
    """One latency measurement: the raw events plus their report."""

    benchmark: str
    collector: str
    heap_multiple: float
    events: EventRecord
    report: LatencyReport


@dataclass(frozen=True)
class ExperimentPlan:
    """A declarative sweep: every (spec × collector × multiple × invocation).

    ``replay_invocation`` matters only to latency plans: it selects which
    invocation's timeline the request stream is replayed over (and seeds
    the replay RNG), mirroring ``latency_experiment``'s ``invocation``
    argument.

    ``tolerance`` and ``probes`` matter only to min-heap plans: they are
    the relative bracket width at which the search stops and the
    K-section width, exactly as in
    :func:`~repro.core.minheap.find_min_heap`.  Min-heap plans size their
    probe schedule dynamically, so they are the one kind allowed an empty
    ``multiples`` tuple (a non-empty one declares the candidate grid an
    adaptive min-heap campaign bisects over).
    """

    kind: str
    specs: Tuple[WorkloadSpec, ...]
    collectors: Tuple[str, ...]
    multiples: Tuple[float, ...]
    config: RunConfig = DEFAULT_CONFIG
    replay_invocation: int = 0
    tolerance: float = 0.02
    probes: int = 1

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ValueError(f"unknown plan kind {self.kind!r}; choose from {PLAN_KINDS}")
        if not self.specs:
            raise ValueError("a plan needs at least one workload")
        if not self.collectors:
            raise ValueError("a plan needs at least one collector")
        if not self.multiples and self.kind != "minheap":
            raise ValueError("a plan needs at least one heap multiple")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.probes < 1:
            raise ValueError("probes must be at least 1")
        for collector in self.collectors:
            resolve_collector(collector)
        for multiple in self.multiples:
            if multiple <= 0:
                raise ValueError("heap multiples must be positive")
        if self.kind == "latency":
            for spec in self.specs:
                if not spec.latency_sensitive:
                    raise ValueError(f"{spec.name} is not a latency-sensitive workload")
            if self.config.fidelity == FIDELITY_AGGREGATE:
                raise ValueError(
                    "latency plans replay requests over per-event timelines, "
                    "which aggregate fidelity does not record; use "
                    "fidelity='full' (or None for auto)"
                )

    @property
    def cell_count(self) -> int:
        """Number of independent jobs the plan enumerates into.

        A dynamic min-heap plan (empty ``multiples``) sizes its probe
        schedule while running, so its static count is 0.
        """
        return (
            len(self.specs)
            * len(self.collectors)
            * len(self.multiples)
            * self.config.invocations
        )

    def rows(self) -> List[List[Cell]]:
        """Enumerate the plan into heap-factor rows.

        A *row* is one (workload, collector) pair swept across every heap
        multiple and invocation: its cells share the workload model, the
        collector, and the run configuration, and differ only in heap
        size and noise seed.  That shared structure is what the
        vectorized batch kernel (:func:`repro.jvm.batch.simulate_batch`)
        exploits — an engine with ``batch=True`` simulates each row in
        one struct-of-arrays pass — so plans are built row-first and
        :meth:`cells` is defined as the concatenation of rows.

        Row order is spec-major then collector; within a row, multiple
        then invocation — exactly the nesting the legacy serial loops
        used, which is what lets :func:`run_plan` reassemble results
        positionally.
        """
        return [
            [
                Cell(
                    spec=spec,
                    collector=collector,
                    heap_mb=spec.heap_mb_for(multiple),
                    invocation=invocation,
                    config=self.config,
                )
                for multiple in self.multiples
                for invocation in range(self.config.invocations)
            ]
            for spec in self.specs
            for collector in self.collectors
        ]

    def cells(self) -> List[Cell]:
        """Enumerate the plan into independent cell jobs — the flattened
        :meth:`rows`, preserving the legacy spec-major ordering."""
        return [cell for row in self.rows() for cell in row]


def _specs_tuple(specs: Union[WorkloadSpec, Sequence[WorkloadSpec]]) -> Tuple[WorkloadSpec, ...]:
    """Accept one spec or a sequence of specs."""
    if isinstance(specs, WorkloadSpec):
        return (specs,)
    return tuple(specs)


def plan_lbo(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    config: RunConfig = DEFAULT_CONFIG,
) -> ExperimentPlan:
    """Plan a lower-bound-overhead sweep (Figures 1 and 5).

    LBO assembly consumes only headline scalars, so auto fidelity
    (``config.fidelity is None``) resolves to the aggregate tier here —
    the curves are bit-identical and the sweep is substantially faster.
    Pass ``fidelity="full"`` explicitly to keep per-event telemetry on
    the cached results (e.g. for ``chopin trace``).

    The plan is organized in heap-factor rows (:meth:`ExperimentPlan.rows`);
    submitting it through an engine built with ``batch=True`` (CLI
    ``--batch``, env ``CHOPIN_BATCH=1``) simulates each row's cache
    misses in one vectorized pass.  Cell keys are unchanged either way,
    so warm caches survive toggling the batch kernel on or off.
    """
    if config.fidelity is None:
        config = replace(config, fidelity=FIDELITY_AGGREGATE)
    return ExperimentPlan(
        kind="lbo",
        specs=_specs_tuple(specs),
        collectors=tuple(collectors),
        multiples=tuple(multiples),
        config=config,
    )


def plan_latency(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Sequence[float] = (2.0,),
    config: RunConfig = DEFAULT_CONFIG,
    replay_invocation: int = 0,
) -> ExperimentPlan:
    """Plan a user-experienced-latency sweep (Figures 3 and 6).

    Request replay walks the timed iteration's timeline, so auto
    fidelity resolves to the full tier; an explicit
    ``fidelity="aggregate"`` is rejected by plan validation.
    """
    if config.fidelity is None:
        config = replace(config, fidelity=FIDELITY_FULL)
    return ExperimentPlan(
        kind="latency",
        specs=_specs_tuple(specs),
        collectors=tuple(collectors),
        multiples=tuple(multiples),
        config=config,
        replay_invocation=replay_invocation,
    )


def plan_minheap(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    config: RunConfig = DEFAULT_CONFIG,
    tolerance: float = 0.02,
    probes: int = 1,
    multiples: Sequence[float] = (),
) -> ExperimentPlan:
    """Plan a minimum-heap search campaign (Recommendation H2).

    Probe cells carry only the OOM-or-not outcome, so auto fidelity
    resolves to the aggregate tier, and auto iterations resolve to 1 —
    the exact parameters of :func:`~repro.core.minheap.find_min_heap`'s
    inline probes, which is what pins the engine-backed search
    bit-identical to the legacy one.  ``multiples`` defaults to empty
    (the schedule is dynamic); a non-empty tuple declares the candidate
    grid an adaptive campaign (``plan_adaptive(kind="minheap")``)
    bisects over.
    """
    if config.fidelity is None:
        config = replace(config, fidelity=FIDELITY_AGGREGATE)
    if config.iterations is None:
        config = replace(config, iterations=1)
    return ExperimentPlan(
        kind="minheap",
        specs=_specs_tuple(specs),
        collectors=tuple(collectors),
        multiples=tuple(multiples),
        config=config,
        tolerance=tolerance,
        probes=probes,
    )


def run_plan(
    plan: ExperimentPlan,
    engine: Optional[ExecutionEngine] = None,
    strict: bool = False,
    return_stats: bool = False,
    partial: bool = False,
    supervisor: Optional["Supervisor"] = None,
):
    """Execute a plan through an engine and assemble the results.

    Returns :class:`SuiteLbo` for ``kind="lbo"``, a list of
    :class:`LatencyRun` for ``kind="latency"``, and a list of
    :class:`~repro.core.minheap.MinHeapResult` (spec-major, collector
    order; infeasible pairs dropped unless ``strict``) for
    ``kind="minheap"``.  Without an engine, a
    fresh in-process serial engine (no cache) is used — the legacy
    behaviour.  (collector, multiple) groups where *any* invocation hits
    ``OutOfMemoryError`` are dropped, matching the paper's plotting rule;
    with ``strict`` a latency plan raises on such groups instead, which
    is how ``latency_experiment`` keeps its error contract.

    With ``return_stats`` the return value becomes an ``(assembled,
    stats)`` pair where ``stats`` is the
    :class:`~repro.harness.engine.EngineStats` delta for *this* plan —
    cache hits, misses, negative (OOM) hits, and cells simulated — so a
    warm rerun can say why it was fast.  If the engine carries a flight
    recorder, the batch is also recorded (see
    :class:`~repro.harness.engine.ExecutionEngine`).

    ``partial`` is graceful degradation for resilient engines: cells
    that exhaust their retry budget become *holes*, and every
    (collector, multiple) group containing one is dropped from the
    assembly exactly like an OOM group instead of failing the sweep.
    The return value grows a trailing list of
    :class:`~repro.harness.engine.Hole` — ``(assembled, holes)``, or
    ``(assembled, holes, stats)`` with ``return_stats`` — so callers see
    what is missing.  An LBO plan in which some benchmark kept no
    complete group then assembles to ``None`` instead of raising
    :class:`OutOfMemoryError`.  ``strict`` overrides ``partial``: the
    first failed or refused cell raises at once, as does an LBO plan
    with nothing to assemble, and the holes list stays empty.

    An engine with an enabled flight recorder upgrades the plan to full
    fidelity (the trace nests per-event GC slices, which aggregate
    results do not carry) — the same auto-upgrade
    :func:`~repro.jvm.simulator.simulate_run` applies when recording.

    ``supervisor`` attaches a :class:`~repro.resilience.Supervisor` to
    the engine for this run only: cells the budget, a tripped breaker,
    or a graceful drain refuses become typed holes — combine with
    ``partial`` unless a refusal should fail the sweep.  The engine's
    previous supervisor (or none) is restored when the run ends, also
    when it raises.
    """
    engine = engine if engine is not None else ExecutionEngine()
    previous = engine.supervisor if engine.supervised else None
    if supervisor is not None:
        engine.attach_supervisor(supervisor)
    if engine.recorder.enabled and plan.config.fidelity != FIDELITY_FULL:
        plan = replace(plan, config=replace(plan.config, fidelity=FIDELITY_FULL))
    before = dataclasses.replace(engine.stats)
    holes: List[Hole] = []
    try:
        if plan.kind == "minheap":
            assembled, holes = _run_minheap(plan, engine, strict=strict, partial=partial)
        else:
            if partial and not strict:
                batch = engine.run_cells(plan.cells(), partial=True)
                results: Sequence[Optional[CellResult]] = batch.results
                holes = batch.holes
            else:
                results = engine.run_cells(plan.cells())
            if plan.kind == "latency":
                assembled = _assemble_latency(plan, results, strict)
            else:
                try:
                    assembled = _assemble_lbo(plan, results)
                except OutOfMemoryError:
                    if strict or not partial:
                        raise
                    assembled = None
    finally:
        if supervisor is not None:
            engine.attach_supervisor(previous)
    out = [assembled]
    if partial:
        out.append(holes)
    if return_stats:
        out.append(engine.stats.minus(before))
    return out[0] if len(out) == 1 else tuple(out)


def _groups(plan: ExperimentPlan, results: Sequence[CellResult]):
    """Yield (spec, collector, multiple, [invocation results]) in plan order."""
    per_group = plan.config.invocations
    cursor = 0
    for spec in plan.specs:
        for collector in plan.collectors:
            for multiple in plan.multiples:
                group = results[cursor : cursor + per_group]
                cursor += per_group
                yield spec, collector, multiple, group


def _first_oom(group: Sequence[Optional[CellResult]]) -> Optional[str]:
    """The first (lowest-invocation) OOM message in a group, if any —
    the same failure the serial path would have raised."""
    for result in group:
        if result is not None and result.oom is not None:
            return result.oom
    return None


def _has_hole(group: Sequence[Optional[CellResult]]) -> bool:
    """True when a partial batch left a gap in this group — the group is
    then dropped from assembly exactly like an infeasible (OOM) group."""
    return any(result is None for result in group)


def _assemble_lbo(plan: ExperimentPlan, results: Sequence[CellResult]) -> SuiteLbo:
    per_group = plan.config.invocations
    per_spec = len(plan.collectors) * len(plan.multiples) * per_group
    per_benchmark: List[LboCurves] = []
    for spec_index, spec in enumerate(plan.specs):
        table: Dict[Tuple[str, float], List[RunCosts]] = {}
        cursor = spec_index * per_spec
        for collector in plan.collectors:
            for multiple in plan.multiples:
                group = results[cursor : cursor + per_group]
                cursor += per_group
                if not _has_hole(group) and _first_oom(group) is None:
                    table[(collector, multiple)] = [
                        costs_from_iteration(r.timed) for r in group
                    ]
        if not table:
            raise OutOfMemoryError(f"{spec.name}: no collector completed any heap size")
        per_benchmark.append(lbo_curves(spec.name, table))
    return SuiteLbo(
        per_benchmark=per_benchmark,
        geomean_wall=geomean_curves(per_benchmark, "wall"),
        geomean_task=geomean_curves(per_benchmark, "task"),
    )


def _assemble_latency(
    plan: ExperimentPlan, results: Sequence[CellResult], strict: bool
) -> List[LatencyRun]:
    runs: List[LatencyRun] = []
    for spec, collector, multiple, group in _groups(plan, results):
        oom = _first_oom(group)
        if oom is not None:
            if strict:
                raise OutOfMemoryError(oom)
            continue
        if _has_hole(group):
            continue  # partial mode drops gapped groups (strict raised earlier)
        timed = group[plan.replay_invocation % len(group)].timed
        events = _replayed_events(
            spec, collector, multiple, plan.replay_invocation, timed, plan.config
        )
        runs.append(
            LatencyRun(
                benchmark=spec.name,
                collector=collector,
                heap_multiple=multiple,
                events=events,
                report=latency_report(events),
            )
        )
    return runs


def _replayed_events(
    spec: WorkloadSpec,
    collector: str,
    multiple: float,
    invocation: int,
    timed,
    config: RunConfig,
) -> EventRecord:
    """Replay the request stream over one invocation's timeline.

    The single replay code path for grid assembly and adaptive latency
    campaigns — same seed derivation, same scaled-spec rule — which is
    what makes adaptive reports bit-identical to the fixed grid's at
    every measured point.  The seed carries the *full-precision*
    multiple (``repr(float)``): the old 3-decimal format made
    planner-refined multiples differing past 3 decimals share a replay
    stream (and collide in the content-addressed cache).
    """
    rng = generator_for(
        "latency", spec.name, collector, repr(float(multiple)), invocation
    )
    scaled = spec
    if config.duration_scale != 1.0:
        # Shrink the request stream with the iteration so workers stay
        # busy for the whole (scaled) run.
        scaled = _scaled_for_replay(spec, config.duration_scale)
    return replay(scaled, timed.require_timeline(), rng)


def _run_minheap(
    plan: ExperimentPlan,
    engine: ExecutionEngine,
    strict: bool,
    partial: bool,
) -> Tuple[List[MinHeapResult], List[Hole]]:
    """Drive the min-heap probe schedule through the engine.

    Each (workload, collector) pair advances the *same*
    :func:`~repro.core.minheap._min_heap_search` generator that
    :func:`~repro.core.minheap.find_min_heap` drives inline, but answers
    every probe with an engine cell at invocation 0 — cached, batched,
    supervised, resumable.  Identical schedule in, identical OOM frontier
    out: the reported minima are bit-identical to the legacy search, and
    a warm cache answers a repeat search with zero new simulations.

    Pairs whose upper bound fails are dropped (``strict`` re-raises the
    search's :class:`OutOfMemoryError` instead); in ``partial`` mode,
    unless ``strict``, a holed probe aborts that pair's search — a
    search cannot continue past an unanswered probe — and the pair is
    dropped with its holes reported.
    """
    results: List[MinHeapResult] = []
    holes: List[Hole] = []
    iterations = plan.config.iterations if plan.config.iterations is not None else 1
    for spec in plan.specs:
        for collector in plan.collectors:
            search = _min_heap_search(
                spec, collector, plan.tolerance, None, plan.probes
            )
            fits: Optional[List[bool]] = None
            while True:
                try:
                    heap_mbs = next(search) if fits is None else search.send(fits)
                except StopIteration as stop:
                    results.append(
                        MinHeapResult(
                            benchmark=spec.name,
                            collector=collector,
                            min_heap_mb=stop.value,
                            iterations=iterations,
                        )
                    )
                    break
                except OutOfMemoryError:
                    if strict:
                        raise
                    break  # infeasible even at the upper bound: drop the pair
                cells = [
                    Cell(
                        spec=spec,
                        collector=collector,
                        heap_mb=heap_mb,
                        invocation=0,
                        config=plan.config,
                    )
                    for heap_mb in heap_mbs
                ]
                if partial and not strict:
                    batch = engine.run_cells(cells, partial=True)
                    if batch.holes:
                        holes.extend(batch.holes)
                        break  # the search cannot continue past a hole
                    fits = [r.oom is None for r in batch.results]
                else:
                    fits = [r.oom is None for r in engine.run_cells(cells)]
    return results, holes


# ----------------------------------------------------------------------
# Adaptive planning: spend cells where the answer is.


@dataclass(frozen=True)
class AdaptivePlan:
    """An adaptive sweep: the fixed grid it prunes, plus planner knobs.

    ``grid`` is the :class:`ExperimentPlan` the planner treats as its
    candidate universe — the planner only ever proposes cells *of the
    grid* (same spec, collector, ``heap_mb_for(multiple)``, invocation,
    config), which is what makes every executed cell bit-identical to
    the fixed-grid run and lets warm caches serve either.  ``cell_budget``
    is the hard ceiling on executed cells (default: half the grid);
    ``target_ci`` the relative CI half-width at which refinement stops
    (0.0 never stops early: endpoints refine to the grid's invocation
    count, which is how the CI smoke reproduces grid crossovers
    exactly); ``seed`` feeds the policy tie-break.
    """

    grid: ExperimentPlan
    cell_budget: int
    target_ci: float = 0.05
    seed: int = 0
    flat_threshold: float = 0.05
    max_rounds: int = 64
    tail_threshold: float = 0.05

    def __post_init__(self) -> None:
        if not self.grid.multiples:
            raise ValueError(
                "adaptive planning needs a candidate multiple grid; "
                "dynamic min-heap plans have none"
            )
        if self.cell_budget < 1:
            raise ValueError(f"cell budget must be at least 1, got {self.cell_budget}")
        if self.target_ci < 0:
            raise ValueError(f"target_ci must be non-negative, got {self.target_ci}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")

    @property
    def grid_cells(self) -> int:
        """Size of the fixed grid the planner is pruning."""
        return self.grid.cell_count


@dataclass(frozen=True)
class AdaptiveRound:
    """One propose → execute → refit round of :func:`run_adaptive`."""

    index: int
    proposed: int
    executed: int
    budget_left: int
    reasons: Tuple[Tuple[str, int], ...]
    estimated_cost_s: float = 0.0

    def reason_summary(self) -> str:
        """Compact ``reason:count`` line (``"scout:15 bisect:4"``)."""
        return " ".join(f"{reason}:{count}" for reason, count in self.reasons)


@dataclass(frozen=True)
class AdaptiveResult:
    """What an adaptive sweep learned, and what it cost.

    ``crossovers`` maps ``(benchmark, collector_a, collector_b)`` (pair
    in plan order) to the heap multiples where the two mean-cost curves
    cross — the baseline-independent quantity LBO crossovers reduce to.
    ``grades`` carries the final :class:`~repro.planner.CellGrade` per
    measured point; ``ranking`` the gmean
    :class:`~repro.planner.CollectorScore` order (best first) over
    collectors rankable in *every* workload, with the rest in
    ``unranked``.  ``schedule`` is the executed cell keys in execution
    order — the byte-identical artifact the determinism tests pin.

    Non-LBO campaigns fill their own answer fields instead of
    ``crossovers``/``ranking``: ``reports`` maps ``(benchmark,
    collector, multiple)`` to a graded :class:`LatencyReport` whose
    percentile numbers are bit-identical to the fixed grid's at every
    measured point (``kind="latency"``); ``min_multiples`` maps
    ``(benchmark, collector)`` to the smallest feasible grid multiple —
    exactly the full grid's answer (``kind="minheap"``).
    """

    plan: AdaptivePlan
    rounds: Tuple[AdaptiveRound, ...]
    grades: Dict[Tuple[str, str, float], "CellGrade"]
    crossovers: Dict[Tuple[str, str, str], Tuple[float, ...]]
    ranking: Tuple["CollectorScore", ...]
    unranked: Tuple[str, ...]
    schedule: Tuple[str, ...]
    cells_executed: int
    grid_cells: int
    reports: Dict[Tuple[str, str, float], LatencyReport] = dataclasses.field(
        default_factory=dict
    )
    min_multiples: Dict[Tuple[str, str], float] = dataclasses.field(
        default_factory=dict
    )

    @property
    def savings(self) -> float:
        """Fraction of the fixed grid the planner did not execute."""
        return 1.0 - self.cells_executed / self.grid_cells


def plan_adaptive(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    config: RunConfig = DEFAULT_CONFIG,
    cell_budget: Optional[int] = None,
    target_ci: float = 0.05,
    seed: int = 0,
    flat_threshold: float = 0.05,
    max_rounds: int = 64,
    kind: str = "lbo",
    tail_threshold: float = 0.05,
) -> AdaptivePlan:
    """Plan an adaptive campaign over the standard fixed grid.

    ``kind`` selects the campaign family — ``"lbo"`` bisects toward
    crossovers, ``"latency"`` refines points whose metered tail is still
    moving (``tail_threshold``), ``"minheap"`` bisects each collector's
    OOM frontier to the smallest feasible grid multiple.  The default
    budget is half the grid — the planner must earn its keep — and
    :func:`run_adaptive` stops earlier the moment every workload
    settles.  The candidate grid resolves fidelity exactly like the
    corresponding fixed plan (:func:`plan_lbo`, :func:`plan_latency`,
    :func:`plan_minheap`), so adaptive and fixed cells share cache keys.
    """
    if kind == "lbo":
        grid = plan_lbo(specs, collectors, multiples, config)
    elif kind == "latency":
        grid = plan_latency(specs, collectors, multiples, config)
    elif kind == "minheap":
        grid = plan_minheap(specs, collectors, config, multiples=multiples)
    else:
        raise ValueError(f"unknown plan kind {kind!r}; choose from {PLAN_KINDS}")
    if cell_budget is None:
        cell_budget = (grid.cell_count + 1) // 2
    return AdaptivePlan(
        grid=grid,
        cell_budget=cell_budget,
        target_ci=target_ci,
        seed=seed,
        flat_threshold=flat_threshold,
        max_rounds=max_rounds,
        tail_threshold=tail_threshold,
    )


def _adaptive_rows(
    take: Sequence["Proposal"], plan: AdaptivePlan
) -> Tuple[List[Cell], List["Proposal"]]:
    """Group one round's admitted proposals into (workload, collector)
    rows — the same shared-model structure :meth:`ExperimentPlan.rows`
    gives the batch kernel — and build their grid cells."""
    by_spec = {spec.name: spec for spec in plan.grid.specs}
    row_order: List[Tuple[str, str]] = []
    rows: Dict[Tuple[str, str], List["Proposal"]] = {}
    for proposal in take:
        key = (proposal.benchmark, proposal.collector)
        if key not in rows:
            rows[key] = []
            row_order.append(key)
        rows[key].append(proposal)
    cells: List[Cell] = []
    ordered: List["Proposal"] = []
    for key in row_order:
        for proposal in rows[key]:
            spec = by_spec[proposal.benchmark]
            cells.append(
                Cell(
                    spec=spec,
                    collector=proposal.collector,
                    heap_mb=spec.heap_mb_for(proposal.multiple),
                    invocation=proposal.invocation,
                    config=plan.grid.config,
                )
            )
            ordered.append(proposal)
    return cells, ordered


def run_adaptive(
    plan: AdaptivePlan,
    engine: Optional[ExecutionEngine] = None,
    cost_model=None,
) -> AdaptiveResult:
    """Drive the adaptive loop: propose → execute → refit until settled.

    Dispatches on the grid's campaign kind: LBO grids run the
    crossover-hunting policy below, latency grids the tail-refinement
    policy (:class:`~repro.planner.LatencyPlanner`), min-heap grids the
    frontier bisection (:class:`~repro.planner.MinHeapPlanner`) — all
    three share the same round loop, budget, grading, and recorder
    contract.

    Each round collects every workload's proposals, admits the best
    ``budget_left`` of them (priority order, seeded tie-break), runs
    them through the engine — cache, batch kernel, supervisor, and
    recorder all compose exactly as for :func:`run_plan` — and feeds the
    results back into the planners.  The loop ends when every planner
    is settled, the budget is spent, or ``max_rounds`` passes.

    ``cost_model`` is an optional (typically
    :meth:`~repro.resilience.CostModel.load`-ed) EWMA model used to
    annotate rounds with an estimated wall-clock price; it never
    influences which cells run, so schedules are machine-independent.

    If the engine carries an enabled flight recorder the sweep is
    upgraded to full fidelity (mirroring :func:`run_plan`) and every
    round emits a :class:`~repro.observability.PlannerRound` instant
    plus one :class:`~repro.observability.CellGraded` per point whose
    grade changed, all on round-counted timestamps.
    """
    from repro.planner import (
        Planner,
        baseline_for,
        crossover_points,
        family_components,
        score_collector,
    )
    from repro.core.stats import geometric_mean

    engine = engine if engine is not None else ExecutionEngine()
    grid = plan.grid
    if engine.recorder.enabled and grid.config.fidelity != FIDELITY_FULL:
        grid = replace(grid, config=replace(grid.config, fidelity=FIDELITY_FULL))
        plan = replace(plan, grid=grid)
    if grid.kind == "latency":
        return _run_adaptive_latency(plan, engine, cost_model)
    if grid.kind == "minheap":
        return _run_adaptive_minheap(plan, engine, cost_model)
    planners = {
        spec.name: Planner(
            spec,
            grid.collectors,
            grid.multiples,
            grid.config,
            target_ci=plan.target_ci,
            seed=plan.seed,
            flat_threshold=plan.flat_threshold,
        )
        for spec in grid.specs
    }
    rounds, schedule, grades = _campaign_rounds(
        plan, engine, cost_model, planners, _observe, _wall_samples
    )
    # Refit once more and assemble crossovers plus the gmean ranking.
    crossovers: Dict[Tuple[str, str, str], Tuple[float, ...]] = {}
    per_spec_components: Dict[str, Dict[str, Dict[str, float]]] = {}
    for spec in grid.specs:
        models = planners[spec.name].models()
        for i, a in enumerate(grid.collectors):
            for b in grid.collectors[i + 1 :]:
                points = crossover_points(models[a].series(), models[b].series())
                if points:
                    crossovers[(spec.name, a, b)] = points
        baseline = baseline_for(list(models.values()))
        if baseline is None:
            continue
        for collector in grid.collectors:
            components = family_components(models[collector], baseline)
            if components is not None:
                per_spec_components.setdefault(collector, {})[spec.name] = components
    ranking = []
    unranked = []
    names = [spec.name for spec in grid.specs]
    for collector in grid.collectors:
        per_spec = per_spec_components.get(collector, {})
        if len(per_spec) != len(names):
            # Like the paper's geomean rule: a collector that could not
            # run some workload at any measured heap size has no honest
            # suite-wide score.
            unranked.append(collector)
            continue
        folded = {
            key: geometric_mean([per_spec[name][key] for name in names])
            for key in ("wall_overhead", "cpu_overhead", "space_cost", "instability")
        }
        ranking.append(
            score_collector(
                collector,
                wall_overhead=folded["wall_overhead"],
                cpu_overhead=folded["cpu_overhead"],
                space_cost=folded["space_cost"],
                instability=folded["instability"],
            )
        )
    ranking.sort(key=lambda s: (s.single_value(), s.collector))
    return AdaptiveResult(
        plan=plan,
        rounds=tuple(rounds),
        grades=grades,
        crossovers=crossovers,
        ranking=tuple(ranking),
        unranked=tuple(unranked),
        schedule=tuple(schedule),
        cells_executed=len(schedule),
        grid_cells=plan.grid_cells,
    )


def _observe(planner, proposal, result) -> None:
    """Fold one executed cell into its LBO or min-heap planner."""
    planner.observe(proposal.collector, proposal.multiple, result)


def _wall_samples(planner, collector: str, multiple: float):
    """The wall-time samples an LBO or min-heap point is graded over."""
    return planner.wall_samples(collector, multiple)


def _campaign_rounds(plan, engine, cost_model, planners, observe, samples_for):
    """The propose → execute → observe loop every adaptive campaign runs.

    Each round does budget admission by ``sort_key``, row grouping,
    schedule capture, reason counts, cost annotation, CV grading of
    touched points, and recorder emits, with the campaign-specific
    pieces injected: ``observe(planner, proposal, result)`` folds a cell
    into its planner, ``samples_for(planner, collector, multiple)``
    yields the samples a grade is computed over.
    """
    from repro.observability import CellGraded, PlannerRound
    from repro.planner import grade_cell, predict_cost

    grid = plan.grid
    budget_left = plan.cell_budget
    schedule: List[str] = []
    rounds: List[AdaptiveRound] = []
    grades: Dict[Tuple[str, str, float], "CellGrade"] = {}
    for round_index in range(plan.max_rounds):
        if budget_left <= 0:
            break
        proposals: List["Proposal"] = []
        for spec in grid.specs:
            proposals.extend(planners[spec.name].propose())
        if not proposals:
            break
        take = sorted(proposals, key=lambda p: p.sort_key)[:budget_left]
        cells, ordered = _adaptive_rows(take, plan)
        results = engine.run_cells(cells)
        for proposal, result in zip(ordered, results):
            observe(planners[proposal.benchmark], proposal, result)
            schedule.append(result.key)
        budget_left -= len(ordered)
        reason_counts: Dict[str, int] = {}
        for proposal in ordered:
            reason_counts[proposal.reason] = reason_counts.get(proposal.reason, 0) + 1
        estimated = sum(
            predict_cost(cost_model, p.benchmark, p.collector) for p in ordered
        )
        round_record = AdaptiveRound(
            index=round_index,
            proposed=len(proposals),
            executed=len(ordered),
            budget_left=budget_left,
            reasons=tuple(sorted(reason_counts.items())),
            estimated_cost_s=estimated,
        )
        rounds.append(round_record)
        touched = sorted({(p.benchmark, p.collector, p.multiple) for p in ordered})
        for benchmark, collector, multiple in touched:
            planner = planners[benchmark]
            grade = grade_cell(
                benchmark,
                collector,
                multiple,
                samples_for(planner, collector, multiple),
                oom=multiple in planner.ooms.get(collector, ()),
            )
            grades[(benchmark, collector, multiple)] = grade
            if engine.recorder.enabled:
                engine.recorder.emit(
                    CellGraded(
                        ts=float(round_index),
                        benchmark=benchmark,
                        collector=collector,
                        heap_multiple=multiple,
                        score=grade.score,
                        grade=grade.grade,
                        cv=grade.cv,
                        samples=grade.samples,
                    )
                )
        if engine.recorder.enabled:
            engine.recorder.emit(
                PlannerRound(
                    ts=float(round_index),
                    index=round_index,
                    proposed=round_record.proposed,
                    executed=round_record.executed,
                    budget_left=round_record.budget_left,
                    reasons=round_record.reason_summary(),
                )
            )
    return rounds, schedule, grades


def _tail_summary(
    spec: WorkloadSpec,
    collector: str,
    multiple: float,
    invocation: int,
    timed,
    config: RunConfig,
) -> float:
    """One invocation's tail scalar: the worst of metered p99/p99.9
    across every smoothing window — the quantity whose round-to-round
    movement the latency policy watches."""
    report = latency_report(
        _replayed_events(spec, collector, multiple, invocation, timed, config)
    )
    return max(
        max(ladder[99.0], ladder[99.9]) for ladder in report.metered.values()
    )


def _run_adaptive_latency(
    plan: AdaptivePlan, engine: ExecutionEngine, cost_model
) -> AdaptiveResult:
    """Adaptive metered-latency campaign: refine while the tail moves.

    Every proposed cell is a grid cell, so executed cells are
    bit-identical to the fixed grid run; final reports replay the grid's
    ``replay_invocation`` through the same :func:`_replayed_events` path
    as :func:`_assemble_latency`, so every measured point's percentile
    numbers are bit-identical to the grid's — the campaign merely
    *skips* points (and invocations) whose tails settled early, and
    folds the per-invocation tail CV grade into each report.
    """
    from repro.planner import LatencyPlanner

    grid = plan.grid
    by_spec = {spec.name: spec for spec in grid.specs}
    planners = {
        spec.name: LatencyPlanner(
            spec,
            grid.collectors,
            grid.multiples,
            grid.config,
            tail_threshold=plan.tail_threshold,
            seed=plan.seed,
        )
        for spec in grid.specs
    }
    replayable: Dict[Tuple[str, str, float], CellResult] = {}

    def observe(planner, proposal, result):
        if result.oom is not None:
            planner.observe(proposal.collector, proposal.multiple, result)
            return
        tail = _tail_summary(
            by_spec[proposal.benchmark],
            proposal.collector,
            proposal.multiple,
            proposal.invocation,
            result.timed,
            grid.config,
        )
        planner.observe(proposal.collector, proposal.multiple, result, tail=tail)
        if proposal.invocation == grid.replay_invocation:
            key = (proposal.benchmark, proposal.collector, proposal.multiple)
            replayable[key] = result

    rounds, schedule, grades = _campaign_rounds(
        plan, engine, cost_model, planners, observe,
        lambda planner, collector, multiple: planner.tail_samples(collector, multiple),
    )
    reports: Dict[Tuple[str, str, float], LatencyReport] = {}
    for key in sorted(replayable):
        benchmark, collector, multiple = key
        spec = by_spec[benchmark]
        events = _replayed_events(
            spec, collector, multiple, grid.replay_invocation,
            replayable[key].timed, grid.config,
        )
        report = latency_report(events)
        grade = grades.get(key)
        reports[key] = report if grade is None else report.with_grade(grade)
    return AdaptiveResult(
        plan=plan,
        rounds=tuple(rounds),
        grades=grades,
        crossovers={},
        ranking=(),
        unranked=(),
        schedule=tuple(schedule),
        cells_executed=len(schedule),
        grid_cells=plan.grid_cells,
        reports=reports,
    )


def _run_adaptive_minheap(
    plan: AdaptivePlan, engine: ExecutionEngine, cost_model
) -> AdaptiveResult:
    """Adaptive min-heap campaign: bisect each collector's OOM frontier.

    The answer — the smallest feasible grid multiple per (workload,
    collector) — is *exact* against the full grid (feasibility is
    monotone in heap size), reached with one invocation per probed point
    while the grid budgets ``config.invocations`` per point.
    """
    from repro.planner import MinHeapPlanner

    grid = plan.grid
    planners = {
        spec.name: MinHeapPlanner(
            spec, grid.collectors, grid.multiples, grid.config, seed=plan.seed
        )
        for spec in grid.specs
    }

    rounds, schedule, grades = _campaign_rounds(
        plan, engine, cost_model, planners, _observe, _wall_samples
    )
    min_multiples: Dict[Tuple[str, str], float] = {}
    for spec in grid.specs:
        for collector, multiple in sorted(planners[spec.name].min_multiples().items()):
            min_multiples[(spec.name, collector)] = multiple
    return AdaptiveResult(
        plan=plan,
        rounds=tuple(rounds),
        grades=grades,
        crossovers={},
        ranking=(),
        unranked=(),
        schedule=tuple(schedule),
        cells_executed=len(schedule),
        grid_cells=plan.grid_cells,
        min_multiples=min_multiples,
    )


#: Heap-factor tolerance within which adaptive crossovers must agree
#: with the fixed grid's (asserted by the CI planner smoke).  Crossovers
#: are interpolated between adjacent grid multiples, so an adaptive run
#: that leaves a bracket endpoint at fewer invocations than the grid can
#: shift the interpolation by a fraction of one grid step; a quarter of
#: a heap factor bounds that comfortably at the default grids.
PLAN_CROSSOVER_TOLERANCE = 0.25


def grid_crossovers(
    grid: ExperimentPlan, engine: Optional[ExecutionEngine] = None
) -> Dict[Tuple[str, str, str], Tuple[float, ...]]:
    """Fixed-grid crossover ground truth for an LBO plan.

    Runs the *whole* grid and interpolates where each collector pair's
    mean wall-cost curves cross — the same baseline-independent
    computation :func:`run_adaptive` applies to its subset, so the two
    are directly comparable (CI smoke, determinism tests).  OOM groups
    drop exactly as LBO assembly drops them.
    """
    from repro.planner import crossover_points

    if grid.kind != "lbo":
        raise ValueError("crossovers are defined for LBO plans only")
    engine = engine if engine is not None else ExecutionEngine()
    results = engine.run_cells(grid.cells())
    crossovers: Dict[Tuple[str, str, str], Tuple[float, ...]] = {}
    per_group = grid.config.invocations
    cursor = 0
    for spec in grid.specs:
        series: Dict[str, List[Tuple[float, float]]] = {}
        for collector in grid.collectors:
            for multiple in grid.multiples:
                group = results[cursor : cursor + per_group]
                cursor += per_group
                if _first_oom(group) is None:
                    walls = [costs_from_iteration(r.timed).wall_s for r in group]
                    series.setdefault(collector, []).append(
                        (multiple, sum(walls) / len(walls))
                    )
        for i, a in enumerate(grid.collectors):
            for b in grid.collectors[i + 1 :]:
                points = crossover_points(series.get(a, ()), series.get(b, ()))
                if points:
                    crossovers[(spec.name, a, b)] = points
    return crossovers


def _scaled_for_replay(spec: WorkloadSpec, duration_scale: float) -> WorkloadSpec:
    """Shrink the request stream and execution time together so that the
    per-request mean service time matches the full-size run.

    The request count is floored at 64 so percentile reports stay
    meaningful; execution time scales by the *achieved* count ratio, not
    ``duration_scale`` itself, so the mean service time is preserved
    exactly even when the floor binds.
    """
    count = max(64, int(spec.requests.count * duration_scale))
    profile = replace(spec.requests, count=count)
    return replace(
        spec,
        requests=profile,
        execution_time_s=spec.execution_time_s * count / spec.requests.count,
    )
