"""The sweep daemon behind ``chopin serve``: HTTP front, worker back.

:class:`SweepService` wires the other three modules together into the
PKB-style stage pipeline the ROADMAP asks for:

- **admit** — ``POST /jobs`` validates a :class:`~.jobqueue.JobSpec`
  (unknown workloads and collectors are 400s with the same messages the
  CLI prints) and enqueues it on the journaled :class:`~.jobqueue.JobQueue`;
- **prepare** — a worker thread claims the job and compiles it to the
  same plan the one-shot CLI builds for its ``kind`` (``chopin lbo`` /
  ``latency`` / ``minheap``), with the same auto-fidelity resolution;
- **run** — the plan executes through
  :func:`~repro.harness.experiments.run_campaign` on the worker's
  :class:`~repro.harness.engine.ExecutionEngine`, every worker sharing
  one :class:`~.shards.ShardedResultCache`.  Each job gets its **own**
  :class:`~repro.resilience.Supervisor`, which is what turns deadline
  budgets (``budget_s`` in the spec) and cancellation into per-job
  admission control: refused cells surface as typed holes in the status
  payload instead of failing the job;
- **cleanup** — the terminal state (``DONE`` / ``PARTIAL`` / ``FAILED``
  / ``CANCELLED``), holes, engine-stats delta, and the fully rendered
  result tables are journalled, so a restarted service still serves
  ``GET /jobs/<id>/result``.

The HTTP layer is stdlib :class:`~http.server.ThreadingHTTPServer` —
JSON in, JSON out, no new dependencies.  Endpoints::

    POST /jobs            submit a job spec            → 202 {id, state}
                          (503 + Retry-After past the queue high-water
                          mark; an ``Idempotency-Key`` header dedupes
                          client-side submit retries)
    GET  /jobs            list every known job
    GET  /jobs/<id>       status (state, holes, stats)
    GET  /jobs/<id>/result terminal payload (409 while non-terminal)
    POST /jobs/<id>/cancel queued → CANCELLED; running → drain
    GET  /health          the health state machine: healthy / degraded /
                          draining, with reasons, plus queue + cache counters
    GET  /livez           process liveness (always 200 while serving)
    GET  /readyz          admission readiness (503 when draining/saturated)
    GET  /metrics         the service MetricsRegistry, one line per metric

Hardening (see the README runbook): every RUNNING job holds a
``lease_s`` lease its worker renews per completed cell; a reaper thread
requeues jobs whose lease expired — the worker thread died or hung —
and dead-letters a job after ``max_requeues`` expiries.  Claim epochs
fence stale workers: a worker that hung past its lease cannot clobber
the requeued run's result.  An uncaught exception in a worker is
contained — the job fails with a structured payload, the
``service.worker_crashes`` counter increments, and the worker is
respawned instead of silently shrinking the pool.

Bit-identity contract: the worker path and the one-shot CLI make the
*same* :func:`~repro.harness.experiments.run_campaign` call for every
kind, and the stored ``rendered`` text comes from the same
:meth:`~repro.harness.experiments.Campaign.rendered` — so ``chopin
result`` output is byte-identical to ``chopin lbo`` / ``latency`` /
``minheap``, and a resubmitted sweep against a warm service cache runs
zero simulations.

The default ``workers=1`` is deliberate admission control, not a
limitation: overlapping jobs serialize through the queue, so two clients
sweeping intersecting grids never simulate a shared cell twice — the
second job warm-hits everything the first computed.

Unlike every other recorder timestamp in this codebase (simulated
seconds), service events (:class:`~repro.observability.events.JobSpan`,
:class:`~repro.observability.events.QueueDepth`) are stamped in wall
seconds since service start — a queue is a real-time phenomenon, and
job latency in wall time is exactly what the operator wants on the
service track.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple, Union

from repro.harness.config import HarnessConfig, engine_from_config
from repro.harness.engine import ExecutionEngine, Hole, ProgressSink
from repro.harness.experiments import run_campaign
from repro.harness.runner import RunConfig
from repro.jvm.telemetry import FIDELITY_AGGREGATE
from repro.jvm.collectors import COLLECTOR_NAMES, UnknownCollectorError, resolve_collector
from repro.observability import MetricsRegistry, RecorderLike
from repro.observability.events import (
    JobReaped,
    JobSpan,
    NullRecorder,
    QueueDepth,
    WorkerCrashed,
)
from repro.resilience import CostModel, Supervisor
from repro.resilience.faults import NullServiceInjector, ServiceWorkerDeath
from repro.service.jobqueue import Job, JobQueue, JobSpec, JobStateError
from repro.service.shards import ShardedResultCache
from repro.workloads import registry

#: Rotate the job journal once the active file reaches this size.
JOURNAL_ROTATE_BYTES = 4 << 20

#: Largest accepted request body (a job spec is a few hundred bytes;
#: anything near this is abuse, not a sweep).
MAX_BODY_BYTES = 1 << 20

#: Per-request socket timeout: a stalled client cannot pin a handler
#: thread (and its connection) forever.
REQUEST_TIMEOUT_S = 30.0

#: The health state machine (see :meth:`SweepService.health_state`).
HEALTH_STATES = ("healthy", "degraded", "draining")


def _curves_payload(curves) -> dict:
    """A JSON round-trippable form of :class:`~repro.core.lbo.LboCurves`.

    ``json`` round-trips Python floats exactly (repr-based), so the
    structured curves carry the same doubles the in-process objects do.
    """
    def side(source) -> Dict[str, List[dict]]:
        return {
            collector: [
                {
                    "heap_multiple": p.heap_multiple,
                    "mean": p.overhead.mean,
                    "half_width": p.overhead.half_width,
                    "n": p.overhead.n,
                }
                for p in points
            ]
            for collector, points in sorted(source.items())
        }

    return {
        "benchmark": curves.benchmark,
        "baseline_wall_s": curves.baseline_wall_s,
        "baseline_task_s": curves.baseline_task_s,
        "wall": side(curves.wall),
        "task": side(curves.task),
    }


def _reports_payload(runs) -> List[dict]:
    """A JSON round-trippable form of a latency campaign's runs.

    Percentile ladders are keyed by ``repr``-style floats (JSON object
    keys are strings); ``json`` round-trips the values exactly.
    """
    return [
        {
            "benchmark": run.benchmark,
            "collector": run.collector,
            "heap_multiple": run.heap_multiple,
            "simple": {f"{q:g}": v for q, v in sorted(run.report.simple.items())},
            "metered": {
                "full" if window is None else f"{window:g}": {
                    f"{q:g}": v for q, v in sorted(ladder.items())
                }
                for window, ladder in sorted(
                    run.report.metered.items(),
                    key=lambda kv: (kv[0] is None, kv[0]),
                )
            },
            "event_count": run.report.event_count,
        }
        for run in runs
    ]


def _minheap_payload(results) -> List[dict]:
    """A JSON round-trippable form of a min-heap campaign's results."""
    return [
        {
            "benchmark": r.benchmark,
            "collector": r.collector,
            "min_heap_mb": r.min_heap_mb,
            "iterations": r.iterations,
        }
        for r in results
    ]


def _hole_payload(hole: Hole) -> dict:
    cell = hole.cell
    return {
        "key": hole.key,
        "reason": hole.reason,
        "detail": hole.error,
        "attempts": hole.attempts,
        "benchmark": cell.spec.name,
        "collector": cell.collector,
        "heap_mb": cell.heap_mb,
        "invocation": cell.invocation,
    }


def _stats_payload(stats) -> dict:
    return {
        "executed": stats.executed,
        "cached": stats.cached,
        "negative_hits": stats.negative_hits,
        "oom": stats.oom,
        "corrupt": stats.corrupt,
        "gave_up": stats.gave_up,
        "budget_skipped": stats.budget_skipped,
        "breaker_skipped": stats.breaker_skipped,
        "drained": stats.drained,
        "execute_s": stats.execute_s,
    }


class _JobProgressSink(ProgressSink):
    """The lease-heartbeat hook: renews the job's lease per completed cell.

    Wrapping the engine's progress sink (instead of running a renewal
    thread) is deliberate: a worker that stops completing cells — hung
    simulation, deadlocked pool — stops renewing, so its lease genuinely
    expires and the reaper recovers the job.  A background renewal
    thread would keep a hung worker's lease alive forever.

    The service fault injector hooks in here too: ``worker_death``
    raises :class:`~repro.resilience.faults.ServiceWorkerDeath` after a
    seeded number of cells, and ``heartbeat_stall`` stops renewing after
    the first cell and blocks until the reaper takes the lease away —
    modelling a worker that hangs past its lease and then wakes up.
    """

    def __init__(
        self,
        service: "SweepService",
        job: Job,
        epoch: Optional[int],
        inner: Optional[ProgressSink] = None,
    ) -> None:
        self.service = service
        self.job = job
        self.epoch = epoch
        self.inner = inner
        self._count = 0
        self._death_at: Optional[int] = None
        injector = service.injector
        self._stalled = injector.enabled and injector.stalls(job.id)

    def batch_started(self, total_cells: int) -> None:
        if self.inner is not None:
            self.inner.batch_started(total_cells)
        injector = self.service.injector
        if injector.enabled and self._death_at is None:
            self._death_at = injector.death_cell(self.job.id, total_cells)

    def cell_finished(self, cell, result, from_cache: bool) -> None:
        if self.inner is not None:
            self.inner.cell_finished(cell, result, from_cache)
        self._tick()

    def cell_failed(self, cell, hole) -> None:
        if self.inner is not None:
            self.inner.cell_failed(cell, hole)
        self._tick()

    def batch_finished(self, stats) -> None:
        if self.inner is not None:
            self.inner.batch_finished(stats)

    def _tick(self) -> None:
        self._count += 1
        if self._death_at is not None and self._count >= self._death_at:
            self._death_at = None  # fire once per execution
            raise ServiceWorkerDeath(
                f"injected worker death after {self._count} cell(s) of {self.job.id}"
            )
        if self._stalled:
            self._stalled = False  # hold once, never renew again
            self._hold_until_reaped()
            return
        self.service.heartbeat(self.job, self.epoch)

    def _hold_until_reaped(self) -> None:
        """Simulate a hung worker: block (renewing nothing) until the
        reaper requeues the job, then resume — the rest of the run is
        the stale execution the epoch fence must discard."""
        queue = self.service.queue
        deadline = time.monotonic() + 20.0 * queue.lease_s
        while time.monotonic() < deadline:
            current = queue.get(self.job.id)
            if current.state != "RUNNING" or (
                self.epoch is not None and current.claim_epoch != self.epoch
            ):
                return
            time.sleep(min(0.05, queue.lease_s / 10.0))


class ServiceWorker:
    """One worker thread's execution half: claim → compile → run → record.

    Split out of :class:`SweepService` (and given its own engine — the
    shared state between workers is the result cache plus the
    service's thread-safe :class:`CostModel`, nothing else) so tests
    can drive :meth:`execute` synchronously, e.g. cancelling a job from
    a progress callback halfway through its sweep.

    ``current`` holds the ``(job, claim_epoch)`` pair being executed; on
    an uncaught exception it stays set so the service's crash
    containment (:meth:`SweepService._worker_loop`) can fail the job the
    dead worker was holding.
    """

    def __init__(self, service: "SweepService", engine: ExecutionEngine) -> None:
        self.service = service
        self.engine = engine
        self.current: Optional[Tuple[Job, int]] = None

    def run(self) -> None:
        """The worker loop: claim jobs until the queue closes."""
        while True:
            job = self.service.queue.claim()
            if job is None:
                return
            self.current = (job, job.claim_epoch)
            self.execute(job, epoch=job.claim_epoch)
            self.current = None

    def execute(self, job: Job, epoch: Optional[int] = None) -> None:
        """Run one claimed job to its terminal state, journalled."""
        service = self.service
        started = service.clock()
        # The job's own budget wins; the service config's budget and
        # breaker threshold are the per-job defaults `chopin serve
        # --budget/--breaker-threshold` set for every tenant.
        budget_s = job.spec.budget_s
        if budget_s is None:
            budget_s = service.config.budget_s
        supervisor = Supervisor(
            budget_s=budget_s,
            breaker_threshold=service.config.breaker_threshold,
            cost_model=service.cost_model,
        )
        service.job_started(job, supervisor)
        sink = _JobProgressSink(service, job, epoch, inner=self.engine.progress)
        previous_sink = self.engine.progress
        self.engine.progress = sink
        try:
            spec = registry.workload(job.spec.benchmark)
            collectors = job.spec.collectors or tuple(COLLECTOR_NAMES)
            config = RunConfig(
                invocations=job.spec.invocations,
                duration_scale=job.spec.scale,
                fidelity=job.spec.fidelity,
            )
            campaign = run_campaign(
                job.spec.kind,
                spec,
                collectors=collectors,
                multiples=job.spec.multiples or None,
                config=config,
                engine=self.engine,
                supervisor=supervisor,
            )
        except Exception as exc:
            service.job_finished(
                job,
                "FAILED",
                error=f"{type(exc).__name__}: {exc}",
                failure={
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "worker": threading.current_thread().name,
                },
                started=started,
                epoch=epoch,
            )
            return
        finally:
            self.engine.progress = previous_sink
        holes = [_hole_payload(h) for h in campaign.holes]
        result = None
        if not campaign.empty:
            # `rendered` is byte-identical to the one-shot CLI's stdout
            # for the same campaign (`chopin lbo` / `latency` / `minheap`).
            result = {"rendered": campaign.rendered()}
            if campaign.kind == "lbo":
                result["curves"] = _curves_payload(campaign.result.per_benchmark[0])
            elif campaign.kind == "latency":
                result["reports"] = _reports_payload(campaign.result)
            else:
                result["results"] = _minheap_payload(campaign.result)
        if job.cancel_requested:
            state, error = "CANCELLED", "cancelled mid-sweep"
        elif campaign.empty:
            state, error = "FAILED", campaign.empty_reason
        elif holes:
            state, error = "PARTIAL", None
        else:
            state, error = "DONE", None
        service.job_finished(
            job,
            state,
            error=error,
            cells=campaign.cells,
            holes=holes,
            stats=_stats_payload(campaign.stats),
            result=result,
            started=started,
            epoch=epoch,
        )


class SweepService:
    """The long-running sweep service: HTTP API + job queue + workers.

    ``state_dir`` holds the service's durable state: the job journal
    (``jobs.jsonl``) and, unless the config names a cache directory, the
    shared result cache (``cache/``).  ``port=0`` binds an
    ephemeral port (read :attr:`port` after :meth:`start` — how the
    tests run hermetically).  ``workers`` sizes the execution pool; the
    default 1 serializes jobs (see the module docstring for why that is
    the multi-tenant-dedup guarantee).
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        config: Optional[HarnessConfig] = None,
        cache: Optional[ShardedResultCache] = None,
        recorder: Optional[RecorderLike] = None,
        stream: Optional[TextIO] = None,
        injector: Optional[NullServiceInjector] = None,
        rotate_bytes: Optional[int] = JOURNAL_ROTATE_BYTES,
    ) -> None:
        if workers < 1:
            raise ValueError(f"service needs at least one worker, got {workers}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = port
        self.workers = workers
        self.config = config if config is not None else HarnessConfig()
        cache_root = self.config.effective_cache_dir or self.state_dir / "cache"
        self.cache = cache if cache is not None else ShardedResultCache(cache_root)
        self.injector = injector if injector is not None else NullServiceInjector()
        self.queue = JobQueue(
            self.state_dir / "jobs.jsonl",
            lease_s=self.config.lease_s,
            max_requeues=self.config.max_requeues,
            rotate_bytes=rotate_bytes,
            injector=self.injector,
        )
        # Warm-start cost model: every job's supervisor shares it, it is
        # persisted on drain, and a restarted service (or `chopin plan
        # --cost-model`) begins with per-family cell costs already
        # learned instead of re-deriving them from scratch.
        self.cost_model_path = self.state_dir / "costmodel.json"
        self.cost_model = CostModel()
        if self.cost_model_path.exists():
            try:
                self.cost_model = CostModel.load(self.cost_model_path)
            except ValueError as exc:
                print(f"chopin serve: ignoring saved cost model ({exc})", file=stream or sys.stderr)
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.metrics = MetricsRegistry()
        self.stream = stream if stream is not None else sys.stderr
        self.jobs_served = 0
        self._epoch = time.monotonic()
        self._running: Dict[str, Tuple[Supervisor, int]] = {}
        self._lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._threads: List[threading.Thread] = []
        self._stopped = threading.Event()
        self._draining: Optional[str] = None  # drain reason once announced
        self._saturated = False  # backpressure hysteresis latch
        self._last_reap: Optional[float] = None  # clock() of last reaper action
        self._job_seconds_total = 0.0  # feeds the Retry-After estimate
        # Seed the queue gauges so /metrics reflects replayed jobs (and
        # is never empty) before the first submission.
        self.metrics.counter("service.jobs.reaped").inc(0)
        self.metrics.counter("service.jobs.dead_lettered").inc(0)
        self.metrics.counter("service.worker_crashes").inc(0)
        self.metrics.counter("service.leases.renewed").inc(0)
        self.metrics.counter("service.leases.lost").inc(0)
        self._observe_queue()

    def clock(self) -> float:
        """Wall seconds since service start (the service-track timebase)."""
        return time.monotonic() - self._epoch

    def make_worker(self) -> ServiceWorker:
        """A worker with its own engine sharing this service's cache.

        The engine starts unsupervised — the config-level budget and
        breaker belong to one-shot sweeps; here every
        job attaches its own :class:`~repro.resilience.Supervisor` in
        :meth:`ServiceWorker.execute` (with the config values as per-job
        defaults), which is what makes admission control per-tenant.
        """
        engine = engine_from_config(
            replace(self.config, budget_s=None, breaker_threshold=None),
            cache=self.cache,
        )
        return ServiceWorker(self, engine)

    # ------------------------------------------------------------------
    # Job lifecycle hooks (called by workers and the HTTP layer)

    def submit(
        self, spec: JobSpec, idempotency_key: Optional[str] = None
    ) -> Tuple[Job, bool]:
        """Enqueue a job; returns ``(job, created)`` — ``created=False``
        means the idempotency key deduped to an existing job."""
        job, created = self.queue.submit_idempotent(spec, idempotency_key)
        if created:
            self.metrics.counter("service.jobs.submitted").inc()
        else:
            self.metrics.counter("service.jobs.deduplicated").inc()
        self._observe_queue()
        return job, created

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; running jobs drain their supervisor so pending
        cells become typed ``drained`` holes, not lost work."""
        outcome = self.queue.cancel(job_id)
        if outcome == "cancelling":
            with self._lock:
                entry = self._running.get(job_id)
            if entry is not None:
                entry[0].request_drain("cancel")
        if outcome is not None:
            self.metrics.counter("service.jobs.cancel_requests").inc()
        self._observe_queue()
        return outcome

    def job_started(self, job: Job, supervisor: Supervisor) -> None:
        with self._lock:
            self._running[job.id] = (supervisor, job.claim_epoch)
        # A cancel that raced the claim still lands: drain immediately.
        if job.cancel_requested:
            supervisor.request_drain("cancel")
        self._observe_queue()

    def heartbeat(self, job: Job, epoch: Optional[int] = None) -> bool:
        """Renew a running job's lease (the per-cell progress hook)."""
        renewed = self.queue.heartbeat(job.id, epoch)
        if renewed:
            self.metrics.counter("service.leases.renewed").inc()
        else:
            self.metrics.counter("service.leases.lost").inc()
        return renewed

    def job_finished(
        self,
        job: Job,
        state: str,
        error: Optional[str] = None,
        cells: int = 0,
        holes: Optional[List[dict]] = None,
        stats: Optional[dict] = None,
        result: Optional[dict] = None,
        failure: Optional[dict] = None,
        started: float = 0.0,
        epoch: Optional[int] = None,
    ) -> bool:
        """Record a job's terminal outcome; returns whether it landed.

        ``False`` means the worker's lease was lost mid-run (the reaper
        requeued or dead-lettered the job) and the completion was fenced
        out — the new owner's run is authoritative, this one is noise.
        """
        finished = self.queue.finish(
            job.id, state, error=error, cells=cells, holes=holes, stats=stats,
            result=result, failure=failure, epoch=epoch,
        )
        if finished is None:
            self.metrics.counter("service.leases.lost").inc()
            self._pop_running(job.id, epoch)
            self._observe_queue()
            return False
        with self._lock:
            self.jobs_served += 1
        self._pop_running(job.id, epoch)
        duration = max(0.0, self.clock() - started)
        self.metrics.counter(f"service.jobs.{state.lower()}").inc()
        self.metrics.histogram("service.job_seconds").record(duration)
        with self._lock:
            self._job_seconds_total += duration
        if self.recorder.enabled:
            self.recorder.emit(
                JobSpan(
                    ts=max(0.0, started),
                    dur=duration,
                    job_id=job.id,
                    benchmark=job.spec.benchmark,
                    state=state,
                    cells=cells,
                    holes=len(holes or ()),
                )
            )
        self._observe_queue()
        return True

    def _pop_running(self, job_id: str, epoch: Optional[int]) -> None:
        """Drop the job's supervisor registration — but only our own: a
        stale worker must not evict the supervisor of the re-claimed run."""
        with self._lock:
            entry = self._running.get(job_id)
            if entry is not None and (epoch is None or entry[1] == epoch):
                self._running.pop(job_id, None)

    def _reap(self) -> None:
        """One reaper pass: recover jobs whose lease expired."""
        for job in self.queue.reap():
            dead = job.state == "DEAD_LETTER"
            self._last_reap = self.clock()
            self._pop_running(job.id, None)
            if dead:
                self.metrics.counter("service.jobs.dead_lettered").inc()
            else:
                self.metrics.counter("service.jobs.reaped").inc()
            print(
                f"chopin serve: reaper {'dead-lettered' if dead else 'requeued'} "
                f"{job.id} (lease expired, requeues {job.requeues})",
                file=self.stream,
            )
            if self.recorder.enabled:
                self.recorder.emit(
                    JobReaped(
                        ts=self.clock(),
                        job_id=job.id,
                        requeues=job.requeues,
                        dead_letter=dead,
                    )
                )
            self._observe_queue()

    def _reaper_loop(self) -> None:
        interval = max(0.02, self.queue.lease_s / 4.0)
        while not self._stopped.wait(interval):
            self._reap()

    def _worker_loop(self, index: int) -> None:
        """Crash containment: run workers, respawn them when they die.

        A worker that raises :class:`ServiceWorkerDeath` (the injected
        drill fault) marks nothing — the lease reaper recovers its job,
        which is the same path a genuinely dead thread exercises.  Any
        other uncaught exception fails the held job with a structured
        payload and counts a worker crash; either way the pool respawns
        a fresh worker instead of silently shrinking.
        """
        while not self._stopped.is_set():
            worker = self.make_worker()
            try:
                worker.run()
                return  # queue closed: a clean drain, not a crash
            except ServiceWorkerDeath:
                pass  # the reaper recovers the held job via its lease
            except Exception as exc:  # noqa: BLE001 — containment boundary
                self._contain_crash(worker, exc)
            self.metrics.counter("service.workers.respawned").inc()

    def _contain_crash(self, worker: ServiceWorker, exc: Exception) -> None:
        name = threading.current_thread().name
        held = worker.current
        job_id = held[0].id if held is not None else ""
        self.metrics.counter("service.worker_crashes").inc()
        print(
            f"chopin serve: worker {name} crashed on "
            f"{type(exc).__name__}: {exc} (job {job_id or 'none'}); respawning",
            file=self.stream,
        )
        if self.recorder.enabled:
            self.recorder.emit(
                WorkerCrashed(
                    ts=self.clock(),
                    worker=name,
                    job_id=job_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
        if held is None:
            return
        job, epoch = held
        try:
            self.job_finished(
                job,
                "FAILED",
                error=f"worker crashed: {type(exc).__name__}: {exc}",
                failure={
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "worker": name,
                },
                epoch=epoch,
            )
        except JobStateError:
            pass  # already terminal (e.g. the crash raced a cancel)

    def _observe_queue(self) -> None:
        depth, running = self.queue.depth, self.queue.running
        self.metrics.gauge("service.queue.depth").set(depth)
        self.metrics.gauge("service.queue.running").set(running)
        high_water = self.config.queue_high_water
        if high_water > 0:
            if depth >= high_water:
                self._saturated = True
            elif depth <= high_water // 2:
                # Hysteresis: saturation clears at half the mark, so the
                # 503 boundary does not flap around one submission.
                self._saturated = False
        if self.recorder.enabled:
            self.recorder.emit(QueueDepth(ts=self.clock(), depth=depth, running=running))

    @property
    def saturated(self) -> bool:
        """Whether admission is currently shedding load (503 + Retry-After)."""
        return self._saturated

    def retry_after_s(self) -> int:
        """The ``Retry-After`` hint for a shed submit: roughly how long
        until the queue drains to the low-water mark, from the observed
        mean job duration (floor 1s, cap 60s — a hint, not a promise)."""
        with self._lock:
            mean = (
                self._job_seconds_total / self.jobs_served
                if self.jobs_served
                else 1.0
            )
        backlog = max(1, self.queue.depth - self.config.queue_high_water // 2)
        return max(1, min(60, math.ceil(mean * backlog / self.workers)))

    # ------------------------------------------------------------------
    # HTTP payloads (shared by the handler and in-process callers)

    def health_state(self) -> Tuple[str, List[str]]:
        """The health state machine: ``(state, reasons)``.

        ``draining`` — shutdown announced, no new work accepted;
        ``degraded`` — serving, but an operator should look (queue
        saturated, the reaper recently recovered jobs, circuit breakers
        open, jobs parked in dead-letter); ``healthy`` otherwise.
        """
        if self._draining is not None or self._stopped.is_set():
            return "draining", [f"drain announced ({self._draining or 'shutdown'})"]
        reasons: List[str] = []
        if self._saturated:
            reasons.append(
                f"queue saturated (depth {self.queue.depth} >= high water "
                f"{self.config.queue_high_water})"
            )
        if self._last_reap is not None and (
            self.clock() - self._last_reap <= 4.0 * self.queue.lease_s
        ):
            reasons.append(
                "reaper recently recovered expired leases "
                f"({self.queue.reaped} requeued, {self.queue.dead_lettered} "
                "dead-lettered since start)"
            )
        open_breakers = 0
        with self._lock:
            entries = list(self._running.values())
        for supervisor, _ in entries:
            open_breakers += sum(
                1 for b in supervisor.breakers.values() if b.state != "closed"
            )
        if open_breakers:
            reasons.append(f"{open_breakers} circuit breaker(s) not closed")
        dead = self.queue.dead_letters
        if dead:
            reasons.append(f"{dead} dead-lettered job(s) awaiting operator review")
        return ("degraded" if reasons else "healthy"), reasons

    def health_payload(self) -> dict:
        state, reasons = self.health_state()
        return {
            "status": state,
            "reasons": reasons,
            "uptime_s": self.clock(),
            "queued": self.queue.depth,
            "running": self.queue.running,
            "dead_letters": self.queue.dead_letters,
            "workers": self.workers,
            "jobs_served": self.jobs_served,
            "leases": {
                "lease_s": self.queue.lease_s,
                "max_requeues": self.queue.max_requeues,
                "renewed": self.queue.renewals,
                "lost": self.queue.lease_losses,
                "reaped": self.queue.reaped,
                "dead_lettered": self.queue.dead_lettered,
            },
            "cache": {
                "corrupt": self.cache.corrupt,
                "hot_hits": self.cache.hot_hits,
            },
        }

    def result_payload(self, job: Job) -> dict:
        payload = job.status_payload()
        payload["result"] = job.result
        return payload

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> "SweepService":
        """Bind the HTTP server and start the worker pool; returns self.
        With ``port=0`` the bound ephemeral port is in :attr:`port`."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="chopin-serve-http", daemon=True
        )
        http_thread.start()
        self._threads.append(http_thread)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"chopin-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        reaper = threading.Thread(
            target=self._reaper_loop, name="chopin-serve-reaper", daemon=True
        )
        reaper.start()
        self._threads.append(reaper)
        return self

    def begin_drain(self, reason: str = "shutdown") -> None:
        """Announce a drain: ``/readyz`` flips to 503 and ``POST /jobs``
        starts refusing, while the HTTP server stays up for status and
        result reads — the k8s preStop pattern."""
        if self._draining is None:
            self._draining = reason

    def stop(self, reason: str = "shutdown") -> None:
        """Graceful drain: stop accepting, drain in-flight jobs (their
        pending cells become typed holes, everything completed stays in
        the shared cache and journal), flush, and report."""
        if self._stopped.is_set():
            return
        self.begin_drain(reason)
        self._stopped.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self.queue.close()
        with self._lock:
            running = list(self._running.values())
        for supervisor, _ in running:
            supervisor.request_drain(reason)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30.0)
        self.cache.flush()
        if len(self.cost_model):
            self.cost_model.save(self.cost_model_path)
        print(
            f"chopin serve: drained cleanly ({self.jobs_served} job"
            f"{'s' if self.jobs_served != 1 else ''} served) on {reason}",
            file=self.stream,
        )

    def crash_stop(self) -> None:
        """Tear the service down the way a crash would (tests and the
        chaos drill): no drain announcement in the journal, no cache
        flush, no cost-model save — just stop the threads.  Journal
        appends are fsync'd per transition, so everything already
        journalled survives; a restart on the same state dir replays it.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._draining = "crash"
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        self.queue.close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30.0)

    def run(self) -> int:
        """The ``chopin serve`` foreground loop: start, wait for
        SIGTERM/SIGINT, drain, exit 0."""
        woken = threading.Event()
        reasons: List[str] = []

        def _on_signal(signum: int, frame: object) -> None:
            reasons.append(signal.Signals(signum).name)
            woken.set()

        previous = [
            (signum, signal.signal(signum, _on_signal))
            for signum in (signal.SIGTERM, signal.SIGINT)
        ]
        try:
            self.start()
            print(
                f"chopin serve: listening on http://{self.host}:{self.port} "
                f"(state in {self.state_dir}, {self.workers} worker"
                f"{'s' if self.workers != 1 else ''})",
                file=self.stream,
            )
            woken.wait()
        finally:
            for signum, handler in previous:
                signal.signal(signum, handler)
        self.stop(reasons[0] if reasons else "shutdown")
        return 0


def service_from_config(
    config: HarnessConfig,
    state_dir: Union[str, Path],
    workers: int = 1,
    recorder: Optional[RecorderLike] = None,
) -> SweepService:
    """Build a :class:`SweepService` from a resolved
    :class:`~repro.harness.config.HarnessConfig` — host/port from
    ``CHOPIN_SERVE_HOST``/``CHOPIN_SERVE_PORT`` (or their flags)."""
    return SweepService(
        state_dir,
        host=config.serve_host,
        port=config.serve_port,
        workers=workers,
        config=config,
        recorder=recorder,
    )


# ----------------------------------------------------------------------
# The HTTP layer


class _BodyTooLarge(Exception):
    """A request body past :data:`MAX_BODY_BYTES` — surfaced as 413."""

    def __init__(self, length: int) -> None:
        super().__init__(f"request body of {length} bytes")
        self.length = length


def _make_handler(service: SweepService):
    """A request-handler class closed over one service instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "chopin-serve/1.0"
        protocol_version = "HTTP/1.1"
        # socketserver applies this to the connection in setup(): a
        # client that stalls mid-request times out instead of pinning a
        # handler thread forever.
        timeout = REQUEST_TIMEOUT_S

        def log_message(self, format: str, *args: object) -> None:
            pass  # the service reports through its own stream, not stderr spam

        # -- plumbing ---------------------------------------------------

        def _send(
            self,
            status: int,
            payload: dict,
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> object:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                raise ValueError("Content-Length must be an integer") from None
            if length > MAX_BODY_BYTES:
                raise _BodyTooLarge(length)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ValueError("request body must be a JSON object")
            return json.loads(raw.decode("utf-8"))

        def _job(self, job_id: str) -> Optional[Job]:
            try:
                return service.queue.get(job_id)
            except JobStateError:
                self._send(404, {"error": f"unknown job id {job_id!r}"})
                return None

        # -- routes -----------------------------------------------------

        def do_GET(self) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["health"]:
                self._send(200, service.health_payload())
            elif parts == ["livez"]:
                # Liveness is about the process, not the queue: as long
                # as the HTTP loop answers, the process is alive.
                self._send(200, {"live": True, "uptime_s": service.clock()})
            elif parts == ["readyz"]:
                state, reasons = service.health_state()
                ready = state != "draining" and not service.saturated
                self._send(
                    200 if ready else 503,
                    {"ready": ready, "status": state, "reasons": reasons},
                )
            elif parts == ["metrics"]:
                service.metrics.gauge("service.uptime_s").set(service.clock())
                self._send_text(200, service.metrics.render() + "\n")
            elif parts == ["jobs"]:
                self._send(
                    200, {"jobs": [j.status_payload() for j in service.queue.jobs()]}
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self._job(parts[1])
                if job is not None:
                    self._send(200, job.status_payload())
            elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "result":
                job = self._job(parts[1])
                if job is None:
                    return
                if not job.terminal:
                    self._send(
                        409,
                        {"error": f"{job.id} is {job.state}, not terminal yet",
                         "state": job.state},
                    )
                    return
                self._send(200, service.result_payload(job))
            else:
                self._send(404, {"error": f"no such resource {self.path!r}"})

        def do_POST(self) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["jobs"]:
                try:
                    spec = JobSpec.from_payload(self._body())
                    workload = registry.workload(spec.benchmark)
                    for collector in spec.collectors:
                        resolve_collector(collector)
                    # Admit latency jobs with the same checks `chopin
                    # latency` makes before running anything.
                    if spec.kind == "latency":
                        if not workload.latency_sensitive:
                            raise ValueError(
                                f"{workload.name} is not a latency-sensitive workload"
                            )
                        if spec.fidelity == FIDELITY_AGGREGATE:
                            raise ValueError(
                                "latency jobs replay requests over per-event "
                                "timelines; use fidelity full (or auto)"
                            )
                except _BodyTooLarge as exc:
                    # The oversized body was never read: drop the
                    # connection after responding rather than let it
                    # poison the next keep-alive request.
                    self.close_connection = True
                    self._send(
                        413,
                        {"error": f"request body of {exc.length} bytes exceeds "
                                  f"the {MAX_BODY_BYTES}-byte limit"},
                    )
                    return
                except (ValueError, KeyError, UnknownCollectorError) as exc:
                    message = exc.args[0] if exc.args else str(exc)
                    self._send(400, {"error": str(message)})
                    return
                if service._stopped.is_set() or service._draining is not None:
                    self._send(503, {"error": "service is draining"})
                    return
                if service.saturated:
                    retry_after = service.retry_after_s()
                    self._send(
                        503,
                        {
                            "error": (
                                f"queue saturated (depth {service.queue.depth} "
                                f">= high water {service.config.queue_high_water}); "
                                f"retry after {retry_after}s"
                            ),
                            "retry_after_s": retry_after,
                        },
                        headers={"Retry-After": str(retry_after)},
                    )
                    return
                key = self.headers.get("Idempotency-Key") or None
                job, created = service.submit(spec, idempotency_key=key)
                self._send(
                    202,
                    {"id": job.id, "state": job.state, "deduplicated": not created},
                )
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._cancel(parts[1])
            else:
                self._send(404, {"error": f"no such resource {self.path!r}"})

        def do_DELETE(self) -> None:
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if len(parts) == 2 and parts[0] == "jobs":
                self._cancel(parts[1])
            else:
                self._send(404, {"error": f"no such resource {self.path!r}"})

        def _cancel(self, job_id: str) -> None:
            job = self._job(job_id)
            if job is None:
                return
            outcome = service.cancel(job_id)
            self._send(
                200,
                {
                    "id": job_id,
                    "state": service.queue.get(job_id).state,
                    "outcome": outcome or "already terminal",
                },
            )

    return Handler
