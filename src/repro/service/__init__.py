"""repro.service — the long-running sweep service behind ``chopin serve``.

Six PRs in, the engine is production-*shaped* — parallel, cached,
resilient, supervised, vectorized — but still a one-shot CLI: one user
invokes one sweep and babysits it.  The paper's methodology only pays
off when sweeps are cheap to run continuously, for every collector and
heap factor, as configurations change; that takes a *service*.  This
package is that layer, modeled on PerfKitBenchmarker's resumable stage
pipeline (provision → prepare → run → cleanup): a job is admitted,
compiled to an :class:`~repro.harness.plans.ExperimentPlan`, executed on
the existing :class:`~repro.harness.engine.ExecutionEngine`, and its
artefacts land in a cache shared by every tenant.

Four modules, one per concern:

- :mod:`.shards` — :class:`ShardedResultCache`: the content-addressed
  :class:`~repro.harness.engine.ResultCache`, same on-disk layout,
  behind a bounded, thread-safe in-memory *hot set*, so N workers share
  one cache without lock contention;
- :mod:`.jobqueue` — :class:`JobQueue`: a priority-FIFO async job queue
  with a per-job state machine (``QUEUED → RUNNING → DONE / FAILED /
  CANCELLED / PARTIAL``) persisted as an append-only JSONL journal
  (:mod:`repro.resilience.journal`: line-atomic fsync'd appends,
  torn-tail tolerant replay) so a restarted service resumes its queue;
- :mod:`.server` — :class:`SweepService`: the daemon.  An HTTP/JSON API
  on stdlib :class:`~http.server.ThreadingHTTPServer` (submit / status
  / result / cancel / health / metrics — no new dependencies) in front
  of worker threads that execute jobs through
  :func:`~repro.harness.experiments.run_campaign`, one
  :class:`~repro.resilience.Supervisor` per job so deadline budgets,
  breakers, and cancellation become per-job admission control and
  refused cells surface as typed holes in the status payload;
- :mod:`.client` — :class:`ServiceClient`: a thin stdlib-urllib client
  (and the ``chopin submit/status/result/cancel`` verbs) that makes the
  service scriptable and testable end to end.

Contract: a sweep submitted over HTTP is **bit-identical** to the same
sweep run via ``chopin lbo`` one-shot — same cells, same cache keys,
same rendered tables — because both doors compile to the same plan and
execute on the same engine.  A warm service cache therefore serves a
resubmitted sweep with zero simulations.
"""

from repro.service.chaos import ServiceChaosDrill, ServiceScenario, service_chaos_drill
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobqueue import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobQueue,
    JobSpec,
    JobStateError,
)
from repro.service.server import SweepService, service_from_config
from repro.service.shards import ShardedResultCache

__all__ = [
    "JOB_STATES",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobStateError",
    "ServiceChaosDrill",
    "ServiceClient",
    "ServiceError",
    "ServiceScenario",
    "ShardedResultCache",
    "SweepService",
    "TERMINAL_STATES",
    "service_chaos_drill",
    "service_from_config",
]
