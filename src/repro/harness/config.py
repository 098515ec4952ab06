"""One home for every harness knob: flags, ``CHOPIN_*`` env, defaults.

The same dozen knobs — parallelism, caching, progress, resilience,
supervision, fidelity, batching — used to be parsed in three places with
three slightly different dialects: ``engine_from_env`` read the
environment for the pytest benchmark harness, the ``chopin`` CLI read
``argparse`` flags, and ``benchmarks/_common.py`` re-read
``CHOPIN_FIDELITY`` on its own.  This module is now the single parser
all three consume.

Precedence is **flag > environment > default**, resolved field by field:
:func:`harness_config` reads the environment first, then lets keyword
overrides (the CLI's flags) replace any field whose override is not
``None``.  A flag the user did not pass therefore falls through to the
environment, and an unset environment falls through to the documented
default — the CLI, the env-driven benchmark harness, and library callers
all resolve the same knob the same way.

Recognised environment variables (one per :class:`HarnessConfig` field,
apart from the deprecated ``CHOPIN_CACHE_SHARDS``):

====================== ==========================================================
``CHOPIN_JOBS``        worker processes for sweep cells (default 1: in-process)
``CHOPIN_CACHE_DIR``   content-addressed result cache directory
``CHOPIN_NO_CACHE``    ignore ``CHOPIN_CACHE_DIR`` (any non-empty value)
``CHOPIN_PROGRESS``    log per-cell progress to stderr (any non-empty value)
``CHOPIN_RETRIES``     retry budget per cell for transient failures
``CHOPIN_CELL_TIMEOUT`` per-cell wall-clock timeout in seconds
``CHOPIN_CHAOS_RATE``  seeded fault-injection rate in [0, 1]
``CHOPIN_CHAOS_SEED``  seed for deterministic fault injection
``CHOPIN_BUDGET``      wall-clock deadline budget in seconds (supervisor)
``CHOPIN_BREAKER``     circuit-breaker threshold, consecutive give-ups
``CHOPIN_FIDELITY``    telemetry tier: ``auto`` / ``aggregate`` / ``full``
``CHOPIN_BATCH``       vectorized batch execution: ``1``/``true`` or ``0``/``false``
``CHOPIN_SERVE_HOST``  sweep-service bind address (default ``127.0.0.1``)
``CHOPIN_SERVE_PORT``  sweep-service TCP port (default 8642; 0 = ephemeral)
``CHOPIN_CACHE_SHARDS`` deprecated and ignored: the result cache has one layout
``CHOPIN_LEASE_S``     sweep-service job lease in seconds (default 60)
``CHOPIN_MAX_REQUEUES`` lease-expiry requeues before DEAD_LETTER (default 3)
``CHOPIN_QUEUE_HIGH_WATER`` queue depth that turns submits into 503 (0 = off)
====================== ==========================================================

Malformed values raise ``ValueError`` naming the variable and the
accepted format (never a bare parse error), exactly as
``engine_from_env`` always did — that function is now a thin wrapper
over :func:`harness_config` + :func:`engine_from_config`.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields
from typing import Mapping, Optional

__all__ = [
    "HarnessConfig",
    "harness_config",
    "engine_from_config",
]

#: Truthy/falsy spellings accepted by boolean CHOPIN_* variables.
_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class HarnessConfig:
    """Resolved harness knobs — what an :class:`ExecutionEngine` is built
    from, independent of whether the values arrived as flags, environment
    variables, or defaults."""

    jobs: int = 1
    cache_dir: Optional[str] = None
    no_cache: bool = False
    progress: bool = False
    retries: int = 0
    cell_timeout_s: Optional[float] = None
    chaos_rate: Optional[float] = None
    chaos_seed: int = 0
    budget_s: Optional[float] = None
    breaker_threshold: Optional[int] = None
    #: None = auto (each analysis picks its tier).
    fidelity: Optional[str] = None
    #: Vectorized batch execution of aggregate-fidelity cells
    #: (:mod:`repro.jvm.batch`); off by default — opt in per sweep.
    batch: bool = False
    #: Sweep-service bind address and port (``chopin serve`` / the
    #: ``chopin submit`` default URL).  Port 0 binds ephemerally.
    serve_host: str = "127.0.0.1"
    serve_port: int = 8642
    #: Sweep-service lease machinery: a RUNNING job's worker must renew
    #: its lease every ``lease_s`` seconds (keep it above the slowest
    #: single cell — renewals happen per completed cell); after
    #: ``max_requeues`` lease expiries the job dead-letters instead of
    #: crash-looping the pool.
    lease_s: float = 60.0
    max_requeues: int = 3
    #: Queue-depth high-water mark: at or above it, ``POST /jobs``
    #: answers 503 + ``Retry-After`` until the queue drains to half the
    #: mark.  0 disables backpressure.
    queue_high_water: int = 0

    @property
    def effective_cache_dir(self) -> Optional[str]:
        """The cache directory after ``no_cache`` is applied."""
        return None if self.no_cache else self.cache_dir


def _env_int(environ, name: str, default: int, example: str) -> int:
    """Parse an integer environment variable with a diagnosable error."""
    raw = environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r} (e.g. {name}={example})"
        ) from None


def _env_float(
    environ, name: str, default: Optional[float], example: str
) -> Optional[float]:
    """Parse a float environment variable with a diagnosable error."""
    raw = environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number, got {raw!r} (e.g. {name}={example})"
        ) from None


def _env_bool(environ, name: str, default: bool, example: str) -> bool:
    """Parse a boolean environment variable with a diagnosable error."""
    raw = environ.get(name)
    if raw is None or raw == "":
        return default
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(
        f"{name} must be a boolean (1/0, true/false, yes/no, on/off), "
        f"got {raw!r} (e.g. {name}={example})"
    )


def warn_deprecated(name: str) -> None:
    """Print the one stderr line for a retired cache-layout knob
    (``chopin serve --cache-shards``, ``CHOPIN_CACHE_SHARDS``).  Each is
    still accepted for one round, and does nothing."""
    print(
        f"chopin: {name} is deprecated and ignored; the result cache has one "
        f"layout, <cache-dir>/<key[:2]>/<key>.pkl, and chopin doctor "
        f"quarantines entries found anywhere else",
        file=sys.stderr,
    )


def _from_environ(environ: Mapping[str, str]) -> HarnessConfig:
    """The environment layer: every ``CHOPIN_*`` variable, validated."""
    if environ.get("CHOPIN_CACHE_SHARDS"):
        warn_deprecated("CHOPIN_CACHE_SHARDS")
    fidelity = environ.get("CHOPIN_FIDELITY") or None
    if fidelity == "auto":
        fidelity = None
    if fidelity is not None and fidelity not in ("aggregate", "full"):
        raise ValueError(
            f"CHOPIN_FIDELITY must be auto, aggregate, or full, got {fidelity!r}"
        )
    return HarnessConfig(
        jobs=_env_int(environ, "CHOPIN_JOBS", 1, "4"),
        cache_dir=environ.get("CHOPIN_CACHE_DIR") or None,
        no_cache=bool(environ.get("CHOPIN_NO_CACHE")),
        progress=bool(environ.get("CHOPIN_PROGRESS")),
        retries=_env_int(environ, "CHOPIN_RETRIES", 0, "3"),
        cell_timeout_s=_env_float(environ, "CHOPIN_CELL_TIMEOUT", None, "30.0"),
        chaos_rate=_env_float(environ, "CHOPIN_CHAOS_RATE", None, "0.1"),
        chaos_seed=_env_int(environ, "CHOPIN_CHAOS_SEED", 0, "42"),
        budget_s=_env_float(environ, "CHOPIN_BUDGET", None, "600"),
        breaker_threshold=(
            _env_int(environ, "CHOPIN_BREAKER", 0, "3")
            if environ.get("CHOPIN_BREAKER") not in (None, "")
            else None
        ),
        fidelity=fidelity,
        batch=_env_bool(environ, "CHOPIN_BATCH", False, "1"),
        serve_host=environ.get("CHOPIN_SERVE_HOST") or "127.0.0.1",
        serve_port=_env_int(environ, "CHOPIN_SERVE_PORT", 8642, "8642"),
        lease_s=_env_float(environ, "CHOPIN_LEASE_S", 60.0, "60"),
        max_requeues=_env_int(environ, "CHOPIN_MAX_REQUEUES", 3, "3"),
        queue_high_water=_env_int(environ, "CHOPIN_QUEUE_HIGH_WATER", 0, "64"),
    )


def _validate(config: HarnessConfig) -> HarnessConfig:
    """Range checks shared by every entry path, with the exact messages
    ``engine_from_env`` has always raised."""
    if config.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {config.jobs!r}")
    if config.retries < 0:
        raise ValueError(f"retries must be non-negative, got {config.retries!r}")
    rate = config.chaos_rate
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ValueError(
            f"CHOPIN_CHAOS_RATE must be between 0 and 1, got {rate!r} "
            f"(e.g. CHOPIN_CHAOS_RATE=0.1)"
        )
    if config.budget_s is not None and config.budget_s <= 0:
        raise ValueError(
            f"CHOPIN_BUDGET must be a positive number of seconds, got "
            f"{config.budget_s!r} (e.g. CHOPIN_BUDGET=600)"
        )
    if config.breaker_threshold is not None and config.breaker_threshold < 1:
        raise ValueError(
            f"CHOPIN_BREAKER must be a positive integer, got "
            f"{config.breaker_threshold!r} (e.g. CHOPIN_BREAKER=3)"
        )
    if config.fidelity is not None and config.fidelity not in ("aggregate", "full"):
        raise ValueError(
            f"CHOPIN_FIDELITY must be auto, aggregate, or full, got "
            f"{config.fidelity!r}"
        )
    if not 0 <= config.serve_port <= 65535:
        raise ValueError(
            f"CHOPIN_SERVE_PORT must be a TCP port in [0, 65535], got "
            f"{config.serve_port!r} (e.g. CHOPIN_SERVE_PORT=8642)"
        )
    if config.lease_s is None or config.lease_s <= 0:
        raise ValueError(
            f"CHOPIN_LEASE_S must be a positive number of seconds, got "
            f"{config.lease_s!r} (e.g. CHOPIN_LEASE_S=60)"
        )
    if config.max_requeues < 0:
        raise ValueError(
            f"CHOPIN_MAX_REQUEUES must be a non-negative integer, got "
            f"{config.max_requeues!r} (e.g. CHOPIN_MAX_REQUEUES=3)"
        )
    if config.queue_high_water < 0:
        raise ValueError(
            f"CHOPIN_QUEUE_HIGH_WATER must be a non-negative integer "
            f"(0 disables backpressure), got {config.queue_high_water!r} "
            f"(e.g. CHOPIN_QUEUE_HIGH_WATER=64)"
        )
    return config


def harness_config(
    environ: Optional[Mapping[str, str]] = None, **overrides
) -> HarnessConfig:
    """Resolve the harness knobs with flag > env > default precedence.

    ``environ`` defaults to ``os.environ``.  ``overrides`` are keyword
    arguments named after :class:`HarnessConfig` fields (the CLI passes
    its flags here); an override of ``None`` means "not specified" and
    falls through to the environment layer.  The resolved configuration
    is validated once, whichever path each field arrived by.
    """
    if environ is None:
        environ = os.environ
    known = {f.name for f in fields(HarnessConfig)}
    unknown = set(overrides) - known
    if unknown:
        raise TypeError(
            f"unknown harness config field(s): {', '.join(sorted(unknown))}"
        )
    config = _from_environ(environ)
    explicit = {k: v for k, v in overrides.items() if v is not None}
    if explicit:
        from dataclasses import replace

        config = replace(config, **explicit)
    return _validate(config)


def engine_from_config(config: HarnessConfig, supervisor=None, cache=None):
    """Build an :class:`~repro.harness.engine.ExecutionEngine` from a
    resolved configuration.

    ``supervisor`` overrides the one the config would imply — the CLI
    passes a supervisor carrying a resume hint; when omitted, a
    supervisor is attached iff ``budget_s`` or ``breaker_threshold`` is
    set.

    ``cache`` overrides the result cache the config would build — the
    sweep service passes one shared
    :class:`~repro.service.shards.ShardedResultCache` so every worker
    engine is a tenant of the same store.  When omitted and a cache
    directory is configured, the engine gets a plain
    :class:`~repro.harness.engine.ResultCache` over it.
    """
    # Imported here: engine.py's engine_from_env delegates to this module,
    # so the top-level import must flow config <- engine, not both ways.
    from repro.harness.engine import ExecutionEngine, LogSink, ResultCache
    from repro.resilience import FaultInjector, FaultSpec, RetryPolicy, Supervisor

    retry = (
        RetryPolicy(retries=max(0, config.retries), cell_timeout_s=config.cell_timeout_s)
        if config.retries or config.cell_timeout_s is not None
        else None
    )
    injector = None
    if config.chaos_rate:
        injector = FaultInjector(
            FaultSpec.uniform(config.chaos_rate, seed=config.chaos_seed)
        )
    if supervisor is None and (
        config.budget_s is not None or config.breaker_threshold is not None
    ):
        supervisor = Supervisor(
            budget_s=config.budget_s, breaker_threshold=config.breaker_threshold
        )
    if cache is None and config.effective_cache_dir is not None:
        cache = ResultCache(config.effective_cache_dir)
    return ExecutionEngine(
        jobs=max(1, config.jobs),
        cache=cache,
        progress=LogSink() if config.progress else None,
        retry=retry,
        injector=injector,
        supervisor=supervisor,
        batch=config.batch,
    )
