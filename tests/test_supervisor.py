"""Run supervision: deadline budgets, circuit breakers, graceful
shutdown, and ``chopin doctor`` self-healing.

The contract under test (see ``repro.resilience.supervisor``):
supervision decides *whether* a cell runs, never *how* — cells that do
run are bit-identical with or without a supervisor, refused cells become
typed holes a resume run fills, and an unconstrained supervisor changes
nothing at all.
"""

import io
import pickle
import signal
import threading
import time

import pytest

import repro.harness.engine as engine_mod
from repro import Cell, ExecutionEngine, RunConfig, cell_key
from repro.harness.engine import (
    HOLE_REASONS,
    EngineStats,
    LogSink,
    ProgressSink,
    ResultCache,
    _call_with_timeout,
    engine_from_env,
)
from repro.harness.experiments import run_campaign
from repro.harness.plans import plan_lbo, run_plan
from repro.observability import (
    BreakerOpened,
    BudgetExceeded,
    DrainStarted,
    MetricsRegistry,
    Recorder,
    chrome_trace,
    validate_chrome_trace,
)
from repro.resilience import (
    SUPERVISED_REASONS,
    CellExecutionError,
    CellTimeout,
    CheckpointJournal,
    CircuitBreaker,
    CostModel,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    Supervisor,
    compact_journal,
    scan_cache,
    verify_cells,
)
from repro.resilience.faults import _uniform
from repro.resilience.supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)


def make_cell(spec, collector="G1", heap_multiple=3.0, invocation=0, config=None):
    config = config or RunConfig(invocations=2, iterations=2, duration_scale=0.05)
    return Cell(
        spec=spec,
        collector=collector,
        heap_mb=spec.heap_mb_for(heap_multiple),
        invocation=invocation,
        config=config,
    )


def payload(result):
    """A cell's bit-identity fingerprint (per-cell, see test_resilience)."""
    return pickle.dumps((result.timed, result.oom))


def frozen_supervisor(**kw):
    """A supervisor whose deadline clock never advances — budget
    decisions then depend only on the cost model, deterministically."""
    kw.setdefault("stream", io.StringIO())
    return Supervisor(clock=lambda: 0.0, **kw)


@pytest.fixture
def cells(lusearch, fast_config):
    return [make_cell(lusearch, invocation=i, config=fast_config) for i in range(4)]


class TestCostModel:
    def test_ewma_math(self):
        model = CostModel(alpha=0.5)
        family = ("lusearch", "G1")
        model.observe(family, 2.0)
        assert model.estimate(family) == 2.0  # first sample seeds the average
        model.observe(family, 4.0)
        assert model.estimate(family) == pytest.approx(3.0)  # 0.5*4 + 0.5*2
        model.observe(family, 3.0)
        assert model.estimate(family) == pytest.approx(3.0)

    def test_unknown_family_borrows_known_mean(self):
        model = CostModel()
        model.observe(("a", "G1"), 1.0)
        model.observe(("b", "G1"), 3.0)
        assert model.estimate(("c", "ZGC")) == pytest.approx(2.0)

    def test_empty_model_estimates_none(self):
        assert CostModel().estimate(("a", "G1")) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(alpha=0.0)
        with pytest.raises(ValueError):
            CostModel(alpha=1.5)
        with pytest.raises(ValueError):
            CostModel().observe(("a", "G1"), -1.0)

    def test_shared_model_is_thread_safe(self):
        # `chopin serve` shares one model across every worker thread's
        # supervisor: concurrent observes must not lose updates.
        model = CostModel(alpha=0.5)
        families = [(f"w{i}", "G1") for i in range(8)]

        def hammer(family):
            for _ in range(200):
                model.observe(family, 1.0)

        threads = [threading.Thread(target=hammer, args=(f,)) for f in families]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(model) == len(families)
        for family in families:
            assert model.estimate(family) == pytest.approx(1.0)


class TestCostModelPersistence:
    def warm(self):
        model = CostModel(alpha=0.5)
        model.observe(("lusearch", "G1"), 2.0)
        model.observe(("h2", "ZGC"), 7.5)
        return model

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "costmodel.json"
        self.warm().save(path)
        loaded = CostModel.load(path)
        assert loaded.alpha == 0.5
        assert len(loaded) == 2
        assert loaded.estimate(("lusearch", "G1")) == 2.0
        assert loaded.estimate(("h2", "ZGC")) == 7.5

    def test_save_is_stable_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.warm().save(a)
        self.warm().save(b)
        assert a.read_bytes() == b.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))  # atomic write cleaned up

    def test_loaded_model_keeps_learning(self, tmp_path):
        path = tmp_path / "costmodel.json"
        self.warm().save(path)
        loaded = CostModel.load(path)
        loaded.observe(("lusearch", "G1"), 4.0)
        assert loaded.estimate(("lusearch", "G1")) == pytest.approx(3.0)

    def test_load_errors_name_the_file(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(ValueError, match="absent.json"):
            CostModel.load(missing)
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        with pytest.raises(ValueError, match="broken.json"):
            CostModel.load(broken)

    def test_malformed_snapshots_rejected(self):
        with pytest.raises(ValueError):
            CostModel.from_json([])
        with pytest.raises(ValueError):
            CostModel.from_json({"alpha": 0.3, "families": "nope"})
        with pytest.raises(ValueError):
            CostModel.from_json({"alpha": 0.3, "families": [["a", "G1"]]})
        with pytest.raises(ValueError):
            CostModel.from_json({"alpha": 0.3, "families": [["a", "G1", -1.0]]})

    def test_separator_hostile_workload_names_round_trip(self, tmp_path):
        model = CostModel()
        model.observe(("week:end/run", "G1"), 1.25)
        path = tmp_path / "costmodel.json"
        model.save(path)
        assert CostModel.load(path).estimate(("week:end/run", "G1")) == 1.25

    def test_supervisor_accepts_warm_model(self):
        warm = self.warm()
        supervisor = Supervisor(cost_model=warm)
        assert supervisor.model is warm
        # without one, the supervisor builds its own from ewma_alpha
        assert Supervisor(ewma_alpha=0.7).model.alpha == 0.7


class TestCircuitBreaker:
    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1, probe_after=0)

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # newly opened, exactly once
        assert breaker.state == BREAKER_OPEN
        assert not breaker.admit()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # never two in a row

    def test_half_open_probe_recovers(self):
        breaker = CircuitBreaker(threshold=1, probe_after=2)
        assert breaker.record_failure() is True
        assert not breaker.admit()  # skip 1
        assert breaker.admit()  # skip 2 reaches probe_after: probe admitted
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.admit()  # one probe at a time
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.admit()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, probe_after=2)
        breaker.record_failure()
        assert not breaker.admit()  # skip 1
        assert breaker.admit()  # skip 2: the probe
        assert breaker.record_failure() is False  # reopen is not a *new* open
        assert breaker.state == BREAKER_OPEN
        assert not breaker.admit()  # skip counter restarted


class TestSupervisorUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            Supervisor(budget_s=0.0)
        with pytest.raises(ValueError):
            Supervisor(budget_s=-5.0)
        with pytest.raises(ValueError):
            Supervisor(breaker_threshold=0)
        with pytest.raises(ValueError):
            Supervisor(probe_after=0)

    def test_active_only_with_budget_or_breaker(self):
        assert not Supervisor().active
        assert Supervisor(budget_s=60.0).active
        assert Supervisor(breaker_threshold=3).active

    def test_unconstrained_admits_everything(self):
        sup = Supervisor()
        assert sup.admit("lusearch", "G1") is None
        assert sup.admit("h2", "ZGC") is None

    def test_budget_admits_on_no_evidence_then_refuses(self):
        sup = frozen_supervisor(budget_s=1e-9)
        assert sup.admit("lusearch", "G1") is None  # empty model: must admit
        sup.observe("lusearch", "G1", 1.0)
        reason, detail = sup.admit("lusearch", "G1")
        assert reason == "budget"
        assert "lusearch/G1" in detail

    def test_budget_allows_cheap_cells(self):
        sup = frozen_supervisor(budget_s=10.0)
        sup.observe("lusearch", "G1", 1.0)
        assert sup.admit("lusearch", "G1") is None

    def test_admit_severity_order_drain_breaker_budget(self):
        sup = frozen_supervisor(budget_s=1e-9, breaker_threshold=1)
        sup.observe("lusearch", "G1", 1.0)
        sup.record_failure("lusearch", "G1")  # breaker open
        assert sup.admit("lusearch", "G1")[0] == "breaker"
        sup.request_drain("SIGINT")
        assert sup.admit("lusearch", "G1")[0] == "drained"

    def test_drain_is_idempotent_and_recorded(self):
        sup = frozen_supervisor()
        sup.request_drain("SIGINT")
        sup.request_drain("SIGTERM")  # ignored: already draining
        assert sup.drain_signal == "SIGINT"
        assert sup.incidents == [("drain", "SIGINT")]

    def test_breaker_open_recorded_once(self):
        sup = frozen_supervisor(breaker_threshold=2)
        assert sup.record_failure("a", "G1") is False
        assert sup.record_failure("a", "G1") is True
        assert sup.record_failure("a", "G1") is False  # already open
        breakers = [i for i in sup.incidents if i[0] == "breaker"]
        assert breakers == [("breaker", ("a", "G1"), 2)]


class TestSignals:
    def test_first_signal_drains_second_aborts(self):
        stream = io.StringIO()
        sup = Supervisor(stream=stream)
        sup._handle_signal(signal.SIGINT, None)
        assert sup.draining and sup.drain_signal == "SIGINT"
        assert "draining" in stream.getvalue()
        with pytest.raises(KeyboardInterrupt):
            sup._handle_signal(signal.SIGINT, None)

    def test_install_and_uninstall_restore_handlers(self):
        before = (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM))
        sup = Supervisor(stream=io.StringIO())
        try:
            with sup:
                assert signal.getsignal(signal.SIGINT) == sup._handle_signal
                assert signal.getsignal(signal.SIGTERM) == sup._handle_signal
        finally:
            sup.uninstall()
        after = (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM))
        assert after == before


class TestUnconstrainedBitIdentity:
    """An attached supervisor that never refuses must change nothing."""

    def test_supervised_run_bit_identical(self, cells):
        clean = ExecutionEngine().run_cells(cells)
        engine = ExecutionEngine(supervisor=Supervisor(stream=io.StringIO()))
        assert engine.resilient and engine.supervised
        supervised = engine.run_cells(cells)
        assert [payload(a) for a in clean] == [payload(b) for b in supervised]
        stats = engine.stats
        assert (stats.budget_skipped, stats.breaker_skipped, stats.drained) == (0, 0, 0)

    def test_generous_budget_and_breaker_bit_identical(self, cells):
        clean = ExecutionEngine().run_cells(cells)
        engine = ExecutionEngine(
            supervisor=frozen_supervisor(budget_s=3600.0, breaker_threshold=5)
        )
        supervised = engine.run_cells(cells)
        assert [payload(a) for a in clean] == [payload(b) for b in supervised]
        assert engine.stats.budget_skipped == 0


class TestBudgetHoles:
    def test_tiny_budget_holes_all_but_first(self, cells):
        engine = ExecutionEngine(supervisor=frozen_supervisor(budget_s=1e-9))
        batch = engine.run_cells(cells, partial=True)
        assert engine.stats.executed == 1  # the no-evidence cell ran
        assert engine.stats.budget_skipped == 3
        assert [h.reason for h in batch.holes] == ["budget"] * 3
        assert all(h.attempts == 0 for h in batch.holes)
        assert batch.results[0] is not None
        assert batch.results[1:] == [None, None, None]

    def test_strict_mode_raises_on_refusal(self, cells):
        engine = ExecutionEngine(supervisor=frozen_supervisor(budget_s=1e-9))
        with pytest.raises(CellExecutionError):
            engine.run_cells(cells)

    def test_budget_refusals_do_not_touch_cache_or_journal(
        self, cells, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        engine = ExecutionEngine(
            cache_dir=tmp_path / "cache",
            checkpoint=journal,
            supervisor=frozen_supervisor(budget_s=1e-9),
        )
        engine.run_cells(cells, partial=True)
        assert len(CheckpointJournal(journal)) == 1  # only the executed cell
        # A resume run with no budget executes exactly the missing cells.
        clean = ExecutionEngine().run_cells(cells)
        resumed = ExecutionEngine(cache_dir=tmp_path / "cache", checkpoint=journal)
        results = resumed.run_cells(cells)
        assert resumed.stats.executed == 3 and resumed.stats.cached == 1
        assert [payload(r) for r in results] == [payload(r) for r in clean]


def crash_engine(threshold, retries=1, probe_after=8, **kw):
    """Serial engine where every attempt of every cell crashes, under a
    breaker with the given threshold."""
    return ExecutionEngine(
        retry=RetryPolicy(retries=retries, backoff_base_s=0.001),
        injector=FaultInjector(FaultSpec(crash=1.0, seed=0)),
        supervisor=frozen_supervisor(
            breaker_threshold=threshold, probe_after=probe_after
        ),
        **kw,
    )


class TestBreakerHoles:
    def test_breaker_trips_after_k_give_ups_then_fast_fails(
        self, lusearch, fast_config
    ):
        family = [
            make_cell(lusearch, invocation=i, config=fast_config) for i in range(6)
        ]
        engine = crash_engine(threshold=2, retries=1)
        batch = engine.run_cells(family, partial=True)
        assert len(batch.holes) == 6
        # The first K=2 cells burned their full retry schedule...
        assert [h.reason for h in batch.holes[:2]] == ["gave_up", "gave_up"]
        assert [h.attempts for h in batch.holes[:2]] == [2, 2]
        # ...and the remaining 4 fast-failed in O(1): zero attempts.
        assert [h.reason for h in batch.holes[2:]] == ["breaker"] * 4
        assert [h.attempts for h in batch.holes[2:]] == [0, 0, 0, 0]
        stats = engine.stats
        assert stats.gave_up == 2 and stats.breaker_skipped == 4
        assert stats.retries == 2  # one retry per given-up cell, none after
        assert engine.supervisor.breakers[("lusearch", "G1")].state == BREAKER_OPEN

    def test_half_open_probe_closes_recovered_family(
        self, lusearch, fast_config, monkeypatch
    ):
        family = [
            make_cell(lusearch, invocation=i, config=fast_config) for i in range(6)
        ]
        real = engine_mod.simulate_run
        failures = [2]  # fail the first two simulate calls, then recover

        def flaky(*args, **kwargs):
            if failures[0] > 0:
                failures[0] -= 1
                raise RuntimeError("injected permanent failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "simulate_run", flaky)
        engine = ExecutionEngine(
            retry=RetryPolicy(retries=0, backoff_base_s=0.001),
            supervisor=frozen_supervisor(breaker_threshold=2, probe_after=2),
        )
        batch = engine.run_cells(family, partial=True)
        # Cells 0-1 give up (trip at 2), cell 2 is the first of the two
        # probe_after skips, cell 3 probes successfully and closes the
        # breaker, cells 4-5 run.
        assert [h.reason for h in batch.holes] == ["gave_up", "gave_up", "breaker"]
        assert engine.stats.executed == 3
        assert engine.supervisor.breakers[("lusearch", "G1")].state == BREAKER_CLOSED

    def test_breaker_is_per_family(self, lusearch, fast_config, monkeypatch):
        real = engine_mod.simulate_run

        def serial_only_crash(spec, collector, *args, **kwargs):
            if collector == "Serial":
                raise RuntimeError("broken build: Serial segfaults")
            return real(spec, collector, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "simulate_run", serial_only_crash)
        cells = [
            make_cell(lusearch, collector=c, invocation=i, config=fast_config)
            for c in ("Serial", "G1")
            for i in range(3)
        ]
        engine = ExecutionEngine(
            retry=RetryPolicy(retries=0, backoff_base_s=0.001),
            supervisor=frozen_supervisor(breaker_threshold=1),
        )
        batch = engine.run_cells(cells, partial=True)
        assert engine.stats.executed == 3  # every G1 cell ran
        assert engine.stats.gave_up == 1 and engine.stats.breaker_skipped == 2
        assert all(h.cell.collector == "Serial" for h in batch.holes)


class DrainAfter(ProgressSink):
    """Simulates the first Ctrl-C: request a graceful drain after the
    Nth finished cell (what the signal handler does, minus the signal)."""

    def __init__(self, supervisor, after):
        self.supervisor = supervisor
        self.after = after
        self.seen = 0

    def cell_finished(self, cell, result, from_cache):
        self.seen += 1
        if self.seen >= self.after:
            self.supervisor.request_drain("SIGINT")


class TestGracefulDrain:
    def test_drain_flushes_then_resume_completes_bit_identically(
        self, lusearch, fast_config, tmp_path, monkeypatch
    ):
        cells = [make_cell(lusearch, invocation=i, config=fast_config) for i in range(6)]
        clean = ExecutionEngine().run_cells(cells)
        cache = tmp_path / "cache"
        journal = tmp_path / "journal.jsonl"
        stream = io.StringIO()
        sup = Supervisor(stream=stream, resume_hint="re-run to continue")
        engine = ExecutionEngine(
            cache_dir=cache,
            checkpoint=journal,
            progress=DrainAfter(sup, 2),
            supervisor=sup,
        )
        batch = engine.run_cells(cells, partial=True)
        # Two cells finished before the "signal"; the rest drained.
        assert engine.stats.executed == 2 and engine.stats.drained == 4
        assert [h.reason for h in batch.holes] == ["drained"] * 4
        # Everything completed is durable: journalled and cached.
        assert len(CheckpointJournal(journal)) == 2
        assert "drained cleanly" in stream.getvalue()
        assert "re-run to continue" in stream.getvalue()

        real = engine_mod.simulate_run
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "simulate_run", counting)
        resumed = ExecutionEngine(cache_dir=cache, checkpoint=journal)
        results = resumed.run_cells(cells)
        assert len(calls) == 4  # only the drained cells re-execute
        assert resumed.stats.cached == 2 and resumed.stats.resumed == 2
        assert [payload(r) for r in results] == [payload(r) for r in clean]

    def test_drain_refuses_pool_cells_promptly(self, lusearch, fast_config):
        cells = [make_cell(lusearch, invocation=i, config=fast_config) for i in range(6)]
        sup = Supervisor(stream=io.StringIO())
        sup.request_drain("SIGTERM")  # drain before anything starts
        engine = ExecutionEngine(jobs=2, supervisor=sup)
        batch = engine.run_cells(cells, partial=True)
        assert engine.stats.executed == 0 and engine.stats.drained == 6
        assert all("SIGTERM" in h.error for h in batch.holes)


class TestHoleTaxonomy:
    """Every Hole.reason round-trips through run_plan(partial=True) and
    lands in exactly one cell-level EngineStats field."""

    HOLE_FIELDS = ("gave_up", "budget_skipped", "breaker_skipped", "drained")

    def hole_counts(self, stats):
        return {f: getattr(stats, f) for f in self.HOLE_FIELDS}

    def run(self, spec, engine, collectors=("G1",), multiples=(2.0, 3.0)):
        config = RunConfig(invocations=1, iterations=2, duration_scale=0.05)
        plan = plan_lbo(spec, collectors, multiples, config)
        return run_plan(plan, engine, partial=True, return_stats=True)

    def test_reasons_are_the_documented_vocabulary(self):
        assert set(HOLE_REASONS) == {"gave_up", "timeout"} | set(SUPERVISED_REASONS)

    def test_gave_up_round_trip(self, lusearch, monkeypatch):
        monkeypatch.setattr(
            engine_mod,
            "simulate_run",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("permanent")),
        )
        engine = ExecutionEngine(retry=RetryPolicy(retries=1, backoff_base_s=0.001))
        # Every group is holed, so LBO assembly has nothing to build
        # from — but the holes and stats must still be accounted.
        result, holes, _ = self.run(lusearch, engine)
        assert result is None and len(holes) == 2
        assert self.hole_counts(engine.stats) == {
            "gave_up": 2, "budget_skipped": 0, "breaker_skipped": 0, "drained": 0,
        }

    def test_timeout_round_trip(self, lusearch):
        config = RunConfig(invocations=1, iterations=2, duration_scale=0.05)
        plan = plan_lbo(lusearch, ("G1",), (2.0, 3.0), config)
        keys = [cell_key(c) for c in plan.cells()]
        # A seed under which exactly one of the two cells hangs attempt 0.
        seed = next(
            s for s in range(1000)
            if (_uniform(s, keys[0], 0) < 0.5) != (_uniform(s, keys[1], 0) < 0.5)
        )
        engine = ExecutionEngine(
            retry=RetryPolicy(retries=0, cell_timeout_s=0.2, backoff_base_s=0.001),
            injector=FaultInjector(FaultSpec(seed=seed, hang=0.5, hang_s=10.0)),
        )
        result, holes, stats = run_plan(
            plan, engine, partial=True, return_stats=True
        )
        assert [h.reason for h in holes] == ["timeout"]
        assert holes[0].attempts == 1
        assert stats.timeouts == 1  # the attempt-level counter still moves
        assert self.hole_counts(stats) == {
            "gave_up": 1, "budget_skipped": 0, "breaker_skipped": 0, "drained": 0,
        }
        assert len(result.per_benchmark) == 1  # the other group assembled

    def test_budget_round_trip(self, lusearch):
        engine = ExecutionEngine(supervisor=frozen_supervisor(budget_s=1e-9))
        result, holes, stats = self.run(lusearch, engine)
        assert [h.reason for h in holes] == ["budget"]
        assert self.hole_counts(stats) == {
            "gave_up": 0, "budget_skipped": 1, "breaker_skipped": 0, "drained": 0,
        }
        assert result.per_benchmark  # the admitted group still assembled

    def test_breaker_round_trip(self, lusearch, monkeypatch):
        real = engine_mod.simulate_run

        def serial_only_crash(spec, collector, *args, **kwargs):
            if collector == "Serial":
                raise RuntimeError("broken build")
            return real(spec, collector, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "simulate_run", serial_only_crash)
        engine = ExecutionEngine(
            retry=RetryPolicy(retries=0, backoff_base_s=0.001),
            supervisor=frozen_supervisor(breaker_threshold=1),
        )
        result, holes, stats = self.run(
            lusearch, engine, collectors=("Serial", "G1")
        )
        assert sorted(h.reason for h in holes) == ["breaker", "gave_up"]
        assert self.hole_counts(stats) == {
            "gave_up": 1, "budget_skipped": 0, "breaker_skipped": 1, "drained": 0,
        }
        assert result.per_benchmark  # G1 groups assembled

    def test_drained_round_trip(self, lusearch):
        sup = Supervisor(stream=io.StringIO())
        engine = ExecutionEngine(
            progress=DrainAfter(sup, 1), supervisor=sup
        )
        result, holes, stats = self.run(lusearch, engine)
        assert [h.reason for h in holes] == ["drained"]
        assert self.hole_counts(stats) == {
            "gave_up": 0, "budget_skipped": 0, "breaker_skipped": 0, "drained": 1,
        }

    def test_stats_delta_carries_supervision_fields(self):
        stats = EngineStats(budget_skipped=3, breaker_skipped=2, drained=1)
        delta = stats.minus(EngineStats(budget_skipped=1))
        assert (delta.budget_skipped, delta.breaker_skipped, delta.drained) == (2, 2, 1)


class TestSupervisedSweep:
    def test_total_refusal_yields_no_result_not_an_error(self, lusearch):
        sup = frozen_supervisor(budget_s=1e-9)
        sup.observe("lusearch", "G1", 1.0)  # evidence: even cell 1 refused
        campaign = run_campaign(
            "lbo",
            lusearch,
            collectors=("G1",),
            multiples=(2.0,),
            config=RunConfig(invocations=2, iterations=2, duration_scale=0.05),
            supervisor=sup,
        )
        assert campaign.result is None and campaign.holes
        assert campaign.cells == 2 and len(campaign.holes) == 2
        assert campaign.stats.budget_skipped == 2

    def test_unconstrained_sweep_matches_plain_run(self, lusearch):
        config = RunConfig(invocations=2, iterations=2, duration_scale=0.05)
        campaign = run_campaign(
            "lbo",
            lusearch,
            collectors=("G1",),
            multiples=(2.0, 3.0),
            config=config,
            supervisor=Supervisor(stream=io.StringIO()),
        )
        assert not campaign.holes and not campaign.drained
        baseline = run_plan(plan_lbo(lusearch, ("G1",), (2.0, 3.0), config))
        assert campaign.result.per_benchmark == baseline.per_benchmark

    def test_strict_campaign_raises_on_a_refused_cell(self, lusearch):
        sup = frozen_supervisor(budget_s=1e-9)
        sup.observe("lusearch", "G1", 1.0)
        with pytest.raises(CellExecutionError):
            run_campaign(
                "lbo",
                lusearch,
                collectors=("G1",),
                multiples=(2.0,),
                config=RunConfig(invocations=2, iterations=2, duration_scale=0.05),
                supervisor=sup,
                strict=True,
            )


class TestSupervisionObservability:
    def test_events_metrics_and_trace(self, lusearch, fast_config):
        family = [
            make_cell(lusearch, invocation=i, config=fast_config) for i in range(4)
        ]
        engine = crash_engine(threshold=2, retries=0)
        engine.recorder = Recorder()
        engine.run_cells(family, partial=True)
        events = engine.recorder.events()
        opened = [e for e in events if isinstance(e, BreakerOpened)]
        assert len(opened) == 1
        assert opened[0].family == "lusearch/G1" and opened[0].failures == 2
        registry = MetricsRegistry()
        registry.ingest(events)
        assert registry.counter("supervision.breaker_opened").value == 1
        assert validate_chrome_trace(chrome_trace(events)) == []

    def test_budget_and_drain_events(self, cells):
        sup = frozen_supervisor(budget_s=1e-9)
        engine = ExecutionEngine(supervisor=sup)
        engine.recorder = Recorder()
        engine.run_cells(cells[:2], partial=True)
        sup.request_drain("SIGTERM")
        engine.run_cells(cells[2:], partial=True)
        events = engine.recorder.events()
        budget = [e for e in events if isinstance(e, BudgetExceeded)]
        drains = [e for e in events if isinstance(e, DrainStarted)]
        assert len(budget) == 1 and budget[0].family == "lusearch/G1"
        assert len(drains) == 1 and drains[0].signal == "SIGTERM"
        registry = MetricsRegistry()
        registry.ingest(events)
        assert registry.counter("supervision.budget_exceeded").value == 1
        assert registry.counter("supervision.drains").value == 1
        # Incidents were consumed into the recording, not retained.
        assert sup.incidents == []

    def test_log_sink_reports_supervised_skips(self, cells):
        stream = io.StringIO()
        engine = ExecutionEngine(
            progress=LogSink(stream),
            supervisor=frozen_supervisor(budget_s=1e-9),
        )
        engine.run_cells(cells, partial=True)
        text = stream.getvalue()
        assert "SKIPPED (budget)" in text
        assert "supervisor skipped 3 over budget" in text


class TestJournalDurability:
    def test_record_fsyncs_every_append(self, tmp_path, monkeypatch):
        import os as os_mod

        synced = []
        real = os_mod.fsync
        monkeypatch.setattr(os_mod, "fsync", lambda fd: synced.append(fd) or real(fd))
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.record("a" * 64)
        journal.record("b" * 64)
        assert len(synced) == 2


class TestTimeoutThreads:
    def test_attempt_threads_are_named_for_their_cell(self):
        names = []

        def capture(payload):
            names.append(threading.current_thread().name)
            return "ok"

        assert _call_with_timeout(capture, None, 5.0, "feedbeef" + "0" * 56) == "ok"
        assert names == ["chopin-cell-feedbeef"]

    def test_abandoned_hang_exits_promptly(self):
        exited = threading.Event()

        def hang(payload):
            flag = threading.current_thread().abandoned
            flag.wait(60.0)  # a cooperative sleeper, like an injected hang
            assert flag.is_set()
            exited.set()

        started = time.monotonic()
        with pytest.raises(CellTimeout):
            _call_with_timeout(hang, None, 0.05, "a" * 64)
        # The abandonment flag wakes the sleeper immediately: the thread
        # exits now, not 60 seconds from now.
        assert exited.wait(5.0)
        assert time.monotonic() - started < 10.0

    def test_abandoned_result_is_dropped_not_raised(self):
        def slow_error(payload):
            threading.current_thread().abandoned.wait(0.2)
            raise RuntimeError("from the abandoned thread")

        with pytest.raises(CellTimeout):
            _call_with_timeout(slow_error, None, 0.05, "b" * 64)


class TestRetryPolicyValidation:
    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=2).delay_s("a" * 64, -1)


class TestEngineFromEnv:
    def test_budget_and_breaker_parsed(self):
        engine = engine_from_env({"CHOPIN_BUDGET": "600", "CHOPIN_BREAKER": "3"})
        assert engine.supervised
        assert engine.supervisor.budget_s == 600.0
        assert engine.supervisor.breaker_threshold == 3

    def test_unset_leaves_engine_unsupervised(self):
        assert not engine_from_env({}).supervised

    @pytest.mark.parametrize(
        "env, variable",
        [
            ({"CHOPIN_BUDGET": "-5"}, "CHOPIN_BUDGET"),
            ({"CHOPIN_BUDGET": "0"}, "CHOPIN_BUDGET"),
            ({"CHOPIN_BUDGET": "soon"}, "CHOPIN_BUDGET"),
            ({"CHOPIN_BREAKER": "0"}, "CHOPIN_BREAKER"),
            ({"CHOPIN_BREAKER": "-1"}, "CHOPIN_BREAKER"),
            ({"CHOPIN_BREAKER": "many"}, "CHOPIN_BREAKER"),
        ],
    )
    def test_invalid_values_name_the_variable(self, env, variable):
        with pytest.raises(ValueError, match=variable):
            engine_from_env(env)


def write_cached(tmp_path, cells):
    """Run cells into a cache at tmp_path/cache; returns (cache_root, results)."""
    root = tmp_path / "cache"
    engine = ExecutionEngine(cache_dir=root)
    results = engine.run_cells(cells)
    return root, results


class TestDoctorScan:
    def test_clean_cache_scans_healthy(self, tmp_path, cells):
        root, _ = write_cached(tmp_path, cells)
        scan = scan_cache(root)
        assert scan.scanned == 4 and scan.healthy == 4
        assert scan.unhealthy == 0 and scan.quarantined == 0

    def test_corrupt_entry_quarantined(self, tmp_path, cells):
        root, _ = write_cached(tmp_path, cells)
        cache = ResultCache(root)
        victim = cache.path_for(cell_key(cells[0]))
        victim.write_bytes(b"\x00not a pickle")
        scan = scan_cache(root)
        assert scan.corrupt == 1 and scan.quarantined == 1
        assert not victim.exists()
        assert (root / "_quarantine" / victim.name).exists()
        # The engine now treats the slot as a plain miss, not corruption.
        healed = ExecutionEngine(cache_dir=root)
        healed.run_cells(cells)
        assert healed.stats.corrupt == 0 and healed.stats.executed == 1

    def test_stale_entry_quarantined(self, tmp_path, cells):
        root, results = write_cached(tmp_path, cells)
        key = cell_key(cells[1])
        path = ResultCache(root).path_for(key)
        stale = pickle.loads(path.read_bytes())
        del stale.__dict__["timed"]  # as if pickled under an old schema
        path.write_bytes(pickle.dumps(stale))
        scan = scan_cache(root)
        assert scan.stale == 1 and scan.quarantined == 1

    def test_misplaced_entry_quarantined(self, tmp_path, cells):
        root, _ = write_cached(tmp_path, cells)
        cache = ResultCache(root)
        src = cache.path_for(cell_key(cells[2]))
        wrong = root / "ff" / ("f" * 64 + ".pkl")
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(src.read_bytes())
        scan = scan_cache(root)
        assert scan.misplaced == 1 and scan.healthy == 4

    def test_dry_run_reports_without_moving(self, tmp_path, cells):
        root, _ = write_cached(tmp_path, cells)
        victim = ResultCache(root).path_for(cell_key(cells[0]))
        victim.write_bytes(b"garbage")
        scan = scan_cache(root, quarantine=False)
        assert scan.corrupt == 1 and scan.quarantined == 0
        assert victim.exists()

    def test_missing_root_is_empty_scan(self, tmp_path):
        scan = scan_cache(tmp_path / "nope")
        assert scan.scanned == 0


class TestDoctorJournal:
    def test_compacts_torn_and_duplicate_lines(self, tmp_path):
        import json

        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record("a" * 64)
        journal.record("b" * 64)
        with path.open("a") as fh:
            # A duplicate append (two racing writers) and a torn tail
            # (a writer killed mid-append) — record() itself never
            # produces either, which is exactly why the doctor exists.
            fh.write(json.dumps({"key": "a" * 64, "oom": False}) + "\n")
            fh.write('{"key": "c')
        report = compact_journal(path)
        assert report.compacted
        assert (report.lines_before, report.lines_after) == (4, 2)
        assert (report.torn, report.duplicates) == (1, 1)
        # The compacted journal still resumes the same cells.
        assert CheckpointJournal(path).completed() == {"a" * 64, "b" * 64}

    def test_clean_journal_left_untouched(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record("a" * 64)
        before = path.stat().st_mtime_ns
        report = compact_journal(path)
        assert not report.compacted
        assert path.stat().st_mtime_ns == before

    def test_missing_journal_is_a_noop(self, tmp_path):
        report = compact_journal(tmp_path / "nope.jsonl")
        assert not report.compacted and report.lines_before == 0


class TestDoctorVerify:
    def test_verifies_and_quarantines_divergent_payloads(self, tmp_path, cells):
        root, results = write_cached(tmp_path, cells)
        # Poison one entry with a *plausible* wrong result: a different
        # cell's payload filed (valid, unpickles fine) under this key.
        cache = ResultCache(root)
        import dataclasses as dc

        poisoned_key = cell_key(cells[0])
        donor = next(r for r in results if r.key != poisoned_key)
        cache.put(dc.replace(donor, key=poisoned_key))
        report = verify_cells(cells, root, sample=4)
        assert report.sampled == 4
        assert report.matched == 3 and report.mismatched == 1
        assert report.divergent_keys == [poisoned_key]
        assert report.quarantined == 1
        assert cache.get(poisoned_key) is None  # moved out of the cache

    def test_sample_bounds_work(self, tmp_path, cells):
        root, _ = write_cached(tmp_path, cells)
        report = verify_cells(cells, root, sample=2)
        assert report.sampled == 2 and report.mismatched == 0
        with pytest.raises(ValueError):
            verify_cells(cells, root, sample=0)
