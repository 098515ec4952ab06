"""The Campaign layer: one execution/planning/serving stack, three kinds.

The contracts under test (see ``repro.harness.experiments.run_campaign``):

- **Min-heap bit-identity** — the engine-backed probe schedule is the
  same generator ``find_min_heap`` drives inline, so the reported minima
  are exactly the legacy search's for every (workload, collector) pair,
  and a warm cache answers a repeat search with zero new simulations.
- **Golden latency values** — metered-latency percentiles are pinned
  per smoothing window (including full smoothing) for three
  latency-sensitive workloads, so any change to the replay seed, the
  smoothing kernel, or the percentile math is a loud failure.
- **Service parity** — a latency or min-heap job submitted to the sweep
  service renders byte-identical output to the one-shot CLI, and a
  journal written before ``JobSpec.kind`` existed replays as LBO jobs.
- **Adaptive campaigns** — latency and min-heap acquisition reach the
  fixed grid's answers at well under the full grid's cell count, with
  every executed cell bit-identical to the grid (shared cache keys) and
  schedules byte-identical across repeat runs.
"""

import io
import json

import pytest

from repro import RunConfig, registry
from repro.core.latency import FULL_SMOOTHING
from repro.core.minheap import find_min_heap
from repro.harness import experiments
from repro.harness.cli import main as cli_main
from repro.harness.engine import Cell, ExecutionEngine
from repro.harness.experiments import (
    latency_experiment,
    minheap_experiment,
    run_campaign,
)
from repro.harness.plans import (
    PLAN_KINDS,
    plan_adaptive,
    plan_latency,
    plan_minheap,
    run_adaptive,
    run_plan,
)
from repro.jvm.collectors import COLLECTOR_NAMES
from repro.resilience import CellExecutionError, Supervisor
from repro.service import JobQueue, JobSpec, SweepService

QUICK = RunConfig(invocations=2, duration_scale=0.05)
SCALE = 0.02  # full-suite sweeps stay fast at this duration scale


# Pinned with RunConfig(invocations=2, duration_scale=0.05), G1, 2.0x —
# regenerate via latency_experiment if the simulator model changes
# intentionally. Keys: "simple" plus each smoothing window in seconds
# (FULL_SMOOTHING = None); values: {percentile: latency_s}.
LATENCY_GOLDENS = {
    "cassandra": {
        "simple": {50: 0.0013447029724608997, 99: 0.010145535745513322, 99.9: 0.020074106747823832},
        0.001: {50: 0.0013907337997622476, 99: 0.010145535745513322, 99.9: 0.020093672178500863},
        0.01: {50: 0.0015031793335552046, 99: 0.010145535745513322, 99.9: 0.020385845925058564},
        0.1: {50: 0.001457975648820109, 99: 0.010145535745513322, 99.9: 0.020074106747823832},
        1.0: {50: 0.0024166200433227425, 99: 0.01105457664120551, 99.9: 0.02189215016061951},
        10.0: {50: 0.0024166200433227425, 99: 0.01105457664120551, 99.9: 0.02189215016061951},
        FULL_SMOOTHING: {50: 0.0024166200433227425, 99: 0.01105457664120551, 99.9: 0.02189215016061951},
    },
    "spring": {
        "simple": {50: 0.0010873019052607402, 99: 0.007036165257624101, 99.9: 0.01345471802017651},
        0.001: {50: 0.001186805516372188, 99: 0.007036165257624101, 99.9: 0.013509104736638964},
        0.01: {50: 0.0015600352270072823, 99: 0.007469295881495885, 99.9: 0.013907039841938274},
        0.1: {50: 0.0016603360378541626, 99: 0.007406876545351861, 99.9: 0.013925091686741609},
        1.0: {50: 0.0014184754652320775, 99: 0.007194538748870277, 99.9: 0.013505872673828186},
        10.0: {50: 0.0014184754652320775, 99: 0.007194538748870277, 99.9: 0.013505872673828186},
        FULL_SMOOTHING: {50: 0.0014184754652320775, 99: 0.007194538748870277, 99.9: 0.013505872673828186},
    },
    "tomcat": {
        "simple": {50: 0.002214307339054842, 99: 0.014278092846082798, 99.9: 0.02622279928857553},
        0.001: {50: 0.0022723792172032985, 99: 0.014278092846082798, 99.9: 0.0262712977254706},
        0.01: {50: 0.0023435436171622857, 99: 0.014280453011121866, 99.9: 0.02629056695623984},
        0.1: {50: 0.0022395019689745374, 99: 0.014278462629778164, 99.9: 0.02622279928857553},
        1.0: {50: 0.002214307339054842, 99: 0.014278092846082798, 99.9: 0.02622279928857553},
        10.0: {50: 0.002214307339054842, 99: 0.014278092846082798, 99.9: 0.02622279928857553},
        FULL_SMOOTHING: {50: 0.002214307339054842, 99: 0.014278092846082798, 99.9: 0.02622279928857553},
    },
}


class TestLatencyGoldens:
    @pytest.mark.parametrize("bench", sorted(LATENCY_GOLDENS))
    def test_percentiles_pinned_per_window(self, bench):
        report = latency_experiment(
            registry.workload(bench), "G1", 2.0, QUICK
        ).report
        golden = LATENCY_GOLDENS[bench]
        for q, want in golden["simple"].items():
            assert report.simple[q] == want
        for window, ladder in golden.items():
            if window == "simple":
                continue
            for q, want in ladder.items():
                assert report.metered_at(window)[q] == want, (bench, window, q)


class TestCampaignEntryPoint:
    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_one_plan_run_and_no_implicit_supervisor(self, kind, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return run_plan(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_plan", counting)
        engine = ExecutionEngine()
        campaign = run_campaign(
            kind, registry.workload("cassandra"), ("G1",), (2.0,), QUICK, engine
        )
        assert len(calls) == 1 and calls[0]["supervisor"] is None
        assert not engine.supervised and not campaign.empty

    def test_supervisor_is_scoped_to_one_run(self):
        spec = registry.workload("lusearch")
        engine = ExecutionEngine()
        # A frozen clock and a spent budget: the first cell has no cost
        # evidence and runs, the second is refused.
        spent = Supervisor(budget_s=1e-9, clock=lambda: 0.0, stream=io.StringIO())
        first = run_campaign("lbo", spec, ("G1",), (2.0,), QUICK, engine, supervisor=spent)
        assert [h.reason for h in first.holes] == ["budget"]
        later = run_campaign("lbo", spec, ("G1",), (2.0,), QUICK, engine)
        assert later.result is not None and not later.holes
        assert not engine.supervised

        draining = Supervisor(stream=io.StringIO())
        draining.request_drain("test")
        with pytest.raises(CellExecutionError):
            run_campaign(
                "lbo", spec, ("G1",), (2.0,), QUICK, engine,
                supervisor=draining, strict=True,
            )
        assert not engine.supervised

        # An engine built with a supervisor keeps it across runs that
        # pass it again, as the CLI does.
        own = Supervisor(stream=io.StringIO())
        supervised = ExecutionEngine(supervisor=own)
        run_campaign("lbo", spec, ("G1",), (2.0,), QUICK, supervised, supervisor=own)
        assert supervised.supervised and supervised.supervisor is own

    def test_partial_lbo_keeps_the_benchmarks_that_finished(self):
        class RefuseFop(Supervisor):
            def admit(self, workload, collector):
                if workload == "fop":
                    return ("budget", "refused by the test")
                return super().admit(workload, collector)

        config = RunConfig(invocations=1, duration_scale=0.05)
        lusearch, fop = registry.workload("lusearch"), registry.workload("fop")
        campaign = run_campaign(
            "lbo", [lusearch, fop], ("G1",), (2.0,), config, ExecutionEngine(),
            supervisor=RefuseFop(stream=io.StringIO()),
        )
        assert not campaign.empty
        assert [h.cell.spec.name for h in campaign.holes] == ["fop"]
        assert [c.benchmark for c in campaign.result.per_benchmark] == ["lusearch"]
        # A suite geomean needs every benchmark, so a partial suite has none.
        assert campaign.result.geomean_wall == {} == campaign.result.geomean_task
        alone = run_campaign("lbo", lusearch, ("G1",), (2.0,), config, ExecutionEngine())
        assert campaign.rendered() == alone.rendered()

        nothing = run_campaign(
            "lbo", fop, ("G1",), (2.0,), config, ExecutionEngine(),
            supervisor=RefuseFop(stream=io.StringIO()),
        )
        assert nothing.result is None and nothing.empty


class TestMinHeapCampaign:
    def test_engine_search_matches_legacy_all_pairs(self):
        """All 22 workloads x 5 collectors: the engine-backed campaign
        reproduces find_min_heap exactly (same generator, same probes)."""
        config = RunConfig(invocations=1, duration_scale=SCALE)
        engine = ExecutionEngine()
        results = {
            (r.benchmark, r.collector): r.min_heap_mb
            for spec in registry.all_workloads()
            for r in minheap_experiment(spec, COLLECTOR_NAMES, config, engine=engine)
        }
        for spec in registry.all_workloads():
            for collector in COLLECTOR_NAMES:
                legacy = find_min_heap(spec, collector, duration_scale=SCALE)
                assert results[(spec.name, collector)] == legacy.min_heap_mb

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        config = RunConfig(invocations=1, duration_scale=SCALE)
        engine = ExecutionEngine(cache_dir=tmp_path / "cache")
        spec = registry.workload("lusearch")
        cold = minheap_experiment(spec, COLLECTOR_NAMES, config, engine=engine)
        executed_cold = engine.stats.executed
        assert executed_cold > 0
        warm = minheap_experiment(spec, COLLECTOR_NAMES, config, engine=engine)
        assert engine.stats.executed == executed_cold  # zero re-simulations
        assert warm == cold

    def test_cli_minheap_renders_table(self, capsys):
        assert cli_main(
            ["minheap", "lusearch", "--invocations", "1", "--scale", "0.05",
             "--collector", "G1"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("Minimum heap (MB)\n")
        assert "lusearch" in out and "G1" in out

    def test_campaign_strict_default_drops_infeasible_pairs(self):
        config = RunConfig(invocations=1, duration_scale=SCALE)
        campaign = run_campaign(
            "minheap", registry.workload("fop"), ("Serial",), config=config
        )
        assert campaign.kind == "minheap"
        assert not campaign.empty
        assert campaign.cells == campaign.stats.executed  # no cache, no holes


class TestCampaignService:
    def _run_job(self, tmp_path, spec: JobSpec):
        svc = SweepService(tmp_path / "state", port=0)
        worker = svc.make_worker()
        job, _ = svc.submit(spec)
        assert svc.queue.claim(timeout=1.0) is job
        worker.execute(job)
        return job

    def test_latency_job_byte_identical_to_cli(self, tmp_path, capsys):
        job = self._run_job(
            tmp_path,
            JobSpec(benchmark="spring", kind="latency", multiples=(2.0,),
                    invocations=2, scale=0.05),
        )
        assert job.state == "DONE"
        assert cli_main(
            ["latency", "spring", "--invocations", "2", "--scale", "0.05"]
        ) == 0
        assert job.result["rendered"] == capsys.readouterr().out
        assert job.result["reports"][0]["collector"] == COLLECTOR_NAMES[0]

    def test_minheap_job_byte_identical_to_cli(self, tmp_path, capsys):
        job = self._run_job(
            tmp_path,
            JobSpec(benchmark="lusearch", kind="minheap", invocations=1, scale=0.05),
        )
        assert job.state == "DONE"
        assert cli_main(
            ["minheap", "lusearch", "--invocations", "1", "--scale", "0.05"]
        ) == 0
        assert job.result["rendered"] == capsys.readouterr().out
        minima = {r["collector"]: r["min_heap_mb"] for r in job.result["results"]}
        assert set(minima) == set(COLLECTOR_NAMES)

    def test_kindless_journal_replays_as_lbo(self, tmp_path):
        """A journal written before JobSpec.kind existed replays without
        error, every job defaulting to kind='lbo'."""
        journal = tmp_path / "jobs.jsonl"
        first = JobQueue(journal)
        first.submit(JobSpec(benchmark="lusearch", collectors=("G1",),
                             multiples=(2.0,), invocations=1, scale=0.05))
        # Strip the kind field from every journalled spec, simulating a
        # pre-refactor service's journal.
        lines = []
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            if isinstance(record.get("spec"), dict):
                record["spec"].pop("kind", None)
            lines.append(json.dumps(record, sort_keys=True))
        journal.write_text("\n".join(lines) + "\n")

        replayed = JobQueue(journal)
        jobs = replayed.jobs()
        assert len(jobs) == 1
        assert jobs[0].spec.kind == "lbo"
        assert jobs[0].state == "QUEUED"
        # And a restarted *service* over the same journal runs it as lbo.
        state = tmp_path / "state"
        state.mkdir()
        (state / "jobs.jsonl").write_text(journal.read_text())
        svc = SweepService(state, port=0)
        worker = svc.make_worker()
        job = svc.queue.claim(timeout=1.0)
        assert job is not None and job.spec.kind == "lbo"
        worker.execute(job)
        assert job.state == "DONE"
        assert job.result["rendered"]

    def test_latency_job_admission_mirrors_cli(self, tmp_path):
        """POST /jobs rejects latency jobs the CLI would refuse to run."""
        svc = SweepService(tmp_path / "state", port=0).start()
        try:
            from repro.service import ServiceClient, ServiceError

            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            with pytest.raises(ServiceError, match="not a latency-sensitive"):
                client.submit(JobSpec(benchmark="fop", kind="latency"))
            with pytest.raises(ServiceError, match="per-event"):
                client.submit(
                    JobSpec(benchmark="spring", kind="latency", fidelity="aggregate")
                )
            with pytest.raises(ValueError, match="kind"):
                JobSpec.from_payload({"benchmark": "fop", "kind": "nonsense"})
        finally:
            svc.stop("test")


class TestAdaptiveCampaigns:
    def test_latency_campaign_matches_grid_under_budget(self, tmp_path):
        """Adaptive latency reaches the grid's reports bit-identically at
        every measured point, at <= 60% of the grid's cells."""
        spec = registry.workload("lusearch")
        collectors = ("Serial", "G1", "ZGC")
        multiples = (1.0, 2.0, 3.0, 6.0)
        config = RunConfig(invocations=2, duration_scale=0.05)
        cache = tmp_path / "cache"
        engine = ExecutionEngine(cache_dir=cache)

        grid_runs = run_plan(
            plan_latency(spec, collectors, multiples, config), engine
        )
        grid = {
            (r.collector, r.heap_multiple): r.report for r in grid_runs
        }
        grid_cells = len(collectors) * len(multiples) * config.invocations
        executed_grid = engine.stats.executed

        plan = plan_adaptive(spec, collectors, multiples, config, kind="latency")
        result = run_adaptive(plan, engine=engine)
        assert result.cells_executed <= 0.6 * grid_cells
        # Executed cells are bit-identical to the grid: the warm cache
        # answered every one of them, zero fresh simulations.
        assert engine.stats.executed == executed_grid
        assert result.reports
        for (benchmark, collector, multiple), report in result.reports.items():
            want = grid[(collector, multiple)]
            assert report.simple == want.simple
            assert report.metered == want.metered
            assert report.grade is not None  # CV grade folded in

    def test_minheap_campaign_matches_grid_exactly(self, tmp_path):
        """Adaptive min-heap finds each collector's smallest feasible grid
        multiple — the full grid's answer — at <= 60% of its cells."""
        spec = registry.workload("lusearch")
        multiples = (0.9, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 6.0)
        config = RunConfig(invocations=1, duration_scale=0.05)
        cache = tmp_path / "cache"
        engine = ExecutionEngine(cache_dir=cache)

        # Ground truth: probe every candidate cell of the grid.
        grid_plan = plan_minheap(
            spec, COLLECTOR_NAMES, config, multiples=multiples
        )
        truth = {}
        for collector in COLLECTOR_NAMES:
            cells = [
                Cell(
                    spec=spec,
                    collector=collector,
                    heap_mb=spec.heap_mb_for(multiple),
                    invocation=0,
                    config=grid_plan.config,
                )
                for multiple in multiples
            ]
            feasible = [
                multiple
                for multiple, result in zip(multiples, engine.run_cells(cells))
                if result.oom is None
            ]
            if feasible:
                truth[(spec.name, collector)] = min(feasible)
        grid_cells = len(COLLECTOR_NAMES) * len(multiples)
        executed_grid = engine.stats.executed

        # Budget the full grid so the bisection always settles; the
        # assertion below is that it never needs anywhere near that.
        plan = plan_adaptive(
            spec, COLLECTOR_NAMES, multiples, config, kind="minheap",
            cell_budget=grid_cells,
        )
        result = run_adaptive(plan, engine=engine)
        assert result.min_multiples == truth
        assert result.cells_executed <= 0.6 * grid_cells
        assert engine.stats.executed == executed_grid  # all warm hits

    @pytest.mark.parametrize("kind", ["latency", "minheap"])
    def test_schedules_byte_identical_across_runs(self, kind, tmp_path):
        spec = registry.workload("lusearch")
        collectors = ("Serial", "G1")
        multiples = (1.0, 2.0, 3.0)
        config = RunConfig(invocations=2, duration_scale=0.05)

        def schedule(cache_dir):
            engine = ExecutionEngine(cache_dir=cache_dir)
            plan = plan_adaptive(
                spec, collectors, multiples, config, kind=kind, seed=7
            )
            return run_adaptive(plan, engine=engine).schedule

        first = schedule(tmp_path / "a")
        second = schedule(tmp_path / "b")
        assert first == second
        assert first  # non-empty

    def test_plan_cli_minheap_smoke(self, capsys):
        assert cli_main(
            ["plan", "lusearch", "--kind", "minheap",
             "--invocations", "1", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan lusearch [minheap]: grid" in out
        assert "minimum feasible grid multiples" in out
        assert "adaptive: executed" in out

    def test_plan_cli_latency_smoke(self, capsys):
        assert cli_main(
            ["plan", "lusearch", "--kind", "latency",
             "--invocations", "2", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan lusearch [latency]: grid" in out
        assert "latency tails" in out

    def test_plan_cli_rejects_non_latency_workload(self):
        with pytest.raises(SystemExit, match="latency-sensitive"):
            cli_main(["plan", "fop", "--kind", "latency"])
