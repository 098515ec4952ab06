"""The sweep service: sharded cache, job queue, HTTP API, CLI verbs.

The contracts under test (see ``repro.service``):

- **Bit-identity** — an HTTP-submitted sweep produces byte-identical
  rendered output to one-shot ``chopin lbo``, under the same cache keys,
  so a warm service cache means zero simulations on resubmit *and* on a
  one-shot run pointed at the same cache directory.
- **Multi-tenancy** — concurrent clients with overlapping sweeps never
  corrupt a cache entry and never simulate a shared cell twice.
- **Durability** — the journaled queue resumes QUEUED and RUNNING jobs
  across a service restart; terminal results survive with their payloads.
- **Cancellation** — a queued job cancels immediately; a running job
  drains, its unfinished cells becoming typed ``drained`` holes.
"""

import hashlib
import json
import pickle
import sys
import threading

import pytest

from repro import RunConfig, registry
from repro.harness.cli import main as cli_main
from repro.harness.config import engine_from_config, harness_config
from repro.harness.engine import (
    Cell,
    ExecutionEngine,
    ProgressSink,
    ResultCache,
    CellResult,
    cell_key,
)
from repro.resilience.doctor import scan_cache
from repro.service import (
    JobQueue,
    JobSpec,
    JobStateError,
    ServiceClient,
    ServiceError,
    ShardedResultCache,
    SweepService,
)
from repro.service.shards import HOT_SET

QUICK = RunConfig(invocations=1, duration_scale=0.05)


def _key(i: int) -> str:
    return hashlib.sha256(str(i).encode()).hexdigest()


def _negative(key: str) -> CellResult:
    """A synthetic (but valid, cacheable) negative cell result."""
    return CellResult(key=key, timed=None, oom="synthetic: heap too small")


def _quick_spec(**overrides) -> JobSpec:
    fields = dict(
        benchmark="lusearch",
        collectors=("G1",),
        multiples=(2.0,),
        invocations=1,
        scale=0.05,
    )
    fields.update(overrides)
    return JobSpec(**fields)


@pytest.fixture
def service(tmp_path):
    svc = SweepService(tmp_path / "state", port=0).start()
    yield svc
    svc.stop("test")


@pytest.fixture
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.port}", timeout_s=10.0)


class TestShardedCache:
    def test_fanout_widths(self, tmp_path):
        # One fan-out, the engine's: the width is no longer a parameter.
        key = _key(0)
        cache = ShardedResultCache(tmp_path)
        assert cache.path_for(key) == ResultCache(tmp_path).path_for(key)
        assert cache.path_for(key) == tmp_path / key[:2] / f"{key}.pkl"

    def test_rejects_bad_parameters(self, tmp_path):
        # The retired fan-out, hot-set and write-behind knobs are gone.
        for knob in ("shards", "hot_set", "write_behind"):
            with pytest.raises(TypeError, match=knob):
                ShardedResultCache(tmp_path, **{knob: 16})

    def test_round_trip_lands_in_shard(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        key = _key(1)
        cache.put(_negative(key))
        assert cache.path_for(key).exists()
        got = ShardedResultCache(tmp_path).get(key)  # a cold hot set: disk
        assert got is not None and got.key == key

    def test_retired_layouts_are_not_read(self, tmp_path):
        # An entry a retired --cache-shards value wrote (flat, one- or
        # three-hex fan-out) is a plain miss: not served, not counted
        # corrupt, not copied into the layout.
        key = _key(2)
        for retired in (
            tmp_path / f"{key}.pkl",
            tmp_path / key[:1] / f"{key}.pkl",
            tmp_path / key[:3] / f"{key}.pkl",
        ):
            retired.parent.mkdir(parents=True, exist_ok=True)
            retired.write_bytes(pickle.dumps(_negative(key)))
        cache = ShardedResultCache(tmp_path)
        assert cache.get(key) is None
        assert cache.corrupt == 0
        assert not cache.path_for(key).exists()

    def test_hot_set_serves_without_disk(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        key = _key(3)
        cache.put(_negative(key))
        cache.path_for(key).unlink()  # only the hot set can serve it now
        assert cache.get(key) is not None
        assert cache.hot_hits >= 1

    def test_hot_set_zero_reads_disk_every_time(self, tmp_path):
        # The engine's own cache has no hot set: a get after the entry is
        # gone from disk is a miss.
        engine = engine_from_config(harness_config(environ={}, cache_dir=str(tmp_path)))
        key = _key(4)
        engine.cache.put(_negative(key))
        assert engine.cache.get(key) is not None
        engine.cache.path_for(key).unlink()
        assert engine.cache.get(key) is None

    def test_hot_set_is_bounded(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        keys = [_key(i) for i in range(HOT_SET + 5)]
        for key in keys:
            cache.put(_negative(key))
        assert list(cache._hot) == keys[-HOT_SET:]
        assert cache.get(keys[-HOT_SET]) is not None  # refreshes its recency
        cache.put(_negative(_key(-1)))
        assert keys[-HOT_SET] in cache._hot and keys[-HOT_SET + 1] not in cache._hot

    def test_put_writes_through_and_flush_is_a_noop(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        key = _key(5)
        cache.put(_negative(key))
        assert cache.path_for(key).exists()  # on disk before any flush
        before = sorted(tmp_path.rglob("*"))
        assert cache.flush() is None
        assert sorted(tmp_path.rglob("*")) == before

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        key = _key(6)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"torn garbage")
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_wrong_key_entry_is_corrupt(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        key, other = _key(7), _key(8)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(_negative(other)))
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_concurrent_writers_never_corrupt(self, tmp_path):
        # N threads hammering overlapping keys: every entry readable
        # afterwards, zero corruption — the mkstemp + os.replace contract
        # — and, with a short switch interval, no lost hot-set update.
        cache = ShardedResultCache(tmp_path)
        keys = [_key(i) for i in range(20)]

        def writer(offset: int) -> None:
            for key in keys[offset:] + keys[:offset]:
                cache.put(_negative(key))
                cache.get(key)  # always a hot hit: 20 keys fit the hot set

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert cache.hot_hits == 8 * len(keys)
        assert sorted(cache._hot) == sorted(keys)
        reader = ResultCache(tmp_path)
        assert all(reader.get(key) is not None for key in keys)
        assert reader.corrupt == 0


class TestDoctorBothLayouts:
    def test_scan_counts_every_layout_once(self, tmp_path):
        # One healthy entry in each layout a cache root ever held (flat,
        # one-, two- and three-hex fan-out) plus one torn file: scanned
        # == 5, nothing double-counted, and only the entry where
        # ResultCache.path_for puts it is healthy.
        for width in (0, 1, 2, 3):
            key = _key(width)
            path = tmp_path / key[:width] / f"{key}.pkl"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps(_negative(key)))
        bad = tmp_path / "ab" / (_key(99) + ".pkl")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"rot")
        scan = scan_cache(tmp_path, quarantine=True)
        assert scan.scanned == 5
        assert scan.healthy == 1
        assert scan.misplaced == 3
        assert scan.corrupt == 1
        assert scan.quarantined == 4
        assert ResultCache(tmp_path).get(_key(2)) is not None

    def test_wrong_shard_prefix_is_misplaced(self, tmp_path):
        key = _key(10)
        wrong = tmp_path / "00" / f"{key}.pkl"
        assert not key.startswith("00")
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(pickle.dumps(_negative(key)))
        scan = scan_cache(tmp_path, quarantine=True)
        assert scan.misplaced == 1
        assert scan.quarantined == 1
        assert not wrong.exists()

    def test_quarantine_not_rescanned(self, tmp_path):
        cache = ShardedResultCache(tmp_path)
        path = cache.path_for(_key(11))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"rot")
        first = scan_cache(tmp_path, quarantine=True)
        assert first.quarantined == 1
        second = scan_cache(tmp_path, quarantine=True)
        assert second.scanned == 0


class TestJobSpec:
    def test_payload_round_trip(self):
        spec = _quick_spec(priority=3, budget_s=10.0, fidelity="aggregate")
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_errors_name_the_field(self):
        with pytest.raises(ValueError, match="benchmark"):
            JobSpec.from_payload({})
        with pytest.raises(ValueError, match="invocations"):
            JobSpec.from_payload({"benchmark": "lusearch", "invocations": 0})
        with pytest.raises(ValueError, match="scale"):
            JobSpec.from_payload({"benchmark": "lusearch", "scale": -1})
        with pytest.raises(ValueError, match="fidelity"):
            JobSpec.from_payload({"benchmark": "lusearch", "fidelity": "bogus"})
        with pytest.raises(ValueError, match="collectors"):
            JobSpec.from_payload({"benchmark": "lusearch", "collectors": "G1"})

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            JobSpec.from_payload({"benchmark": "lusearch", "bogus": 1})


class TestJobQueue:
    def test_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        job = queue.submit(_quick_spec())
        assert job.state == "QUEUED"
        claimed = queue.claim(timeout=1.0)
        assert claimed is job and job.state == "RUNNING"
        queue.finish(job.id, "DONE", cells=1)
        assert job.terminal and queue.get(job.id).state == "DONE"

    def test_priority_then_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        low = queue.submit(_quick_spec(priority=0))
        high = queue.submit(_quick_spec(priority=5))
        low2 = queue.submit(_quick_spec(priority=0))
        order = [queue.claim(timeout=1.0).id for _ in range(3)]
        assert order == [high.id, low.id, low2.id]

    def test_illegal_transition_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        job = queue.submit(_quick_spec())
        with pytest.raises(JobStateError):
            queue.finish(job.id, "DONE")  # QUEUED cannot jump to DONE
        with pytest.raises(JobStateError):
            queue.get("job-999999")

    def test_cancel_queued_running_terminal(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        queued = queue.submit(_quick_spec())
        assert queue.cancel(queued.id) == "cancelled"
        assert queued.state == "CANCELLED"
        running = queue.submit(_quick_spec())
        assert queue.claim(timeout=1.0) is running
        assert queue.cancel(running.id) == "cancelling"
        assert running.cancel_requested and running.state == "RUNNING"
        queue.finish(running.id, "CANCELLED", error="cancelled mid-sweep")
        assert queue.cancel(running.id) is None

    def test_cancelled_jobs_are_not_claimed(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        first = queue.submit(_quick_spec())
        second = queue.submit(_quick_spec())
        queue.cancel(first.id)
        assert queue.claim(timeout=1.0) is second

    def test_restart_replays_journal(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path)
        done = queue.submit(_quick_spec())
        queue.claim(timeout=1.0)
        queue.finish(done.id, "DONE", cells=2, result={"rendered": "tables\n"})
        running = queue.submit(_quick_spec())
        queue.claim(timeout=1.0)
        queued = queue.submit(_quick_spec())

        resumed = JobQueue(path)
        # Terminal jobs survive with their payloads.
        assert resumed.get(done.id).state == "DONE"
        assert resumed.get(done.id).result == {"rendered": "tables\n"}
        # The RUNNING job (its worker died with the process) is re-queued.
        assert resumed.get(running.id).state == "QUEUED"
        assert resumed.get(running.id).requeues == 1
        assert resumed.get(queued.id).state == "QUEUED"
        assert resumed.depth == 2
        # Sequence numbers continue — no id reuse after restart.
        fresh = resumed.submit(_quick_spec())
        assert fresh.id > queued.id

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path)
        job = queue.submit(_quick_spec())
        with path.open("a") as fh:
            fh.write('{"id": "job-torn", "se')  # crash mid-append
        resumed = JobQueue(path)
        assert resumed.get(job.id).state == "QUEUED"
        replacement = resumed.submit(_quick_spec())
        assert resumed.get(replacement.id).state == "QUEUED"


class TestCostModelWarmStart:
    def test_fresh_service_starts_cold(self, tmp_path):
        svc = SweepService(tmp_path / "state", port=0)
        assert len(svc.cost_model) == 0

    def test_drain_persists_and_restart_loads(self, tmp_path):
        state = tmp_path / "state"
        svc = SweepService(state, port=0)
        svc.cost_model.observe(("lusearch", "G1"), 1.5)
        svc.stop("test")
        assert (state / "costmodel.json").exists()
        reborn = SweepService(state, port=0)
        assert reborn.cost_model.estimate(("lusearch", "G1")) == 1.5

    def test_empty_model_writes_nothing_on_drain(self, tmp_path):
        state = tmp_path / "state"
        SweepService(state, port=0).stop("test")
        assert not (state / "costmodel.json").exists()

    def test_corrupt_saved_model_is_ignored_with_warning(self, tmp_path):
        import io

        state = tmp_path / "state"
        state.mkdir()
        (state / "costmodel.json").write_text("{nope")
        stream = io.StringIO()
        svc = SweepService(state, port=0, stream=stream)
        assert len(svc.cost_model) == 0
        assert "ignoring saved cost model" in stream.getvalue()


class TestServiceHTTP:
    def test_health_and_metrics(self, client):
        health = client.health()
        assert health["status"] == "healthy"
        assert health["workers"] == 1
        assert set(health["cache"]) == {"corrupt", "hot_hits"}
        assert "service.queue.depth" in client.metrics()

    def test_submit_rejects_bad_specs(self, client):
        with pytest.raises(ServiceError, match="unknown workload") as info:
            client.submit({"benchmark": "nosuch"})
        assert info.value.status == 400
        with pytest.raises(ServiceError, match="collector") as info:
            client.submit({"benchmark": "lusearch", "collectors": ["NoGC"]})
        assert info.value.status == 400
        with pytest.raises(ServiceError, match="invocations") as info:
            client.submit({"benchmark": "lusearch", "invocations": -3})
        assert info.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.status("job-424242")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/bogus")
        assert info.value.status == 404

    def test_transport_failure_is_status_zero(self, tmp_path):
        dead = SweepService(tmp_path / "dead", port=0).start()
        port = dead.port
        dead.stop("test")
        with pytest.raises(ServiceError) as info:
            ServiceClient(f"http://127.0.0.1:{port}", timeout_s=2.0).health()
        assert info.value.status == 0

    def test_result_before_terminal_is_409(self, tmp_path):
        svc = SweepService(tmp_path / "state", port=0)
        # A worker pool that never claims: jobs stay QUEUED forever,
        # making the 409 deterministic.
        idle = type("Idle", (), {"run": lambda self: None})
        svc.make_worker = lambda: idle()
        svc.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            job_id = client.submit(_quick_spec())["id"]
            assert client.status(job_id)["state"] == "QUEUED"
            with pytest.raises(ServiceError, match="not terminal") as info:
                client.result(job_id)
            assert info.value.status == 409
            assert client.cancel(job_id)["state"] == "CANCELLED"
            assert client.result(job_id)["result"] is None
        finally:
            svc.stop("test")


class TestServiceExecution:
    def test_submit_to_done_with_result(self, service, client):
        job_id = client.submit(_quick_spec())["id"]
        final = client.wait(job_id, timeout_s=60.0)
        assert final["state"] == "DONE"
        assert final["cells"] == 1
        payload = client.result(job_id)
        rendered = payload["result"]["rendered"]
        assert "normalized time overhead" in rendered
        curves = payload["result"]["curves"]
        assert curves["benchmark"] == "lusearch"
        assert curves["wall"]["G1"][0]["heap_multiple"] == 2.0

    def test_warm_resubmit_runs_zero_simulations(self, service, client):
        import repro.harness.engine as engine_mod

        spec = _quick_spec(multiples=(2.0, 3.0))
        first = client.wait(client.submit(spec)["id"], timeout_s=60.0)
        assert first["state"] == "DONE"
        assert first["stats"]["executed"] == first["cells"]
        before = engine_mod.SIMULATE_CALLS
        second = client.wait(client.submit(spec)["id"], timeout_s=60.0)
        assert second["state"] == "DONE"
        assert second["stats"]["executed"] == 0
        assert second["stats"]["cached"] == second["cells"]
        assert engine_mod.SIMULATE_CALLS == before

    def test_concurrent_overlapping_clients_never_double_simulate(
        self, service, client
    ):
        # Two tenants race overlapping grids through one service: the
        # shared cell set is simulated exactly once, every entry stays
        # healthy, and both tenants get complete results.
        shared = (2.0, 3.0)
        specs = [
            _quick_spec(multiples=shared),
            _quick_spec(multiples=shared + (4.0,)),
        ]
        ids = [None, None]

        def tenant(i: int) -> None:
            own = ServiceClient(client.base_url)
            ids[i] = own.submit(specs[i])["id"]
            own.wait(ids[i], timeout_s=120.0)

        threads = [threading.Thread(target=tenant, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        finals = [client.status(job_id) for job_id in ids]
        assert all(f["state"] == "DONE" for f in finals)
        executed = sum(f["stats"]["executed"] for f in finals)
        distinct_cells = len(shared) + 1  # union of the two grids
        assert executed == distinct_cells
        assert sum(f["stats"]["cached"] for f in finals) == (
            sum(f["cells"] for f in finals) - distinct_cells
        )
        assert service.cache.corrupt == 0

    def test_concurrent_submits_all_reach_terminal(self, service, client):
        ids = []
        lock = threading.Lock()

        def submit(i: int) -> None:
            job_id = client.submit(_quick_spec(multiples=(2.0 + i,)))["id"]
            with lock:
                ids.append(job_id)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 6  # no id collisions under racing submits
        for job_id in ids:
            assert client.wait(job_id, timeout_s=120.0)["state"] == "DONE"

    def test_cancel_mid_sweep_leaves_typed_holes(self, tmp_path):
        # Drive one worker synchronously with a progress hook that
        # cancels the job after its second cell: the drain refusal turns
        # every remaining cell into a typed "drained" hole and the job
        # lands CANCELLED, not FAILED.
        svc = SweepService(tmp_path / "state", port=0)
        worker = svc.make_worker()
        job, _ = svc.submit(_quick_spec(multiples=(2.0, 3.0, 4.0, 5.0)))
        claimed = svc.queue.claim(timeout=1.0)
        assert claimed is job

        class CancelAfter(ProgressSink):
            def __init__(self, service, job_id, after):
                self.service, self.job_id = service, job_id
                self.after, self.seen = after, 0

            def cell_finished(self, cell, result, from_cache):
                self.seen += 1
                if self.seen == self.after:
                    self.service.cancel(self.job_id)

        worker.engine.progress = CancelAfter(svc, job.id, after=2)
        worker.execute(job)
        assert job.state == "CANCELLED"
        assert job.error == "cancelled mid-sweep"
        assert len(job.holes) == 2  # 4 cells, cancelled after the second
        assert all(h["reason"] == "drained" for h in job.holes)

    def test_budget_refusals_surface_as_holes(self, tmp_path):
        svc = SweepService(tmp_path / "state", port=0)
        worker = svc.make_worker()
        job, _ = svc.submit(
            _quick_spec(multiples=(2.0, 3.0, 4.0), budget_s=1e-9)
        )
        assert svc.queue.claim(timeout=1.0) is job
        worker.execute(job)
        assert job.state in ("PARTIAL", "FAILED")
        assert job.holes
        assert all(h["reason"] in ("budget", "breaker") for h in job.holes)
        payload = job.status_payload()
        assert payload["holes"] == job.holes  # holes ride the status API

    def test_restart_resumes_queued_and_running(self, tmp_path):
        state = tmp_path / "state"
        first = SweepService(state, port=0)
        queued_job, _ = first.submit(_quick_spec())
        running_job, _ = first.submit(_quick_spec(multiples=(3.0,)))
        # Simulate a crash mid-job: claim advances one job to RUNNING,
        # then the process "dies" without finishing it.
        claimed = first.queue.claim(timeout=1.0)
        assert claimed in (queued_job, running_job)

        second = SweepService(state, port=0).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{second.port}")
            for job_id in (queued_job.id, running_job.id):
                final = client.wait(job_id, timeout_s=60.0)
                assert final["state"] == "DONE"
            assert client.result(queued_job.id)["result"]["rendered"]
        finally:
            second.stop("test")

    def test_terminal_results_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        first = SweepService(state, port=0).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{first.port}")
            job_id = client.submit(_quick_spec())["id"]
            client.wait(job_id, timeout_s=60.0)
            rendered = client.result(job_id)["result"]["rendered"]
        finally:
            first.stop("test")
        second = SweepService(state, port=0).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{second.port}")
            assert client.result(job_id)["result"]["rendered"] == rendered
        finally:
            second.stop("test")

    def test_graceful_stop_reports_drain(self, tmp_path, capsys):
        import io

        stream = io.StringIO()
        svc = SweepService(tmp_path / "state", port=0, stream=stream).start()
        client = ServiceClient(f"http://127.0.0.1:{svc.port}")
        client.wait(client.submit(_quick_spec())["id"], timeout_s=60.0)
        svc.stop("SIGTERM")
        svc.stop("SIGTERM")  # idempotent: the drain line prints once
        text = stream.getvalue()
        assert text.count("drained cleanly (1 job served) on SIGTERM") == 1


class TestBitIdentity:
    def test_http_sweep_matches_one_shot_cli(self, tmp_path, capsys):
        # The acceptance contract: the full default grid submitted over
        # HTTP renders byte-identical to `chopin lbo`, and because the
        # cache keys are identical too, a one-shot run pointed at the
        # service's cache directory simulates nothing.
        import repro.harness.engine as engine_mod

        state = tmp_path / "state"
        svc = SweepService(state, port=0).start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            job_id = client.submit(
                {"benchmark": "lusearch", "invocations": 1, "scale": 0.05}
            )["id"]
            final = client.wait(job_id, timeout_s=300.0)
            assert final["state"] == "DONE"
            rendered = client.result(job_id)["result"]["rendered"]
        finally:
            svc.stop("test")

        rc = cli_main(["lbo", "lusearch", "--invocations", "1", "--scale", "0.05"])
        assert rc == 0
        assert capsys.readouterr().out == rendered

        # Same keys: the one-shot CLI warm-hits the service's cache.
        before = engine_mod.SIMULATE_CALLS
        rc = cli_main(
            [
                "lbo",
                "lusearch",
                "--invocations",
                "1",
                "--scale",
                "0.05",
                "--cache-dir",
                str(state / "cache"),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == rendered
        assert engine_mod.SIMULATE_CALLS == before


class TestServeConfig:
    def test_env_parsing(self):
        config = harness_config(
            environ={"CHOPIN_SERVE_HOST": "0.0.0.0", "CHOPIN_SERVE_PORT": "9001"}
        )
        assert config.serve_host == "0.0.0.0"
        assert config.serve_port == 9001

    def test_defaults(self):
        config = harness_config(environ={})
        assert config.serve_host == "127.0.0.1"
        assert config.serve_port == 8642

    def test_flag_beats_env(self):
        config = harness_config(
            environ={"CHOPIN_SERVE_PORT": "9001"}, serve_port=7777
        )
        assert config.serve_port == 7777

    def test_bad_port_names_variable_and_format(self):
        with pytest.raises(ValueError, match="CHOPIN_SERVE_PORT") as info:
            harness_config(environ={"CHOPIN_SERVE_PORT": "banana"})
        assert "CHOPIN_SERVE_PORT=8642" in str(info.value)
        with pytest.raises(ValueError, match="CHOPIN_SERVE_PORT"):
            harness_config(environ={"CHOPIN_SERVE_PORT": "70000"})

    def test_cache_shards_is_an_accepted_noop(self, tmp_path, capsys, monkeypatch):
        # Flag and variable are accepted for any N, change nothing, and
        # print exactly one deprecation line naming the one layout.
        notice = (
            "chopin: {} is deprecated and ignored; the result cache has one "
            "layout, <cache-dir>/<key[:2]>/<key>.pkl, and chopin doctor "
            "quarantines entries found anywhere else"
        )
        built = []

        class Service:
            def __init__(self, config, state_dir, workers):
                built.append(config)

            def run(self):
                return 0

        monkeypatch.setattr("repro.harness.cli.service_from_config", Service)
        serve = ["serve", "--state-dir", str(tmp_path / "state")]
        plain = harness_config(environ={})
        assert cli_main(serve) == 0
        assert capsys.readouterr().err == ""
        for shards in ("7", "16", "256"):
            assert harness_config(environ={"CHOPIN_CACHE_SHARDS": shards}) == plain
            assert capsys.readouterr().err.splitlines() == [
                notice.format("CHOPIN_CACHE_SHARDS")
            ]
            assert cli_main(serve + ["--cache-shards", shards]) == 0
            assert capsys.readouterr().err.splitlines() == [
                notice.format("--cache-shards")
            ]
        assert all(config == built[0] for config in built) and len(built) == 4

    def test_engine_from_config_builds_result_cache(self, tmp_path):
        engine = engine_from_config(harness_config(environ={}, cache_dir=str(tmp_path)))
        assert type(engine.cache) is ResultCache
        assert engine.cache.root == tmp_path

    def test_engine_rejects_cache_dir_plus_cache(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ExecutionEngine(
                cache_dir=tmp_path, cache=ShardedResultCache(tmp_path)
            )


class TestCliVerbs:
    def test_submit_status_result_cancel(self, service, capsys):
        url = f"http://127.0.0.1:{service.port}"
        rc = cli_main(
            [
                "submit",
                "lusearch",
                "--collector",
                "G1",
                "--multiple",
                "2",
                "--invocations",
                "1",
                "--scale",
                "0.05",
                "--url",
                url,
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip()
        assert job_id.startswith("job-")  # bare id on stdout for scripts
        assert job_id in captured.err

        rc = cli_main(["result", job_id, "--wait", "60", "--url", url])
        assert rc == 0
        out = capsys.readouterr().out
        assert "normalized time overhead" in out
        assert out.endswith("\n")

        rc = cli_main(["status", job_id, "--url", url])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "DONE"

        rc = cli_main(["result", job_id, "--json", "--url", url])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["curves"]["benchmark"] == "lusearch"

        rc = cli_main(["cancel", job_id, "--url", url])
        assert rc == 0
        assert "already terminal" in capsys.readouterr().out

    def test_result_of_unknown_job_fails(self, service, capsys):
        url = f"http://127.0.0.1:{service.port}"
        rc = cli_main(["result", "job-424242", "--url", url])
        assert rc == 1
        assert "unknown job" in capsys.readouterr().err

    def test_client_errors_are_one_liners(self, tmp_path, capsys):
        rc = cli_main(["status", "job-1", "--url", "http://127.0.0.1:9", "--timeout", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "chopin status:" in err
