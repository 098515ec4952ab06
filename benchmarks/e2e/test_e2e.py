"""Tests for the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of the tier-1 suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import re
from pathlib import Path

import pytest

import metrics
import oracle
import spans
import workloads
from repro.harness.engine import ExecutionEngine
from repro.harness.experiments import suite_lbo
from repro.harness.runner import RunConfig
from repro.workloads import registry

ROOT = Path(__file__).resolve().parents[2]


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestNames:
    def test_metric_names_are_valid(self):
        valid = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        for name in [*metrics.E2E, *metrics.PER_LAYER, *metrics.WORKLOADS]:
            assert valid.fullmatch(name), name

    def test_metrics_agree_with_benchmark_json(self):
        declared = benchmark_json()
        for key, table in (("end_to_end", metrics.E2E), ("per_layer", metrics.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
            assert listed == table, key

    def test_workloads_agree_with_benchmark_json(self):
        declared = [w["name"] for w in benchmark_json()["workloads"]]
        assert declared == list(metrics.WORKLOADS)


class TestSeeds:
    def test_same_seed_same_job_stream(self):
        first = list(itertools.islice(workloads.job_stream(7), 300))
        again = list(itertools.islice(workloads.job_stream(7), 300))
        other = list(itertools.islice(workloads.job_stream(8), 300))
        assert first == again
        assert first != other

    def test_job_stream_mix(self):
        kinds = [p["kind"] for p in itertools.islice(workloads.job_stream(0), 2000)]
        for kind, share in (("lbo", 0.60), ("latency", 0.25), ("minheap", 0.15)):
            assert kinds.count(kind) / len(kinds) == pytest.approx(share, abs=0.05)

    def test_schedule_permutes_order_not_cells(self):
        specs, collectors = workloads.schedule(3, 0)
        assert (specs, collectors) == workloads.schedule(3, 0)
        other_specs, other_collectors = workloads.schedule(4, 0)
        assert (specs, collectors) != (other_specs, other_collectors)
        assert sorted(s.name for s in specs) == sorted(s.name for s in other_specs)
        assert sorted(collectors) == sorted(other_collectors)


class TestSpans:
    def span(self, id, parent, start, end):
        return {"id": id, "parent": parent, "name": "x", "start": start, "end": end}

    def test_self_time_subtracts_covered_child_time(self):
        tree = [
            self.span(1, None, 0.0, 10.0),
            self.span(2, 1, 1.0, 4.0),  # overlaps its sibling 3 for 1 s
            self.span(3, 1, 3.0, 5.0),
            self.span(4, 2, 1.5, 2.0),
            self.span(5, 1, 9.0, 12.0),  # runs past its parent
        ]
        selfs = spans.self_times(tree)
        assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
        assert selfs[2] == pytest.approx(3.0 - 0.5)
        assert selfs[3] == pytest.approx(2.0)
        assert selfs[4] == pytest.approx(0.5)
        assert selfs[5] == pytest.approx(3.0)

    def test_tracer_records_nesting_and_restores_sites(self):
        import repro.harness.engine as engine_module

        original = engine_module.cell_key
        tracer = spans.Tracer().install()
        try:
            assert engine_module.cell_key is not original
            with tracer.span("outer", rid="0"):
                ExecutionEngine().run_cells([])
        finally:
            tracer.uninstall()
        assert engine_module.cell_key is original
        by_name = {s["name"]: s for s in tracer.spans}
        assert by_name["engine.run_cells"]["parent"] == by_name["outer"]["id"]
        assert by_name["engine.run_cells"]["executed"] == 0


#: A two-benchmark slice of the sweep plan, small enough for a test.
SMALL = dict(
    specs=[registry.workload("fop"), registry.workload("avrora")],
    collectors=("Serial", "G1"),
    multiples=(2.0, 3.0),
    config=RunConfig(invocations=2, duration_scale=0.01),
)


def small_sweep(engine):
    return suite_lbo(engine=engine, **SMALL)


class TestOracle:
    def golden(self):
        engine = ExecutionEngine()
        return {"lbo": oracle.lbo_points(small_sweep(engine))}, engine.stats.executed

    def test_accepts_a_correct_sweep(self):
        golden, cells = self.golden()
        engine = ExecutionEngine()
        assert oracle.check_lbo(golden, small_sweep(engine), engine.stats, cells, 0) == []

    def test_rejects_a_perturbed_curve_point(self):
        golden, cells = self.golden()
        engine = ExecutionEngine()
        suite = small_sweep(engine)
        bad = copy.deepcopy(golden)
        point = bad["lbo"]["per_benchmark"]["fop"]["wall"]["G1"]["2.0"]
        point[0] *= 1 + 1e-6
        problems = oracle.check_lbo(bad, suite, engine.stats, cells, 0)
        assert len(problems) == 1 and "fop/wall/G1/2.0" in problems[0]
        del bad["lbo"]["geomean_task"]["Serial"]
        assert any("keys differ" in p for p in oracle.check_lbo(bad, suite, engine.stats, cells, 0))

    def test_rejects_a_torn_cache_entry(self, tmp_path):
        golden, cells = self.golden()
        small_sweep(ExecutionEngine(cache_dir=tmp_path))
        entry = sorted(tmp_path.glob("*/*.pkl"))[0]
        entry.write_bytes(entry.read_bytes()[:40])
        engine = ExecutionEngine(cache_dir=tmp_path)
        problems = oracle.check_lbo(golden, small_sweep(engine), engine.stats, 0, cells)
        assert problems == [
            f"work: expected 0 executed + {cells} cached, got 1 executed + {cells - 1} cached"
        ]


def test_serve_round_trip(tmp_path, monkeypatch):
    """Twenty jobs through the same server, client and checks as the
    serve-mixed workload."""
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    )
    probes = oracle.load_golden("minheap")["probes"]
    server = workloads.Server(tmp_path / "state")
    try:
        stream = itertools.islice(workloads.job_stream(5), 20)
        records, refused, errors, _ = workloads.drive(server.client, stream, 120.0)
        errors += workloads.check_served(server, records, 5, probes)
    finally:
        server.stop()
    assert (len(records), refused, errors) == (20, [], [])
    assert any(r["executed"] == 0 for r in records)
    records_n, size = server.journal()
    assert records_n == 3 * 20 and size > 0
