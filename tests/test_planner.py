"""The adaptive sweep planner: curve models, acquisition policies,
cell grades, gmean ranking, and the run_adaptive loop's guarantees —
byte-identical schedules, bit-identical cells, and real cell savings."""

import hashlib

import pytest

from repro import (
    PLAN_CROSSOVER_TOLERANCE,
    ExecutionEngine,
    MetricsRegistry,
    Recorder,
    chrome_trace,
    grid_crossovers,
    plan_adaptive,
    plan_lbo,
    registry,
    run_adaptive,
    run_plan,
)
from repro.core.lbo import RunCosts
from repro.harness.cli import main
from repro.harness.plans import AdaptivePlan
from repro.observability import CellGraded, PlannerRound
from repro.planner import (
    CV_HIGH,
    CV_VERY_HIGH,
    GRADE_EXCELLENT,
    GRADE_FAIR,
    GRADE_GOOD,
    GRADE_POOR,
    CurveModel,
    Planner,
    Proposal,
    REASON_SCOUT,
    coefficient_of_variation,
    crossover_points,
    grade_cell,
    rank_collectors,
    render_ranking,
    score_collector,
)
from repro.planner.policy import _tiebreak
from repro.resilience import CostModel


#: SHA-256 of lusearch's adaptive LBO campaign (seed 7, ``fast_config``)
#: as :func:`adaptive_digest` serialises it.  It pins the round loop's
#: schedule, round records, grades, crossovers and ranking, so a change
#: to any of them fails loudly rather than only between two runs.
ADAPTIVE_LBO_DIGEST = "86619fc2d5c0aaaf8ec0edf840ab2aa4ca8bf5daf514de844039bf45e0c160c7"


def adaptive_digest(result):
    """Hash everything an adaptive run decided, floats as ``float.hex``."""
    h = float.hex
    lines = list(result.schedule)
    lines += [
        repr((r.index, r.proposed, r.executed, r.budget_left, r.reasons, h(r.estimated_cost_s)))
        for r in result.rounds
    ]
    for key in sorted(result.grades):
        g = result.grades[key]
        lines.append(repr((
            g.benchmark, g.collector, h(g.heap_multiple), h(g.cv),
            g.samples, h(g.score), g.grade, g.issues,
        )))
    lines += [
        repr((key, tuple(h(p) for p in points)))
        for key, points in sorted(result.crossovers.items())
    ]
    lines += [
        repr((s.collector, tuple((name, h(v)) for name, v in s.components)))
        for s in result.ranking
    ]
    lines.append(repr(result.unranked))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def costs(wall, task=None, attributable_wall=0.0, attributable_cpu=0.0):
    return RunCosts(
        wall_s=wall,
        task_s=task if task is not None else wall,
        attributable_wall_s=attributable_wall,
        attributable_cpu_s=attributable_cpu,
    )


class TestCoefficientOfVariation:
    def test_fewer_than_two_samples_is_zero(self):
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([3.0]) == 0.0

    def test_identical_samples_is_zero(self):
        assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0

    def test_matches_hand_computation(self):
        # mean 2.0, sample std 1.0 -> cv 0.5
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(
            (2.0 ** 0.5) / 2.0
        )


class TestGradeCell:
    def test_steady_multi_invocation_point_is_excellent(self):
        grade = grade_cell("h2", "G1", 2.0, [1.00, 1.01, 0.99])
        assert grade.grade == GRADE_EXCELLENT
        assert grade.score == 1.0
        assert grade.ok
        assert grade.issues == ()

    def test_single_invocation_deduction(self):
        grade = grade_cell("h2", "G1", 2.0, [1.0])
        assert grade.score == pytest.approx(0.75)
        assert grade.grade == GRADE_GOOD
        assert "single invocation" in grade.issues[0]

    def test_high_cv_deduction(self):
        samples = [1.0, 1.3]  # cv ~ 0.18 > CV_HIGH
        grade = grade_cell("h2", "G1", 2.0, samples)
        assert grade.cv > CV_HIGH
        assert grade.score == pytest.approx(0.85)
        assert grade.grade == GRADE_GOOD

    def test_very_high_cv_deduction(self):
        samples = [1.0, 2.0]  # cv ~ 0.47 > CV_VERY_HIGH
        grade = grade_cell("h2", "G1", 2.0, samples)
        assert grade.cv > CV_VERY_HIGH
        assert grade.score == pytest.approx(0.65)
        assert grade.grade == GRADE_FAIR
        assert not grade.ok

    def test_oom_point_is_poor_zero(self):
        grade = grade_cell("h2", "Serial", 1.0, [], oom=True)
        assert grade.score == 0.0
        assert grade.grade == GRADE_POOR
        assert "infeasible" in grade.issues[0]

    def test_feasible_point_without_samples_rejected(self):
        with pytest.raises(ValueError):
            grade_cell("h2", "G1", 2.0, [])


class TestCollectorScore:
    def test_gmean_is_single_value(self):
        score = score_collector("G1", 2.0, 8.0, 1.0, 1.0)
        assert score.single_value() == pytest.approx(2.0)  # (2*8*1*1)^(1/4)

    def test_components_must_be_positive_finite(self):
        with pytest.raises(ValueError):
            score_collector("G1", 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            score_collector("G1", float("inf"), 1.0, 1.0, 1.0)

    def test_component_lookup(self):
        score = score_collector("G1", 1.5, 2.5, 1.25, 1.1)
        assert score.component("cpu_overhead") == 2.5
        with pytest.raises(KeyError):
            score.component("latency")

    def test_rank_ascending_name_stable(self):
        a = score_collector("ZGC", 2.0, 2.0, 2.0, 2.0)
        b = score_collector("G1", 1.0, 1.0, 1.0, 1.0)
        c = score_collector("Serial", 1.0, 1.0, 1.0, 1.0)
        ranked = rank_collectors([a, b, c])
        assert [s.collector for s in ranked] == ["G1", "Serial", "ZGC"]

    def test_render_ranking_table(self):
        table = render_ranking([score_collector("G1", 1.5, 2.0, 1.0, 1.1)])
        assert "wall_overhead" in table
        assert "G1" in table
        assert "1" in table


class TestCurveModel:
    def fitted(self):
        samples = {
            6.0: [costs(1.0), costs(1.02)],
            2.0: [costs(1.5), costs(1.52)],
            1.25: [costs(4.0), costs(4.1)],
        }
        return CurveModel.fit("h2", "G1", samples)

    def test_points_sorted_ascending(self):
        model = self.fitted()
        assert model.multiples() == (1.25, 2.0, 6.0)

    def test_series_carries_mean_walls(self):
        model = self.fitted()
        assert dict(model.series())[6.0] == pytest.approx(1.01)

    def test_predict_interpolates_between_points(self):
        model = CurveModel(
            "h2", "G1",
            [p for p in self.fitted().points],
        )
        mid = model.predict_wall(4.0)  # halfway between 2.0 and 6.0
        assert mid == pytest.approx((1.51 + 1.01) / 2)

    def test_predict_outside_range_is_none(self):
        assert self.fitted().predict_wall(10.0) is None
        assert self.fitted().predict_wall(1.0) is None

    def test_knee_is_max_curvature_point(self):
        assert self.fitted().knee() == 2.0

    def test_knee_needs_three_points(self):
        model = CurveModel.fit("h2", "G1", {2.0: [costs(1.0)], 6.0: [costs(1.0)]})
        assert model.knee() is None

    def test_is_flat(self):
        model = CurveModel.fit(
            "h2", "G1", {2.0: [costs(1.00)], 3.0: [costs(1.01)], 6.0: [costs(2.0)]}
        )
        assert model.is_flat(2.0, 3.0)
        assert not model.is_flat(3.0, 6.0)

    def test_oom_frontier_bracket(self):
        model = CurveModel.fit(
            "h2", "Serial", {2.0: [costs(1.0)]}, ooms=[1.0, 1.25]
        )
        assert model.oom_frontier() == (1.25, 2.0)

    def test_no_frontier_without_oom_below(self):
        model = CurveModel.fit("h2", "Serial", {2.0: [costs(1.0)]}, ooms=[3.0])
        assert model.oom_frontier() is None


class TestCrossoverPoints:
    def test_sign_change_interpolated(self):
        a = [(1.0, 2.0), (2.0, 1.0)]
        b = [(1.0, 1.0), (2.0, 2.0)]
        assert crossover_points(a, b) == (1.5,)

    def test_exact_tie_at_grid_point(self):
        a = [(1.0, 2.0), (2.0, 1.0), (3.0, 0.5)]
        b = [(1.0, 3.0), (2.0, 1.0), (3.0, 0.1)]
        assert crossover_points(a, b) == (2.0,)

    def test_no_common_multiples_no_crossings(self):
        assert crossover_points([(1.0, 2.0)], [(2.0, 1.0)]) == ()

    def test_parallel_curves_no_crossings(self):
        a = [(1.0, 2.0), (2.0, 2.0)]
        b = [(1.0, 1.0), (2.0, 1.0)]
        assert crossover_points(a, b) == ()

    def test_only_common_multiples_participate(self):
        a = [(1.0, 2.0), (1.5, 0.0), (2.0, 1.0)]
        b = [(1.0, 1.0), (2.0, 2.0)]
        assert crossover_points(a, b) == (1.5,)


class TestPolicy:
    def planner(self, lusearch, fast_config, **kwargs):
        return Planner(
            lusearch,
            ("Serial", "G1", "ZGC"),
            (1.25, 2.0, 3.0, 6.0),
            fast_config,
            **kwargs,
        )

    def test_first_round_scouts_every_collector(self, lusearch, fast_config):
        proposals = self.planner(lusearch, fast_config).propose()
        assert proposals
        assert all(p.reason == REASON_SCOUT for p in proposals)
        # ends of the grid plus the multiple nearest 2.0x, per collector
        assert {p.multiple for p in proposals} == {1.25, 2.0, 6.0}
        assert {p.collector for p in proposals} == {"Serial", "G1", "ZGC"}

    def test_tiebreak_is_seeded_and_coordinate_determined(self):
        t1 = _tiebreak(0, "h2", "G1", 2.0, 0)
        t2 = _tiebreak(0, "h2", "G1", 2.0, 0)
        t3 = _tiebreak(1, "h2", "G1", 2.0, 0)
        assert t1 == t2
        assert t1 != t3

    def test_proposals_sorted_by_priority_then_tiebreak(self, lusearch, fast_config):
        proposals = self.planner(lusearch, fast_config).propose()
        assert [p.sort_key for p in proposals] == sorted(p.sort_key for p in proposals)

    def test_propose_is_idempotent_without_observations(self, lusearch, fast_config):
        planner = self.planner(lusearch, fast_config)
        assert planner.propose() == planner.propose()

    def test_negative_target_ci_rejected(self, lusearch, fast_config):
        with pytest.raises(ValueError):
            self.planner(lusearch, fast_config, target_ci=-0.1)


class TestAdaptivePlan:
    def test_default_budget_is_half_the_grid(self, lusearch, fast_config):
        plan = plan_adaptive(lusearch, config=fast_config)
        assert plan.cell_budget == (plan.grid_cells + 1) // 2

    def test_every_campaign_kind_accepted(self, lusearch, fast_config):
        # Since the Campaign refactor, adaptive planning drives all
        # three campaign kinds, not just LBO.
        from repro.harness.plans import plan_latency, plan_minheap

        for grid in (
            plan_latency(lusearch, config=fast_config),
            plan_minheap(lusearch, config=fast_config, multiples=(1.0, 2.0)),
        ):
            assert AdaptivePlan(grid=grid, cell_budget=10).grid.kind == grid.kind

    def test_dynamic_minheap_grid_rejected(self, lusearch, fast_config):
        from repro.harness.plans import plan_minheap

        grid = plan_minheap(lusearch, config=fast_config)  # no multiples
        with pytest.raises(ValueError):
            AdaptivePlan(grid=grid, cell_budget=10)

    def test_knob_validation(self, lusearch, fast_config):
        grid = plan_lbo(lusearch, config=fast_config)
        with pytest.raises(ValueError):
            AdaptivePlan(grid=grid, cell_budget=0)
        with pytest.raises(ValueError):
            AdaptivePlan(grid=grid, cell_budget=1, target_ci=-1.0)
        with pytest.raises(ValueError):
            AdaptivePlan(grid=grid, cell_budget=1, max_rounds=0)


class TestRunAdaptive:
    """The loop's acceptance criteria, on the real lusearch grid."""

    def run(self, lusearch, fast_config, **engine_kwargs):
        plan = plan_adaptive(lusearch, config=fast_config)
        return plan, run_adaptive(plan, engine=ExecutionEngine(**engine_kwargs))

    def test_budget_respected_and_savings_at_least_half(self, lusearch, fast_config):
        plan, result = self.run(lusearch, fast_config)
        assert result.cells_executed <= plan.cell_budget
        assert result.cells_executed <= plan.grid_cells // 2
        assert result.savings >= 0.5

    def test_crossovers_match_grid_within_tolerance(self, lusearch, fast_config):
        plan, result = self.run(lusearch, fast_config)
        truth = grid_crossovers(plan.grid, engine=ExecutionEngine())
        shared = set(truth) & set(result.crossovers)
        # at least 3 collectors must take part in reproduced crossovers
        collectors = {c for key in shared for c in key[1:]}
        assert len(collectors) >= 3
        for key in shared:
            got = result.crossovers[key][0]
            want = truth[key][0]
            assert abs(got - want) <= PLAN_CROSSOVER_TOLERANCE, (key, got, want)
        # and nothing the grid found goes entirely missing
        assert set(truth) <= set(result.crossovers)

    def test_schedule_is_byte_identical_across_runs(self, lusearch, fast_config, tmp_path):
        plan = plan_adaptive(lusearch, config=fast_config, seed=7)
        first = run_adaptive(plan, engine=ExecutionEngine(cache_dir=tmp_path))
        second = run_adaptive(plan, engine=ExecutionEngine(cache_dir=tmp_path))
        assert first.schedule == second.schedule
        assert first.crossovers == second.crossovers
        assert first.ranking == second.ranking
        assert [r.reasons for r in first.rounds] == [r.reasons for r in second.rounds]

    def test_lbo_campaign_matches_golden_digest(self, lusearch, fast_config):
        plan = plan_adaptive(lusearch, config=fast_config, seed=7)
        result = run_adaptive(plan, engine=ExecutionEngine())
        assert adaptive_digest(result) == ADAPTIVE_LBO_DIGEST

    def test_seed_changes_tiebreak_not_answers(self, lusearch, fast_config):
        plan_a = plan_adaptive(lusearch, config=fast_config, seed=0)
        plan_b = plan_adaptive(lusearch, config=fast_config, seed=99)
        result_a = run_adaptive(plan_a, engine=ExecutionEngine())
        result_b = run_adaptive(plan_b, engine=ExecutionEngine())
        truth_keys = set(result_a.crossovers) & set(result_b.crossovers)
        for key in truth_keys:
            assert abs(
                result_a.crossovers[key][0] - result_b.crossovers[key][0]
            ) <= PLAN_CROSSOVER_TOLERANCE

    def test_executed_cells_bit_identical_to_fixed_grid(
        self, lusearch, fast_config, tmp_path
    ):
        # Adaptive first, into a cache; then the fixed grid over the same
        # cache.  Every adaptive cell must be a grid cell (served from
        # cache), and the warm grid run must equal a cold one bit for bit.
        plan = plan_adaptive(lusearch, config=fast_config)
        result = run_adaptive(plan, engine=ExecutionEngine(cache_dir=tmp_path))
        warm_engine = ExecutionEngine(cache_dir=tmp_path)
        warm = run_plan(plan.grid, warm_engine)
        assert warm_engine.stats.cached == result.cells_executed
        assert (
            warm_engine.stats.executed + warm_engine.stats.oom
            == plan.grid_cells - result.cells_executed
        )
        cold = run_plan(plan.grid, ExecutionEngine())
        assert warm.geomean_wall == cold.geomean_wall
        assert warm.geomean_task == cold.geomean_task

    def test_grades_cover_every_measured_point(self, lusearch, fast_config):
        plan, result = self.run(lusearch, fast_config)
        assert result.grades
        assert all(b == "lusearch" for b, _, _ in result.grades)
        assert all(
            g.samples <= fast_config.invocations for g in result.grades.values()
        )
        # schedule keys are the engine's cache keys, one per executed cell
        assert len(result.schedule) == result.cells_executed
        assert all(len(key) == 64 for key in result.schedule)

    def test_ranking_orders_by_gmean(self, lusearch, fast_config):
        plan, result = self.run(lusearch, fast_config)
        values = [s.single_value() for s in result.ranking]
        assert values == sorted(values)
        ranked = {s.collector for s in result.ranking}
        assert ranked | set(result.unranked) == set(plan.grid.collectors)

    def test_rounds_account_for_every_executed_cell(self, lusearch, fast_config):
        plan, result = self.run(lusearch, fast_config)
        assert sum(r.executed for r in result.rounds) == result.cells_executed
        assert result.rounds[0].reasons[0][0] == REASON_SCOUT
        assert result.rounds[-1].budget_left >= 0


class TestPlannerObservability:
    def recorded(self, lusearch, fast_config):
        # full-fidelity cells emit many GC events; size the ring so the
        # early planner rounds survive until export
        recorder = Recorder(capacity=500_000)
        plan = plan_adaptive(lusearch, config=fast_config)
        result = run_adaptive(plan, engine=ExecutionEngine(recorder=recorder))
        return result, recorder

    def test_planner_rounds_and_grades_emitted(self, lusearch, fast_config):
        result, recorder = self.recorded(lusearch, fast_config)
        events = list(recorder.events())
        rounds = [e for e in events if isinstance(e, PlannerRound)]
        grades = [e for e in events if isinstance(e, CellGraded)]
        assert len(rounds) == len(result.rounds)
        assert [r.index for r in rounds] == [r.index for r in result.rounds]
        assert grades
        assert all(g.grade in ("EXCELLENT", "GOOD", "FAIR", "POOR") for g in grades)

    def test_metrics_ingest_planner_events(self, lusearch, fast_config):
        result, recorder = self.recorded(lusearch, fast_config)
        reg = MetricsRegistry()
        reg.ingest(recorder.events())
        assert reg.counter("planner.rounds").value == len(result.rounds)
        assert reg.counter("planner.cells_executed").value == result.cells_executed
        assert reg.counter("planner.cells_graded").value > 0

    def test_trace_export_carries_planner_instants(self, lusearch, fast_config):
        result, recorder = self.recorded(lusearch, fast_config)
        document = chrome_trace(recorder.events())
        planner_events = [
            e for e in document["traceEvents"] if e.get("cat") == "planner"
        ]
        assert planner_events
        assert any(e["name"].startswith("planner-round") for e in planner_events)
        assert any(e["name"].startswith("grade ") for e in planner_events)
        assert all(e["ph"] == "I" for e in planner_events)


class TestPlanCli:
    def test_plan_smoke(self, capsys):
        assert (
            main(["plan", "lusearch", "--invocations", "2", "--scale", "0.05"]) == 0
        )
        out = capsys.readouterr().out
        assert "plan lusearch: grid" in out
        assert "round 0: scout" in out
        assert "adaptive: executed" in out
        assert "saved" in out

    def test_plan_rank_table(self, capsys):
        argv = [
            "plan", "lusearch", "--invocations", "2", "--scale", "0.05", "--rank",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "wall_overhead" in out
        assert "ranking" in out

    def test_plan_with_warm_cost_model(self, capsys, tmp_path):
        model = CostModel()
        model.observe(("lusearch", "G1"), 0.5)
        path = tmp_path / "costmodel.json"
        model.save(path)
        argv = [
            "plan", "lusearch", "--invocations", "2", "--scale", "0.05",
            "--cost-model", str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert ", est " in out

    def test_plan_rejects_corrupt_cost_model(self, tmp_path):
        path = tmp_path / "costmodel.json"
        path.write_text("{not json")
        argv = ["plan", "lusearch", "--cost-model", str(path)]
        with pytest.raises(SystemExit):
            main(argv)

    def test_plan_rejects_negative_target_ci(self):
        with pytest.raises(SystemExit):
            main(["plan", "lusearch", "--target-ci", "-0.5"])
