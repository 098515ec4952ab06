"""Ablations: which modelled mechanism produces which paper finding.

DESIGN.md calls out four load-bearing mechanisms; each ablation removes
one and checks that the corresponding finding disappears — evidence the
reproduction works for the *right reasons*:

1. **Concurrent interference** (cache/bandwidth cost of "free" GC threads)
   -> without it, concurrent collectors' cassandra wall overheads vanish.
2. **Shenandoah's pacer** -> without pacing, lusearch's wall-clock blowup
   collapses into allocation stalls-free behaviour... at the price of
   heap exhaustion stalls instead.
3. **ZGC's compressed-pointer footprint** -> with compressed oops forced
   on, ZGC runs the small heaps it otherwise cannot.
4. **Parallel-team efficiency loss** -> with perfect scaling, Parallel's
   task-clock premium over Serial disappears.
"""

from _common import save

from repro import RunConfig, registry
from repro.harness.report import format_table
from repro.harness.runner import measure
from repro.jvm.collectors.base import CyclePlan, GcTuning
from repro.jvm.collectors.shenandoah import ShenandoahCollector
from repro.jvm.collectors.zgc import ZgcCollector
from repro.jvm.cpu import Machine
from repro.jvm.heap import OutOfMemoryError

CONFIG = RunConfig(invocations=2, iterations=2, duration_scale=0.1)


class UnpacedShenandoah(ShenandoahCollector):
    """Shenandoah with the pacer disabled (allocation stalls instead)."""

    NAME = "Shenandoah(nopace)"

    def plan_cycle(self, heap):
        # A new plan, not a mutated one: plans may share pause tuples.
        plan = super().plan_cycle(heap)
        return CyclePlan(
            kind=plan.kind,
            pre_pauses=plan.pre_pauses,
            concurrent_work_mb=plan.concurrent_work_mb,
            concurrent_threads=plan.concurrent_threads,
            post_pauses=plan.post_pauses,
            full_live_target_mb=plan.full_live_target_mb,
            pace_alloc_to_mb_s=None,
        )


class CompressedOopsZgc(ZgcCollector):
    """Counterfactual ZGC with compressed pointers (no footprint penalty)."""

    NAME = "ZGC(coops)"
    COMPRESSED_OOPS = True


def run_ablations():
    rows = []

    # 1. Concurrent interference off: cassandra wall overhead under
    #    concurrent collectors collapses toward 1.0.
    cassandra = registry.workload("cassandra")
    heap = cassandra.heap_mb_for(3.0)
    from dataclasses import replace as rep

    quiet = rep(CONFIG, machine=Machine(concurrent_interference=0.0))
    with_i = measure(cassandra, "ZGC", heap, CONFIG).wall.mean
    without_i = measure(cassandra, "ZGC", heap, quiet).wall.mean
    rows.append(["interference", "cassandra ZGC wall @3x", f"{with_i:.3f}", f"{without_i:.3f}"])

    # 2. Pacer off: Shenandoah's lusearch wall time changes regime.
    lusearch = registry.workload("lusearch")
    heap2 = lusearch.heap_mb_for(2.0)
    paced = measure(lusearch, "Shenandoah", heap2, CONFIG)
    unpaced = measure(lusearch, UnpacedShenandoah, heap2, CONFIG)
    rows.append(["pacer", "lusearch Shen stalls @2x",
                 f"{sum(r.stall_wall_s for r in paced.results):.3f}",
                 f"{sum(r.stall_wall_s for r in unpaced.results):.3f}"])

    # 3. Compressed oops: ZGC at a heap it cannot normally run.
    biojava = registry.workload("biojava")
    small = biojava.heap_mb_for(1.25)
    try:
        measure(biojava, "ZGC", small, CONFIG)
        stock_runs = "runs"
    except OutOfMemoryError:
        stock_runs = "OOM"
    try:
        measure(biojava, CompressedOopsZgc, small, CONFIG)
        coops_runs = "runs"
    except OutOfMemoryError:
        coops_runs = "OOM"
    rows.append(["compressed oops", "biojava ZGC @1.25x", stock_runs, coops_runs])

    # 4. Perfect parallel scaling: Parallel's CPU premium over Serial.
    fop = registry.workload("fop")
    heap3 = fop.heap_mb_for(2.0)
    perfect = rep(CONFIG, tuning=GcTuning(efficiency_exponent=1.0))
    premium = measure(fop, "Parallel", heap3, CONFIG).task.mean / measure(fop, "Serial", heap3, CONFIG).task.mean
    premium_perfect = (
        measure(fop, "Parallel", heap3, perfect).task.mean
        / measure(fop, "Serial", heap3, perfect).task.mean
    )
    rows.append(["parallel efficiency", "fop Parallel/Serial task @2x",
                 f"{premium:.3f}", f"{premium_perfect:.3f}"])
    return rows


def test_ablation_mechanisms(benchmark):
    rows = benchmark.pedantic(run_ablations, rounds=1, iterations=1)
    table = ("Mechanism ablations (finding with mechanism vs without)\n"
             + format_table(["mechanism", "observable", "with", "without"], rows))
    save("ablation_mechanisms", table)
    print("\n" + table)

    by_name = {r[0]: r for r in rows}
    # 1. Interference: removing it reduces cassandra's ZGC wall time.
    assert float(by_name["interference"][3]) < float(by_name["interference"][2])
    # 2. Pacer: stock Shenandoah paces (no stalls); unpaced variant stalls.
    assert float(by_name["pacer"][2]) == 0.0
    assert float(by_name["pacer"][3]) > 0.0
    # 3. Footprint: compressed oops let ZGC run where stock ZGC cannot.
    assert by_name["compressed oops"][2] == "OOM"
    assert by_name["compressed oops"][3] == "runs"
    # 4. Efficiency loss: the Parallel CPU premium shrinks under perfect
    #    scaling.
    assert float(by_name["parallel efficiency"][3]) < float(by_name["parallel efficiency"][2])
