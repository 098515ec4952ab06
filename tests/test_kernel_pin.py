"""The scalar kernel's output, pinned bit for bit.

:func:`repro.jvm.simulator.simulate_run` is the oracle every other path
is checked against (the batch kernel, the fidelity tiers, the engine),
so nothing else notices when its own floats drift.  This test hashes
``float.hex`` of every headline scalar of every iteration, plus
``gc_count`` and the exact ``OutOfMemoryError`` message, over a small
grid, and compares one digest per collector with the digest recorded
when the kernel last changed on purpose.

The grid runs every registered collector and three subclasses (they
override ``plan_cycle``, ``COMPRESSED_OOPS`` and the team ceiling) at
both fidelity tiers, from the OOM frontier up to 6x, on the default
machine and on a custom machine and tuning.  Between them the cells take every exit of
the simulator loop: completion, paced and stalling concurrent cycles,
the set-up ``cannot fit`` check, the no-progress exit, and thrashing.

If the simulator model changes on purpose, regenerate the digests with
``PYTHONPATH=src python tests/test_kernel_pin.py``.
"""

from __future__ import annotations

import contextlib
import hashlib

import pytest

from repro import registry, simulate_run
from repro.jvm import simulator
from repro.jvm.collectors import COLLECTORS
from repro.jvm.collectors.base import CyclePlan, GcTuning
from repro.jvm.collectors.shenandoah import ShenandoahCollector
from repro.jvm.collectors.zgc import ZgcCollector
from repro.jvm.cpu import DEFAULT_MACHINE, Machine
from repro.jvm.heap import OutOfMemoryError

SCALE = 0.01
ITERATIONS = 2
FIDELITIES = ("aggregate", "full")

#: Heap multiples per workload.  lusearch allocates hard enough that
#: Shenandoah paces and ZGC stalls near its frontier; zxing leaks 12 %
#: of its live set per iteration, so just above the set-up frontier
#: every collector takes the no-progress exit.
GRID = {
    "lusearch": (0.85, 0.9, 0.95, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 6.0),
    "zxing": (0.8, 0.85, 0.9, 0.95, 1.0, 1.15, 1.2, 1.25, 1.5, 2.0, 6.0),
}

#: A host with more cores than Shenandoah's pinned team, no concurrent
#: interference, and perfect parallel scaling: every team size, speedup
#: and dilation comes from overridden values.
CUSTOM_MACHINE = Machine(cores=24, smt=1, concurrent_interference=0.0)
CUSTOM_TUNING = GcTuning(efficiency_exponent=1.0)
CUSTOM_MULTIPLES = (1.0, 1.5, 3.0)

#: Thrashing takes ``MAX_CYCLES_PER_ITERATION`` cycles, so these lusearch
#: cells run under a lowered cap that they exceed.
THRASH_CAP = 500
THRASH_MULTIPLES = (0.95, 1.0)

FLOAT_FIELDS = (
    "wall_s",
    "mutator_cpu_s",
    "gc_pause_cpu_s",
    "gc_concurrent_cpu_s",
    "stw_wall_s",
    "stall_wall_s",
    "allocated_mb",
    "live_end_mb",
    "avg_footprint_mb",
)


class UnpacedShenandoah(ShenandoahCollector):
    """Shenandoah with the pacer off: allocation stalls instead."""

    NAME = "Shenandoah(nopace)"

    def plan_cycle(self, heap):
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
    """ZGC with compressed pointers: no footprint inflation."""

    NAME = "ZGC(coops)"
    COMPRESSED_OOPS = True


class CappedShenandoah(ShenandoahCollector):
    """Shenandoah with a team ceiling below its default team: sized
    teams pin at the ceiling, but a full heap still gets the default."""

    NAME = "Shenandoah(capped)"

    def max_concurrent_workers(self) -> float:
        return 4.0


KERNELS = {
    **COLLECTORS,
    **{cls.NAME: cls for cls in (UnpacedShenandoah, CompressedOopsZgc, CappedShenandoah)},
}

#: One digest per collector, recorded from the scalar kernel.
DIGESTS = {
    "Serial": "c50e0f494faee2cbd77caeed19c7790edea7401d73b2422e187c76b277bbfb44",
    "Parallel": "22259a6a1a18ab94137a78e4cc410aad3b6fb0fc4bb749928cda3376c89fe801",
    "G1": "dc0ef8e4cf35d43fd72d7f56e9a84d27a8362da5f31169d7c846f0e3576a30a4",
    "Shenandoah": "f76678395fb5c257c1fe5425a1c22dc2ce135de68200e251c71374cbb67461ed",
    "ZGC": "ee0e5a54a245897ad8ce012cd3e886e5a9cf52d7a3ff376a715c6ac16aecb0c1",
    "GenZGC": "b40427c475864f853192dcb1a74f20a75d46559079cb12e407f709de04141a9b",
    "Shenandoah(nopace)": "039c84971c71c4a551cb7e6c8d3e69ebc3c3cc1ad09f6efb219a3ec909ac6fc5",
    "ZGC(coops)": "fac399121d4778e1e08929b3ef26c4c1b1e08feec31a6821a19227465876e4de",
    "Shenandoah(capped)": "1d5fe2e63a1f5ef9ecf5ddbedd0dd916f78f5a54c91b3dac9bfca314f21a6d92",
}


def outcome(collector, workload, multiple, fidelity, machine=DEFAULT_MACHINE, tuning=None):
    """One cell as exact text: per-iteration float hex and gc_count, or
    the OOM message."""
    spec = registry.workload(workload)
    try:
        run = simulate_run(
            spec,
            collector,
            spec.heap_mb_for(multiple),
            iterations=ITERATIONS,
            machine=machine,
            tuning=tuning,
            duration_scale=SCALE,
            fidelity=fidelity,
        )
    except OutOfMemoryError as exc:
        return str(exc)
    return [
        [float(getattr(it, name)).hex() for name in FLOAT_FIELDS] + [it.gc_count]
        for it in run.iterations
    ]


@contextlib.contextmanager
def thrash_cap():
    """Lower the simulator's cycle cap to ``THRASH_CAP`` for a block."""
    cap = simulator.MAX_CYCLES_PER_ITERATION
    simulator.MAX_CYCLES_PER_ITERATION = THRASH_CAP
    try:
        yield
    finally:
        simulator.MAX_CYCLES_PER_ITERATION = cap


def kernel_digest(name: str) -> str:
    """SHA-256 over every cell of the grid for collector ``name``."""
    collector = KERNELS[name]
    digest = hashlib.sha256()

    def add(*cell, **config):
        digest.update(repr((cell, outcome(collector, *cell, **config))).encode())

    for fidelity in FIDELITIES:
        for workload, multiples in GRID.items():
            for multiple in multiples:
                add(workload, multiple, fidelity)
        for multiple in CUSTOM_MULTIPLES:
            add("lusearch", multiple, fidelity, machine=CUSTOM_MACHINE, tuning=CUSTOM_TUNING)
        with thrash_cap():
            for multiple in THRASH_MULTIPLES:
                add("lusearch", multiple, fidelity)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scalar_kernel_output_is_pinned(name):
    assert kernel_digest(name) == DIGESTS[name]


def test_grid_takes_every_exit():
    """The pin covers what it claims: one witness cell per exit."""
    stalled = outcome(KERNELS["ZGC"], "lusearch", 1.0, "aggregate")
    assert float.fromhex(stalled[-1][FLOAT_FIELDS.index("stall_wall_s")]) > 0
    assert "cannot fit" in outcome(KERNELS["G1"], "zxing", 0.85, "aggregate")
    assert "cannot make progress" in outcome(KERNELS["Serial"], "zxing", 0.85, "aggregate")
    with thrash_cap():
        assert "thrashing" in outcome(KERNELS["Serial"], "lusearch", 0.95, "aggregate")


if __name__ == "__main__":
    for name in DIGESTS:
        print(f'    "{name}": "{kernel_digest(name)}",')
