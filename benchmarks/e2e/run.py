"""End-to-end benchmark of the chopin harness: one workload, one seed.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh Python
subprocesses (``workloads.py``) with ``src/`` on their path: with
``--trace 0`` the runner first starts the workload for set-up only
(two to four times) and then for the measured run, and reports
the median set-up time beside the measured metrics; ``--trace 1``
reports the per-layer metrics instead.  Every metric is printed as
``name value unit (n=...)``, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output fails its oracle or the workload
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from metrics import E2E, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Set-ups per untraced run; setup_s is their median.  The set-up-only
#: runs stop early once they have taken SETUP_BUDGET_S, which holds a
#: slow set-up (sweep-warm fills its cache) to three samples.
SETUP_RUNS = 5
SETUP_BUDGET_S = 5.0

#: Every run ends within this many seconds, set-up included.
DEADLINE_S = 170.0


class WorkloadFailed(Exception):
    pass


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHOPIN_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(work)
    return env


def spawn(args, work: Path, deadline: float, setup_only: bool):
    """Run ``workloads.py`` once; returns (setup seconds, result or None)."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    # Its own session, so a run past the deadline takes the service and
    # pool processes it started down with it.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(work),
        start_new_session=True,
    )
    timer = threading.Timer(
        max(0.0, deadline - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL)
    )
    timer.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise WorkloadFailed(f"{args.workload} exited {proc.returncode}")
    if setup_only:
        return setup_s, None
    if not rest:
        raise WorkloadFailed(f"{args.workload} printed no result")
    return setup_s, json.loads(rest[-1])


def measure(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setups.append(spawn(args, work / f"setup-{i}", deadline, True)[0])
                if len(setups) >= 2 and sum(setups) > SETUP_BUDGET_S:
                    break
        setup_s, result = spawn(args, work / "run", deadline, False)
        setups.append(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn()'s cleanup, which kills the child's
    # process group, instead of leaving the workload running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setups, result = measure(args)
    except WorkloadFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = [statistics.median(setups), len(setups)]
    table = PER_LAYER if args.trace else E2E
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (unit, _) in table.items():
        value, n = measured[name]
        print(f"{name} {value:.6g} {unit} (n={n})")
    for note in result["notes"]:
        print(f"# {note}")
    for error in result["errors"]:
        print(f"MISMATCH {error}", file=sys.stderr)
    correct = not result["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": measured[name][0], "unit": unit}
                    for name, (unit, _) in table.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
