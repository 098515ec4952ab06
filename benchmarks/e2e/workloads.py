"""One benchmark workload in its own process: set up, time, check.

``run.py`` starts this file once per set-up sample and once for the
measured run::

    python benchmarks/e2e/workloads.py --workload NAME --seed N \\
        --seconds S --trace 0|1 --work DIR [--setup-only]

It prints ``READY`` when set-up is done -- the runner times process
start to that line as ``setup_s`` -- then, unless ``--setup-only``, runs
operations for ``--seconds`` (serve-mixed: a job count proportional to
it), checks every output against the oracles, and prints one JSON line:
metric values with their sample counts, the attempted and failed
operation counts, and every mismatch found.

With ``--trace 1`` the window is split: the first half runs untraced,
the second with the span table installed, and the per-layer metrics come
from the second half.  ``trace.overhead_frac`` compares their median
operation times.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import oracle
import spans
from metrics import PER_LAYER, WORKLOADS

from repro.core.stats import percentile
from repro.harness.engine import ExecutionEngine
from repro.harness.experiments import run_campaign, suite_lbo
from repro.harness.plans import DEFAULT_MULTIPLES
from repro.harness.runner import RunConfig
from repro.jvm.collectors import COLLECTOR_NAMES
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobqueue import TERMINAL_STATES, JobSpec
from repro.workloads import registry

HERE = Path(__file__).resolve().parent

#: Pool workers for the one-shot workloads and client threads for
#: serve-mixed: the reference machine has two cores.
JOBS = 2

#: The Figure 1 sweep: 22 workloads x 5 collectors x 8 multiples x 2
#: invocations = 1760 aggregate-fidelity cells.  The short iterations
#: keep a cold pass near three seconds on two cores, so a run times
#: several passes.
SWEEP_CONFIG = RunConfig(invocations=2, duration_scale=0.025)

#: Min-heap search over all 22 x 5 pairs: 1319 one-cell probes, under
#: two seconds serially, so a run times about a dozen campaigns.
MINHEAP_CONFIG = RunConfig(invocations=1, duration_scale=0.02)

#: serve-mixed submits this many jobs per second of ``--seconds``, a
#: fixed count rather than a time window: in a window, a faster machine
#: would finish more jobs, and later jobs are warmer, so the mix itself
#: would move with the machine's speed.
SERVE_JOBS_PER_S = 60
SERVE_SCALE = 0.05
SERVE_MULTIPLES = (1.5, 2.0, 3.0, 4.0)
POLL_S = 0.005
RENDER_SAMPLE = 20


# ----------------------------------------------------------------------
# Inputs: everything a seed decides


def schedule(seed: int, index: int):
    """Workload and collector order for the ``index``-th operation.  The
    cells are the same for every seed; only the order they are planned
    in changes, so one golden serves every seed."""
    rng = random.Random(f"{seed}:{index}")
    specs = registry.all_workloads()
    collectors = list(COLLECTOR_NAMES)
    rng.shuffle(specs)
    rng.shuffle(collectors)
    return specs, collectors


def _deck(rng: random.Random, cards: List) -> Iterator:
    """Endless draws that deal every card once per shuffled round, so a
    short stream keeps the mix's proportions whatever the seed."""
    while True:
        rng.shuffle(cards)
        yield from list(cards)


def job_stream(seed: int) -> Iterator[dict]:
    """The serve-mixed job stream: half the jobs resubmit an earlier
    spec; the rest are new specs, 60 % lbo, 25 % latency, 15 % min-heap,
    dealt from shuffled decks (see :func:`_deck`)."""
    rng = random.Random(seed)
    resubmit = _deck(rng, [True, False] * 5)
    kinds = _deck(rng, ["lbo"] * 12 + ["latency"] * 5 + ["minheap"] * 3)
    benchmarks = {
        "lbo": _deck(rng, [s.name for s in registry.all_workloads()]),
        "latency": _deck(rng, [s.name for s in registry.latency_workloads()]),
        "minheap": _deck(rng, [s.name for s in registry.all_workloads()]),
    }

    def pick(pool, k):
        chosen = set(rng.sample(pool, k))
        return tuple(x for x in pool if x in chosen)  # canonical order

    seen: List[dict] = []
    while True:
        if next(resubmit) and seen:
            yield rng.choice(seen)
            continue
        kind = next(kinds)
        benchmark = next(benchmarks[kind])
        if kind == "lbo":
            spec = JobSpec(
                benchmark=benchmark,
                collectors=pick(COLLECTOR_NAMES, 3),
                multiples=pick(SERVE_MULTIPLES, 2),
                invocations=2,
                scale=SERVE_SCALE,
            )
        elif kind == "latency":
            spec = JobSpec(
                benchmark=benchmark,
                collectors=pick(COLLECTOR_NAMES, 2),
                multiples=(2.0,),
                invocations=2,
                scale=SERVE_SCALE,
                kind="latency",
            )
        else:
            # At minheap-cold's scale, so the golden probe lists cover it.
            spec = JobSpec(
                benchmark=benchmark,
                collectors=pick(COLLECTOR_NAMES, 1),
                invocations=2,
                scale=MINHEAP_CONFIG.duration_scale,
                kind="minheap",
            )
        payload = spec.to_payload()
        seen.append(payload)
        yield payload


# ----------------------------------------------------------------------
# Host measurements


def task_clock() -> float:
    """CPU seconds of this process and every child it has waited for
    (pool workers are waited for when their pool closes)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def own_peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def ready() -> None:
    print("READY", flush=True)


# ----------------------------------------------------------------------
# One-shot workloads: sweep-cold, sweep-warm, minheap-cold


def one_pass(workload: str, cache_dir: Path, specs, collectors):
    """One operation through a fresh engine; returns (result, stats)."""
    engine = ExecutionEngine(jobs=JOBS, cache_dir=cache_dir)
    if workload == "minheap-cold":
        campaign = run_campaign(
            "minheap", specs, collectors, config=MINHEAP_CONFIG, engine=engine
        )
        return campaign, engine.stats
    suite = suite_lbo(specs, collectors, DEFAULT_MULTIPLES, SWEEP_CONFIG, engine)
    return suite, engine.stats


def check_pass(workload: str, golden: dict, result, stats) -> List[str]:
    if workload == "minheap-cold":
        return oracle.check_minheap(golden, result)
    cells = golden["work"]["executed"]
    if workload == "sweep-warm":
        return oracle.check_lbo(golden, result, stats, 0, cells)
    return oracle.check_lbo(golden, result, stats, cells, 0)


def one_shot(args, work: Path) -> Optional[dict]:
    golden = oracle.load_golden("minheap" if args.workload == "minheap-cold" else "sweep")
    errors: List[str] = []
    warm_cache = None
    if args.workload == "sweep-warm":
        warm_cache = work / "warm-cache"
        result, stats = one_pass("sweep-cold", warm_cache, *schedule(args.seed, -1))
        errors += check_pass("sweep-cold", golden, result, stats)
    ready()
    if args.setup_only:
        return None

    tracer = spans.Tracer()
    phases: Dict[bool, List[dict]] = {}
    failed = 0
    index = 0
    for traced in (False, True) if args.trace else (False,):
        ops = phases[traced] = []
        if traced:
            tracer.install()
        deadline = time.monotonic() + args.seconds / (2 if args.trace else 1)
        while not ops or time.monotonic() < deadline:
            specs, collectors = schedule(args.seed, index)
            cache = warm_cache or work / f"cache-{index}"
            scope = tracer.span("experiments.campaign", rid=str(index)) if traced else nullcontext()
            cpu, start = task_clock(), time.perf_counter()
            with scope:
                result, stats = one_pass(args.workload, cache, specs, collectors)
            wall = time.perf_counter() - start
            ops.append(
                {
                    "wall": wall,
                    "cpu": task_clock() - cpu,
                    "executed": stats.executed,
                    "cached": stats.cached,
                    "execute_s": stats.execute_s,
                }
            )
            problems = check_pass(args.workload, golden, result, stats)
            failed += bool(problems)
            errors += [f"pass {index}: {p}" for p in problems]
            if warm_cache is None:
                shutil.rmtree(cache)
            index += 1
        if traced:
            tracer.uninstall()

    notes = tail_notes([o["wall"] for o in phases[False]])
    out = {"attempted": index, "failed": failed, "errors": errors, "notes": notes}
    if not args.trace:
        ops = phases[False]
        out["metrics"] = op_metrics(
            [o["wall"] for o in ops],
            len(ops) / sum(o["wall"] for o in ops),
            sum(o["cpu"] for o in ops),
            own_peak_rss_mb(),
        )
        return out
    ops = phases[True]
    layers = layer_metrics(tracer.spans, ops, root="experiments.campaign")
    plain_p50 = statistics.median(o["wall"] for o in phases[False])
    traced_p50 = statistics.median(o["wall"] for o in ops)
    layers["trace.overhead_frac"] = [traced_p50 / plain_p50 - 1.0, len(ops)]
    out["metrics"] = layers
    return out


def op_metrics(walls: List[float], ops_per_s: float, cpu_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics other than setup_s, as [value, n]."""
    n = len(walls)
    return {
        "op_p50_ms": [statistics.median(walls) * 1e3, n],
        "ops_per_s": [ops_per_s, n],
        "cpu_ms_per_op": [cpu_s / n * 1e3, n],
        "peak_rss_mb": [rss_mb, 1],
    }


def tail_notes(walls: List[float]) -> List[str]:
    """Tail operation times: printed, not gated (see the README)."""
    return [
        f"op_p{q}_ms {percentile(walls, q) * 1e3:.6g} ms (n={len(walls)}, not gated)"
        for q in (90, 99)
    ]


def layer_metrics(recorded: List[dict], ops: List[dict], root: str) -> dict:
    """Per-layer metrics, as [value, n], from the traced phase's spans
    and its operations' engine-stats deltas.  Layers the workload never
    crossed read 0."""
    n = len(ops)
    selfs = spans.self_times(recorded)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for s in recorded:
        by_name[s["name"]].append(s)

    def calls(name):
        return [len(by_name[name]) / n, n]

    def self_ms(*names):
        return [sum(selfs[s["id"]] for name in names for s in by_name[name]) * 1e3 / n, n]

    def ratio(part, whole):
        return [part / whole if whole else 0.0, n]

    executed = sum(o["executed"] for o in ops)
    cached = sum(o["cached"] for o in ops)
    busy_s = sum(o["execute_s"] for o in ops)
    pooled = [s for s in by_name["engine.run_cells"] if s["executed"] >= 2]
    disk_reads = {s["parent"] for s in by_name["engine.cache_get"]}
    shard_gets = by_name["shards.get"]
    roots = by_name[root]
    metrics = {
        "engine.cell_key.calls_per_op": calls("engine.cell_key"),
        "engine.cell_key.self_ms_per_op": self_ms("engine.cell_key"),
        "engine.cache_get.calls_per_op": calls("engine.cache_get"),
        "engine.cache_get.self_ms_per_op": self_ms("engine.cache_get"),
        "engine.cache_get.hit_ratio": ratio(cached, cached + executed),
        "engine.cache_put.calls_per_op": calls("engine.cache_put"),
        "engine.cache_put.self_ms_per_op": self_ms("engine.cache_put"),
        "engine.run_cells.calls_per_op": calls("engine.run_cells"),
        "engine.run_cells.self_ms_per_op": self_ms("engine.run_cells"),
        "engine.pool.efficiency": ratio(
            sum(s["execute_s"] for s in pooled),
            sum(s["jobs"] * (s["end"] - s["start"]) for s in pooled),
        ),
        "kernel.cells_per_op": [executed / n, n],
        "kernel.busy_ms_per_op": [busy_s * 1e3 / n, n],
        "kernel.ms_per_cell": ratio(busy_s * 1e3, executed),
        "kernel.batch_calls_per_op": calls("kernel.simulate_batch"),
        "plans.lbo_assemble.self_ms_per_op": self_ms("plans.lbo_curves", "plans.geomean_curves"),
        "plans.replay.calls_per_op": calls("plans.replay"),
        "plans.replay.self_ms_per_op": self_ms("plans.replay"),
        "plans.latency_report.self_ms_per_op": self_ms("plans.latency_report"),
        "experiments.campaign.self_ms_per_op": self_ms("experiments.campaign"),
        "experiments.render.self_ms_per_op": self_ms("experiments.render"),
        "supervisor.admit.calls_per_op": calls("supervisor.admit"),
        "supervisor.admit.self_ms_per_op": self_ms("supervisor.admit"),
        "jobqueue.submit.self_ms_per_op": self_ms("jobqueue.submit"),
        "jobqueue.finish.self_ms_per_op": self_ms("jobqueue.finish"),
        "shards.get.calls_per_op": calls("shards.get"),
        "shards.get.self_ms_per_op": self_ms("shards.get"),
        "shards.hot_hit_ratio": ratio(
            sum(1 for s in shard_gets if s["id"] not in disk_reads), len(shard_gets)
        ),
        "shards.put.self_ms_per_op": self_ms("shards.put"),
        "trace.unattributed_frac": ratio(
            sum(selfs[s["id"]] for s in roots),
            sum(s["end"] - s["start"] for s in roots),
        ),
    }
    # Service-only layers; serve_mixed() overwrites them.
    for name in PER_LAYER:
        metrics.setdefault(name, [0.0, n])
    return metrics


# ----------------------------------------------------------------------
# serve-mixed: a `chopin serve` subprocess under closed-loop load

_LISTENING = re.compile(r"listening on (http://\S+)")


class Server:
    """``chopin serve --port 0`` with its defaults (one worker,
    ``jobs=1``), untraced or through ``serve_traced.py``."""

    def __init__(self, state_dir: Path, spans_path: Optional[Path] = None) -> None:
        serve_args = ["--state-dir", str(state_dir), "--host", "127.0.0.1", "--port", "0"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.harness.cli", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans_path), *serve_args]
        self.state_dir = state_dir
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        self.url = None
        self.log: List[str] = []
        for line in self.proc.stderr:
            self.log.append(line)
            found = _LISTENING.search(line)
            if found:
                self.url = found.group(1)
                break
        if self.url is None:
            self.proc.wait()
            raise RuntimeError("chopin serve exited before listening:\n" + "".join(self.log))
        # Keep draining stderr so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.log.extend, args=(self.proc.stderr,))
        self._drain.start()
        self.client = ServiceClient(self.url, timeout_s=60.0)
        while True:
            try:
                self.client.readyz()
                break
            except ServiceError:
                if self.proc.poll() is not None:
                    raise RuntimeError("chopin serve exited before ready:\n" + "".join(self.log))
                time.sleep(0.01)

    def _stat(self) -> List[str]:
        # Fields after the parenthesised command name; utime is field 14.
        text = Path(f"/proc/{self.proc.pid}/stat").read_text()
        return text.rsplit(")", 1)[1].split()

    def cpu_s(self) -> float:
        """Task clock of the server and its waited-for children."""
        fields = self._stat()
        ticks = sum(int(fields[i]) for i in range(11, 15))  # utime..cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def journal(self) -> tuple:
        """(records, bytes) across every job-journal segment."""
        records = size = 0
        for path in self.state_dir.glob("jobs.jsonl*"):
            data = path.read_bytes()
            records += data.count(b"\n")
            size += len(data)
        return records, size

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()  # SIGTERM: the service drains and exits
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._drain.join()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"chopin serve exited {self.proc.returncode}:\n" + "".join(self.log)
            )


def drive(client: ServiceClient, stream: Iterator[dict], limit_s: float):
    """Closed loop: JOBS client threads each submit the stream's next
    job, poll until it is terminal, and go again until the stream ends.
    Past ``limit_s`` no new job starts, which bounds a run against a
    stalled service.  Returns (job records, refused submits, errors,
    wall)."""
    lock = threading.Lock()
    records: List[dict] = []
    refused: List[str] = []
    errors: List[str] = []
    deadline = time.monotonic() + limit_s

    def loop() -> None:
        try:
            while True:
                with lock:
                    payload = next(stream, None)
                    if payload is None or time.monotonic() >= deadline:
                        return
                start = time.perf_counter()
                try:
                    job_id = client.submit(payload)["id"]
                except ServiceError as exc:
                    refused.append(str(exc))
                    continue
                submitted = time.perf_counter()
                requests = 1
                while True:
                    status = client.status(job_id)
                    requests += 1
                    if status["state"] in TERMINAL_STATES:
                        break
                    time.sleep(POLL_S)
                stats = status["stats"] or {}
                records.append(
                    {
                        "id": job_id,
                        "spec": json.dumps(payload, sort_keys=True),
                        "state": status["state"],
                        "latency_s": time.perf_counter() - start,
                        "submit_s": submitted - start,
                        "requests": requests,
                        "executed": stats.get("executed", 0),
                        "cached": stats.get("cached", 0),
                        "execute_s": stats.get("execute_s", 0.0),
                    }
                )
        except Exception as exc:  # noqa: BLE001 -- reported as a failed run
            errors.append(f"client thread: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=loop) for _ in range(JOBS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, refused, errors, time.perf_counter() - start


def check_served(server: Server, records: List[dict], seed: int, probes: dict) -> List[str]:
    renders = {}
    for r in records:
        if r["state"] == "DONE":
            renders[r["id"]] = server.client.result(r["id"])["result"]["rendered"]
    distinct = sorted({r["spec"] for r in records})
    sample = random.Random(seed).sample(distinct, min(RENDER_SAMPLE, len(distinct)))
    return oracle.check_serve(records, renders, sample, probes)


def serve_phase(args, work: Path, name: str, traced: bool, probes: dict, setup_done=None):
    """Start a fresh service, drive the phase's share of the job stream
    through it, check, stop.  Returns a dict of what the phase measured."""
    state = work / name
    spans_path = work / f"{name}.spans.jsonl" if traced else None
    server = Server(state, spans_path)
    try:
        if setup_done is not None:
            setup_done()
            if args.setup_only:
                return None
        seconds = args.seconds / (2 if args.trace else 1)
        jobs = int(seconds * SERVE_JOBS_PER_S)
        stream = itertools.islice(job_stream(args.seed), jobs)
        cpu = server.cpu_s()
        records, refused, errors, wall = drive(server.client, stream, 4 * seconds)
        cpu = server.cpu_s() - cpu
        rss = server.peak_rss_mb()
        if len(records) + len(refused) < jobs:
            errors.append(f"only {len(records) + len(refused)} of {jobs} jobs ran in {4 * seconds:g}s")
        errors += check_served(server, records, args.seed, probes)
    finally:
        server.stop()
    return {
        "records": records,
        "refused": refused,
        "errors": errors,
        "wall": wall,
        "cpu": cpu,
        "rss": rss,
        "journal": server.journal(),
        "spans": spans.load(spans_path) if traced else [],
    }


def serve_mixed(args, work: Path) -> Optional[dict]:
    probes = oracle.load_golden("minheap")["probes"]
    plain = serve_phase(args, work, "serve", False, probes, setup_done=ready)
    if plain is None:
        return None
    phases = [plain]
    if args.trace:
        phases.append(serve_phase(args, work, "serve-traced", True, probes))
    attempted = sum(len(p["records"]) + len(p["refused"]) for p in phases)
    failed = sum(
        sum(r["state"] != "DONE" for r in p["records"]) + len(p["refused"]) for p in phases
    )
    errors = [e for p in phases for e in p["errors"]]
    records = plain["records"]
    latencies = [r["latency_s"] for r in records]
    cold = [r["latency_s"] for r in records if r["executed"] > 0]
    warm = [r["latency_s"] for r in records if r["executed"] == 0]
    notes = tail_notes(latencies) + [
        f"jobs {len(records)}: {len(cold)} cold, {len(warm)} warm, "
        f"{sum(r['executed'] for r in records)} cells simulated",
        f"failed_frac {failed / attempted:.6g} ratio (n={attempted})",
    ]
    out = {"attempted": attempted, "failed": failed, "errors": errors, "notes": notes}
    if not args.trace:
        out["metrics"] = op_metrics(
            latencies, len(records) / plain["wall"], plain["cpu"], plain["rss"]
        )
        return out

    traced = phases[1]
    ops = traced["records"]
    n = len(ops)
    recorded = traced["spans"]
    layers = layer_metrics(recorded, ops, root="server.execute")
    submitted = {s["rid"]: s["end"] for s in recorded if s["name"] == "jobqueue.submit"}
    waits = [
        s["end"] - submitted[s["rid"]]
        for s in recorded
        if s["name"] == "jobqueue.claim" and s["rid"] in submitted
    ]
    busy = sum(s["end"] - s["start"] for s in recorded if s["name"] == "server.execute")
    records_n, journal_bytes = traced["journal"]
    traced_p50 = statistics.median(r["latency_s"] for r in ops)
    layers.update(
        {
            "server.http.requests_per_op": [sum(r["requests"] for r in ops) / n, n],
            "server.http.submit_p50_ms": [statistics.median(r["submit_s"] for r in ops) * 1e3, n],
            "server.http.refused": [len(traced["refused"]), n],
            "server.worker.busy_ms_per_op": [busy * 1e3 / n, n],
            "server.worker.utilization": [busy / traced["wall"], n],
            "server.cold_job_p50_ms": [statistics.median(cold) * 1e3, len(cold)],
            "server.warm_job_p50_ms": [statistics.median(warm) * 1e3, len(warm)],
            "jobqueue.wait_p50_ms": [statistics.median(waits) * 1e3, len(waits)],
            "jobqueue.journal_records_per_op": [records_n / n, n],
            "jobqueue.journal_bytes_per_op": [journal_bytes / n, n],
            "trace.overhead_frac": [traced_p50 / statistics.median(latencies) - 1.0, n],
        }
    )
    out["metrics"] = layers
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    run = serve_mixed if args.workload == "serve-mixed" else one_shot
    out = run(args, args.work)
    if out is not None:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
