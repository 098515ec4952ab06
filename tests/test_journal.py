"""The job journal's one replay fold (``repro.resilience.journal``).

The contract under test: the job queue's replay and ``chopin doctor``'s
scan and compaction read the journal through the same fold, so they
agree on every job, state and requeue count — for any record the
journal may hold, and for a journal cut short at any byte, in the
active file or in a sealed rotation segment.
"""

import ast
import json
import os
import shutil
from collections import Counter
from pathlib import Path


from repro.resilience import compact_jobs_journal, journal, scan_jobs_journal
from repro.service import JobQueue, JobSpec


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spec():
    return JobSpec(
        benchmark="lusearch",
        collectors=("G1",),
        multiples=(2.0,),
        invocations=1,
        scale=0.05,
    )


def _history(path, rotate_bytes):
    """A rotated journal holding every kind of record the queue writes:
    submits (one with an idempotency key), a finished job with a
    payload, a reaped requeue, a dead letter, a cancel, and a job left
    RUNNING by a crash.  The submits come first, so most jobs' later
    transitions sit in a later file than their submit line."""
    clock = FakeClock()
    queue = JobQueue(
        path, lease_s=5.0, max_requeues=1, clock=clock, rotate_bytes=rotate_bytes
    )
    done, _ = queue.submit_idempotent(_spec(), "key-1")
    dead = queue.submit(_spec())
    cancelled = queue.submit(_spec())
    queue.submit(_spec())
    queue.submit(_spec())
    queue.claim(timeout=0.1)
    queue.finish(done.id, "DONE", cells=4, stats={"executed": 4})
    for _ in range(2):
        queue.claim(timeout=0.1)
        clock.now += 5.1
        queue.reap()  # requeued once, then dead-lettered
    queue.cancel(cancelled.id)
    queue.claim(timeout=0.1)  # left RUNNING: the process "crashes" here
    return dead


def _replayed(path):
    """Each job's (state, requeues) after a restart on ``path``."""
    queue = JobQueue(path, max_requeues=10)
    return {job.id: (job.state, job.requeues) for job in queue.jobs()}


def _write(files, directory):
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return directory / "jobs.jsonl"


def _assert_folds_agree(files, work):
    """Queue replay, the doctor's scan, and compaction followed by a
    replay agree on the journal ``files``.  A restart requeues the jobs
    a crash left RUNNING, which the scan reports as orphans."""
    path = _write(files, work / "replay")
    scan = scan_jobs_journal(path)  # read-only, so before the replay
    replayed = _replayed(path)
    compacted_path = _write(files, work / "compact")
    compact_jobs_journal(compacted_path)
    assert _replayed(compacted_path) == replayed
    assert scan.jobs == len(replayed)
    expected = Counter(scan.by_state)
    orphans = expected.pop("RUNNING", 0)
    expected["QUEUED"] += orphans
    assert Counter(state for state, _ in replayed.values()) == +expected
    assert all(replayed[job_id][0] == "QUEUED" for job_id in scan.orphaned)
    assert scan.requeues + orphans == sum(count for _, count in replayed.values())


class TestOneFold:
    def test_leaf_module_imports_only_the_standard_library(self):
        tree = ast.parse(Path(journal.__file__).read_text())
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert not any(name.startswith("repro") for name in modules)

    def test_unknown_state_does_not_survive_compaction(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path)
        job = queue.submit(_spec())
        queue.claim(timeout=0.1)
        queue.finish(job.id, "DONE", cells=1)
        with path.open("a") as fh:
            fh.write(json.dumps({"id": job.id, "state": "ZOMBIE"}) + "\n")
        assert JobQueue(path).get(job.id).state == "DONE"
        assert scan_jobs_journal(path).by_state == {"DONE": 1}
        assert compact_jobs_journal(path).compacted
        # A finished job must not come back to run again.
        assert JobQueue(path).get(job.id).state == "DONE"

    def test_doctor_drops_what_the_queue_drops(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path)
        kept = queue.submit(_spec())
        with path.open("a") as fh:
            # A transition whose submit line was lost, and a submit line
            # whose spec the queue rejects.
            fh.write(json.dumps({"id": "job-000042", "state": "DONE"}) + "\n")
            fh.write(json.dumps({"id": "job-000043", "seq": 43, "state": "QUEUED",
                                 "spec": {"benchmark": "lusearch", "kind": "nope"}}) + "\n")
        assert [job.id for job in JobQueue(path).jobs()] == [kept.id]
        assert scan_jobs_journal(path).jobs == 1
        compaction = compact_jobs_journal(path)
        assert (compaction.lines_after, compaction.dropped) == (1, 2)
        assert [job.id for job in JobQueue(path).jobs()] == [kept.id]

    def test_compaction_folds_segments_when_the_active_file_is_absent(self, tmp_path):
        # A service stopped right after rotating leaves only segments.
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path, rotate_bytes=1)
        jobs = [queue.submit(_spec()).id for _ in range(3)]
        assert not path.exists() and len(journal.segments(path)) == 3
        compaction = compact_jobs_journal(path)
        assert compaction.compacted and compaction.segments_before == 3
        assert journal.segments(path) == []
        assert [job.id for job in JobQueue(path).jobs()] == jobs

    def test_truncation_at_every_byte_agrees(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fsync", lambda fd: None)  # speed only
        source = tmp_path / "source"
        source.mkdir()
        dead = _history(source / "jobs.jsonl", rotate_bytes=400)
        sealed = journal.segments(source / "jobs.jsonl")
        assert len(sealed) >= 2, "the history must span rotation segments"
        files = {path.name: path.read_bytes() for path in source.iterdir()}
        whole = _replayed(_write(files, tmp_path / "whole"))
        assert whole[dead.id] == ("DEAD_LETTER", 1)
        assert Counter(state for state, _ in whole.values()) == {
            "DONE": 1, "DEAD_LETTER": 1, "CANCELLED": 1, "QUEUED": 2,
        }
        for victim in ("jobs.jsonl", sealed[0].name):
            data = files[victim]
            for cut in range(len(data) + 1):
                _assert_folds_agree({**files, victim: data[:cut]}, tmp_path)


class TestJournalFiles:
    def test_torn_tail_guard_starts_a_fresh_line(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal.append(path, '{"id": "a"}\n')
        journal.append(path, '{"id": "b', torn_tail=False)  # a crash mid-append
        lines, torn_tail = journal.read_lines(path)
        assert torn_tail and lines == ['{"id": "a"}', '{"id": "b']
        size = journal.append(path, '{"id": "c"}\n', torn_tail=True)
        assert size == path.stat().st_size
        assert journal.read_lines(path) == (['{"id": "a"}', '{"id": "b', '{"id": "c"}'], False)

    def test_missing_and_undecodable_files_read_as_torn_not_fatal(self, tmp_path):
        assert journal.read_lines(tmp_path / "absent.jsonl") == ([], False)
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path)
        job = queue.submit(_spec())
        with path.open("ab") as fh:
            fh.write(b"\xff\xfe rot\n")
        assert [j.id for j in JobQueue(path).jobs()] == [job.id]
        assert scan_jobs_journal(path).torn == 1

    def test_rewrite_replaces_atomically(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text("old\n")
        assert journal.rewrite(path, ["a", "b"])
        assert path.read_text() == "a\nb\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.jsonl"]

    def test_segments_list_in_rotation_order(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        for name in ("jobs.jsonl.10", "jobs.jsonl.2", "jobs.jsonl.tmp", "jobs.jsonl"):
            (tmp_path / name).write_text("")
        assert [p.name for p in journal.segments(path)] == ["jobs.jsonl.2", "jobs.jsonl.10"]
