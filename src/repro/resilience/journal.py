"""The job journal's JSONL discipline and its one replay fold.

``chopin serve`` persists every job transition as one JSON line in
``jobs.jsonl``; once the active file passes a size threshold it is
sealed as ``jobs.jsonl.<n>`` and a fresh one started.  Two parties read
that history: the :class:`~repro.service.jobqueue.JobQueue`, which
replays it on start-up, and ``chopin doctor``, which scans and compacts
it while the service is stopped.  Both go through this module, so they
cannot disagree about what the journal says:

- :func:`segments` lists the sealed rotation segments in rotation order;
- :func:`read_lines` reads a file's lines and reports a torn tail;
- :func:`append` is the writer's ``fsync``'d line-atomic append, with
  the guard that starts a line after a torn tail on a fresh line;
- :func:`rewrite` replaces a file crash-safely (temp file, ``fsync``,
  atomic rename);
- :func:`fold_jobs` is the single last-state-wins fold of every record
  into one :class:`FoldedJob` per job.

The module is a stdlib-only leaf: it imports nothing from
:mod:`repro.service` or :mod:`repro.harness`.  The job-spec check is
passed in (``JobSpec.from_payload``), so the doctor keeps exactly the
jobs the queue keeps.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: Every state a job can be in, in lifecycle order.  A record naming
#: any other state leaves the job's state as it was.
JOB_STATES: Tuple[str, ...] = (
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "PARTIAL",
    "DEAD_LETTER",
)

#: Outcome fields a transition record may carry; the last one written wins.
OUTCOME_FIELDS: Tuple[str, ...] = (
    "error", "cells", "holes", "stats", "result", "failure",
)


def segments(path: Union[str, Path]) -> List[Path]:
    """The sealed ``<name>.<n>`` segments of a journal, in rotation
    (= chronological) order; the active file itself is not listed."""
    path = Path(path)
    found = []
    for candidate in path.parent.glob(path.name + ".*"):
        suffix = candidate.name[len(path.name) + 1:]
        if suffix.isdigit():
            found.append((int(suffix), candidate))
    return [segment for _, segment in sorted(found)]


def read_lines(path: Union[str, Path]) -> Tuple[List[str], bool]:
    """A journal file's lines, and whether its tail is torn (the file
    does not end in a newline: a writer died mid-append).  A missing or
    unreadable file reads as empty; undecodable bytes read as a line
    that fails to parse, like any other torn line."""
    try:
        text = Path(path).read_bytes().decode("utf-8", errors="replace")
    except OSError:
        return [], False
    return text.splitlines(), bool(text) and not text.endswith("\n")


def append(path: Union[str, Path], text: str, torn_tail: bool = False) -> Optional[int]:
    """Append ``text`` in one write, flushed and ``fsync``'d before
    returning: the file's size afterwards, or ``None`` if the write
    failed.

    A single small write in append mode is line-atomic on POSIX, so pass
    whole lines.  ``torn_tail`` says the file ends mid-line; the guard
    then starts ``text`` on a fresh line, so it does not glue onto the
    tear and lose both lines.
    """
    path = Path(path)
    if torn_tail:
        text = "\n" + text
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
            return fh.tell()
    except OSError:
        return None


def rewrite(path: Union[str, Path], lines: Sequence[str]) -> bool:
    """Replace ``path`` with ``lines`` crash-safely: a temp file in the
    same directory, ``fsync``'d, then renamed over ``path`` atomically,
    so a crash leaves the old file or the new one, never a mix.  Returns
    whether the rewrite landed."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


@dataclass
class FoldedJob:
    """One job as its journal records leave it.

    ``spec`` is what the spec check returned for the submit record and
    ``payload`` that record's spec object as written.  ``outcome`` holds
    the :data:`OUTCOME_FIELDS` the records carried, last one written
    winning.
    """

    id: str
    spec: Any
    payload: dict
    seq: int
    state: str = "QUEUED"
    requeues: int = 0
    idempotency_key: Optional[str] = None
    outcome: Dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> dict:
        """This job as one record that replays to the same job.  It
        carries a numeric ``requeues`` (never the incremental
        ``requeued`` flag), so replaying a compacted journal, or
        compacting twice, yields the same requeue count."""
        record = {
            "id": self.id,
            "seq": self.seq,
            "spec": self.payload,
            "state": self.state,
            "requeues": self.requeues,
            **self.outcome,
        }
        if self.idempotency_key:
            record["idempotency_key"] = self.idempotency_key
        return record


@dataclass
class JobsFold:
    """Everything :func:`fold_jobs` read out of a journal."""

    #: Jobs in submission order.
    jobs: Dict[str, FoldedJob] = field(default_factory=dict)
    #: Idempotency key -> job id.
    idempotency: Dict[str, str] = field(default_factory=dict)
    seq: int = 0  # the highest submission sequence number
    segments: List[Path] = field(default_factory=list)
    lines: int = 0  # non-blank lines across every file
    torn: int = 0  # lines that are not a JSON object with a string id
    dropped: int = 0  # ids with records but no accepted submit record
    torn_tail: bool = False  # the active file ends mid-line


def fold_jobs(path: Union[str, Path], parse_spec: Callable[[dict], Any]) -> JobsFold:
    """Replay a job journal: every sealed segment in rotation order, then
    the active file, each record folded in turn, the last state winning.

    A record is a JSON object with a string ``id``; anything else counts
    as torn.  A job comes into being with its first record whose
    ``spec`` object ``parse_spec`` accepts (it raises ``ValueError``
    otherwise); records for an id without one are dropped, because its
    submit line was lost or is foreign.  A ``state`` outside
    :data:`JOB_STATES` is ignored.  ``requeued: true`` adds one requeue
    and a numeric ``requeues`` (a compacted snapshot) sets the count.
    """
    path = Path(path)
    fold = JobsFold(segments=segments(path))
    seen = set()
    for source in fold.segments + [path]:
        lines, fold.torn_tail = read_lines(source)
        for line in lines:
            if not line.strip():
                continue
            fold.lines += 1
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict) or not isinstance(record.get("id"), str):
                fold.torn += 1
                continue
            seen.add(record["id"])
            _fold_record(fold, record, parse_spec)
    fold.dropped = len(seen - fold.jobs.keys())
    return fold


def _fold_record(fold: JobsFold, record: dict, parse_spec: Callable[[dict], Any]) -> None:
    job_id = record["id"]
    job = fold.jobs.get(job_id)
    if job is None:
        payload = record.get("spec")
        if not isinstance(payload, dict):
            return
        try:
            spec = parse_spec(payload)
        except ValueError:
            return
        seq = record.get("seq")
        seq = seq if isinstance(seq, int) else fold.seq + 1
        job = fold.jobs[job_id] = FoldedJob(job_id, spec, payload, seq)
        fold.seq = max(fold.seq, seq)
    if record.get("state") in JOB_STATES:
        job.state = record["state"]
    if record.get("requeued"):
        job.requeues += 1
    requeues = record.get("requeues")
    if isinstance(requeues, int) and not isinstance(requeues, bool):
        job.requeues = requeues
    key = record.get("idempotency_key")
    if isinstance(key, str) and key:
        job.idempotency_key = key
        fold.idempotency[key] = job_id
    for name in OUTCOME_FIELDS:
        if name in record:
            job.outcome[name] = record[name]
