"""The service's shared result cache: :class:`ResultCache` plus a hot set.

Every worker engine of a :class:`~repro.service.server.SweepService`
shares one cache.  On disk it *is* the engine's
:class:`~repro.harness.engine.ResultCache` — one entry per key at
``<root>/<key[:2]>/<key>.pkl``, published with temp file +
``os.replace`` — so a one-shot ``chopin lbo --cache-dir`` run and the
service read each other's entries, and a reader that loses a race with
a writer simply sees a miss.

What the service adds is memory.  Concurrent jobs sweeping overlapping
grids read the same entries again and again, so a bounded LRU of
deserialized :class:`~repro.harness.engine.CellResult` objects
(:data:`HOT_SET` entries) sits in front of ``get`` and ``put``.  The
lock guards only the hot set; unpickling and file IO run outside it, so
workers do not contend on the expensive part.  Puts write through: the
cache is the only record of completed cells, so a killed service keeps
every cell it has put.

Entries that an older service wrote with a non-default fan-out
(``--cache-shards`` 1, 16 or 4096) are no longer read; ``chopin doctor``
quarantines them as ``misplaced``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from repro.harness.engine import CellResult, ResultCache

#: Deserialized results the hot set keeps, least recently used evicted.
HOT_SET = 256


class ShardedResultCache(ResultCache):
    """:class:`~repro.harness.engine.ResultCache` behind a thread-safe
    LRU hot set of :data:`HOT_SET` results.

    ``hot_hits`` counts gets served from memory; ``corrupt`` is the
    inherited count of entries that existed on disk but failed to load.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(root)
        self.hot_hits = 0
        self._lock = threading.Lock()
        self._hot: "OrderedDict[str, CellResult]" = OrderedDict()

    def get(self, key: str) -> Optional[CellResult]:
        """The hot set, then disk."""
        with self._lock:
            hit = self._hot.get(key)
            if hit is not None:
                self._hot.move_to_end(key)
                self.hot_hits += 1
                return hit
        result = super().get(key)
        if result is not None:
            self._remember(result)
        return result

    def put(self, result: CellResult) -> None:
        """Store a result in the hot set and on disk."""
        self._remember(result)
        super().put(result)

    def flush(self) -> None:
        """The service calls this when it stops.  Puts already wrote
        through, so there is nothing to do."""

    def _remember(self, result: CellResult) -> None:
        with self._lock:
            self._hot[result.key] = result
            self._hot.move_to_end(result.key)
            while len(self._hot) > HOT_SET:
                self._hot.popitem(last=False)
