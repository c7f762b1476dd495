"""Sweep profiling: wall-time attribution per collection stage.

A sweep's real-time cost decomposes into five stages shared by both
execution walks (the event-driven scheduler and the batched kernel):

* ``provision`` — pool/partition capacity changes (resize, reprovision
  after spot reclaim),
* ``setup``     — per-VM-type application setup runs,
* ``scenario``  — executing the scenarios themselves,
* ``persist``   — dataset appends and task-record syncs through the
  store backend,
* ``recovery``  — the spot eviction/retry drive around a scenario.

The batched kernel times each stage separately.  The scheduler
interleaves pool lifecycles on one event queue, so it books the whole
drive as ``scenario``, minus the ``persist`` time spent inside it.

The profiler is a dict of float accumulators — cheap enough for the
batched kernel's hot loop (two ``perf_counter`` calls per timed
section) — and its totals surface as ``CollectionReport.profile`` /
``CollectResult.profile`` and as synthetic ``stage.*`` spans under the
sweep's ``collect.sweep`` trace span.

Note the asymmetry with the *simulated* clock: ``simulated_wall_s`` and
``makespan_s`` measure modelled cluster time; the profile measures the
reproduction's own wall time, which is what engine and store
optimizations actually move.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

#: Canonical stage names, in pipeline order.
STAGES = ("provision", "setup", "scenario", "persist", "recovery")


class SweepProfiler:
    """Accumulates wall seconds per stage for one sweep."""

    __slots__ = ("totals", "_started")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self._started = time.perf_counter()

    def add(self, stage: str, seconds: float) -> None:
        """Credit ``seconds`` of wall time to ``stage``."""
        if seconds > 0.0:
            self.totals[stage] = self.totals.get(stage, 0.0) + seconds

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the body and credit it to ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def as_dict(self) -> Dict[str, float]:
        """Stage totals plus ``total_s`` (whole-sweep wall time),
        rounded for stable serialization; stages with no time are
        omitted."""
        profile = {
            stage: round(self.totals[stage], 6)
            for stage in STAGES if stage in self.totals
        }
        for stage in sorted(self.totals):
            if stage not in profile:  # non-canonical extras, if any
                profile[stage] = round(self.totals[stage], 6)
        profile["total_s"] = round(time.perf_counter() - self._started, 6)
        return profile
