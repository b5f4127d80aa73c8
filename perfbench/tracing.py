"""In-memory span tracer for the traced benchmark run.

The tracer wraps public callables of the simulator (class attributes
such as ``PairRateTree.update`` or ``BaseSolver.step``) from outside the
package: nothing under ``src/`` knows it is being traced.  Every call
into a wrapped callable records one span -- name, start, end, the span
that was open when it started (its parent) and the benchmark phase it
ran in.  Spans live in flat typed arrays while the run is going and are
written out once, at exit; self time (a span's duration minus the time
its child spans cover) is computed from those arrays afterwards.

Set-up spans (``*_init``) are recorded whenever the tracer is installed.
Per-call spans (``fine=True``) are recorded only inside a timed phase,
so set-up work such as the ~5k C^-1 column solves of ``JunctionTable``
is charged to the set-up span that caused it, not scattered into
thousands of per-call spans nobody reports.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: phase ids; 0 is set-up, timed phases are numbered from 1
SETUP = 0


class Tracer:
    """Flat span store with a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.phase_names: list[str] = ["setup"]
        self.phase = SETUP
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------
    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.phase_id.append(self.phase)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def timed_phase(self, name: str):
        """Scope in which per-call spans are recorded under ``name``."""
        if name not in self.phase_names:
            self.phase_names.append(name)
        self.phase = self.phase_names.index(name)
        try:
            yield
        finally:
            self.phase = SETUP

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, fine: bool) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a
        span-recording wrapper.

        Setting the wrapper on a subclass (``AdaptiveSolver.step``)
        shadows the inherited base-class function for that subclass
        only, which is how one shared method gets per-solver spans.
        """
        had_own = attr in owner.__dict__
        original = getattr(owner, attr)
        nid = self.intern(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if fine and tracer.phase == SETUP:
                return original(*args, **kwargs)
            index = tracer.open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        self._patches.append((owner, attr, owner.__dict__.get(attr), had_own))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "phase_id": np.frombuffer(self.phase_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span, with the name and phase tables, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            phases=np.array(self.phase_names),
            **self.arrays(),
        )


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children.

    Children of one span never overlap (calls are synchronous), so the
    part of the parent's interval they cover is the sum of their
    durations.
    """
    duration = spans["end"] - spans["start"]
    covered = np.zeros_like(duration)
    parent = spans["parent"]
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def summarize(spans: dict[str, np.ndarray], names: list[str],
              phase_names: list[str]) -> dict[str, dict[str, tuple[float, int]]]:
    """``{phase: {span name: (total self seconds, calls)}}``."""
    own = self_times(spans)
    out: dict[str, dict[str, tuple[float, int]]] = {}
    for pid, phase in enumerate(phase_names):
        in_phase = spans["phase_id"] == pid
        table: dict[str, tuple[float, int]] = {}
        for nid, name in enumerate(names):
            mask = in_phase & (spans["name_id"] == nid)
            calls = int(np.count_nonzero(mask))
            if calls:
                table[name] = (float(own[mask].sum()), calls)
        out[phase] = table
    return out
