"""Shared helpers for the figure-reproducing benches."""

from __future__ import annotations

import os


def full_scale() -> bool:
    """True when REPRO_BENCH_FULL=1 asks for the complete circuit set."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark's timer.

    The experiments are long-running simulations; statistical repetition
    is already built into them (seeds/cycles), so the benchmark fixture
    records a single round instead of re-running the physics.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
