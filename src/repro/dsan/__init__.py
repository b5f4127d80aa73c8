"""Runtime determinism sanitizer (``repro run --dsan``).

Guards the reproducibility contract the parallel layer promises
(bit-identical results for any worker count) at run time
(:mod:`repro.dsan.runtime`): event-stream hashing with shadow-run
comparison plus pickle and state-leak verification of every pool
shard while :func:`~repro.dsan.runtime.dsan_mode` is armed.
"""

from __future__ import annotations

from repro.dsan.runtime import (
    ShadowReport,
    dsan_mode,
    fold_hashes,
    verify_shadow,
)

__all__ = [
    "ShadowReport",
    "dsan_mode",
    "fold_hashes",
    "verify_shadow",
]
