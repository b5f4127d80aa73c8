"""Deterministic seed derivation for sharded runs.

Every shard (a ``sweep_map`` gate row, a ``sweep_iv`` voltage chunk,
an ensemble replica) gets its own ``numpy.random.SeedSequence`` child,
derived *statelessly* from the run's root seed and the shard index.
Two invariants follow:

* the stream a shard draws depends only on ``(root seed, shard
  index)`` — never on worker count or scheduling order, so parallel
  results are bit-reproducible;
* distinct shards get statistically independent streams (the
  ``SeedSequence.spawn`` guarantee), fixing the correlated-noise bug
  where every ``sweep_map`` row replayed the same RNG stream.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


def as_seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """Coerce an integer or ``SeedSequence`` seed to a ``SeedSequence``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise SimulationError(f"seed must be >= 0, got {seed}")
        return np.random.SeedSequence(int(seed))
    raise SimulationError(
        "seed must be an int or numpy.random.SeedSequence, "
        f"got {type(seed).__name__}"
    )


def describe_seed(seed: int | np.random.SeedSequence) -> str:
    """Human-readable identity of a seed, for ledger records and
    campaign cell keys.

    A spawned child renders as ``entropy=<root> spawn_key=(i,)`` — the
    exact coordinates :func:`spawn_seeds` would use to re-derive it, so
    a reader can verify which shard a record belongs to.
    """
    if isinstance(seed, np.random.SeedSequence):
        return f"entropy={seed.entropy} spawn_key={tuple(seed.spawn_key)}"
    return repr(seed)


def spawn_seed_at(
    seed: int | np.random.SeedSequence, key: tuple[int, ...]
) -> np.random.SeedSequence:
    """The child of ``seed`` at an explicit spawn-key coordinate.

    :func:`spawn_seeds` indexes children positionally, which ties a
    shard's stream to its position in one particular grid.  The
    campaign layer instead derives ``key`` from the *content* of a cell
    (parameter point and replica index), so the same physical cell
    draws the same stream in every grid that contains it — the property
    that makes cached cells reusable across overlapping sweeps.
    """
    for part in key:
        if part < 0:
            raise SimulationError(f"spawn-key parts must be >= 0, got {part}")
    root = as_seed_sequence(seed)
    entropy = root.entropy if root.entropy is not None else 0
    return np.random.SeedSequence(
        entropy=entropy,
        spawn_key=tuple(root.spawn_key) + tuple(int(part) for part in key),
        pool_size=root.pool_size,
    )


def spawn_seeds(
    seed: int | np.random.SeedSequence, n: int
) -> list[np.random.SeedSequence]:
    """``n`` independent child seeds of ``seed``, statelessly.

    Equivalent to ``SeedSequence(seed).spawn(n)`` on a fresh root, but
    without mutating ``seed``'s spawn counter when a ``SeedSequence``
    instance is passed — calling this twice with the same arguments
    always returns the same children.
    """
    if n < 0:
        raise SimulationError(f"cannot spawn {n} seeds")
    root = as_seed_sequence(seed)
    entropy = root.entropy if root.entropy is not None else 0
    return [
        np.random.SeedSequence(
            entropy=entropy,
            spawn_key=tuple(root.spawn_key) + (i,),
            pool_size=root.pool_size,
        )
        for i in range(n)
    ]
