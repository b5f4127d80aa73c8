"""Bounded parameter distributions for the scenario generator.

Every knob a device family randomises is declared as a
:class:`Distribution` with explicit bounds, collected into a
:class:`ParamSpace`.  Declaring the space (instead of sprinkling
``rng.uniform`` calls through the builders) buys three things:

* the property tests can assert that **every** draw respects its
  configured bounds (a drifting distribution is a generator bug);
* a case's parameters are a plain ``{name: value}`` dict, so the
  reproducer record pins exactly what was drawn;
* all randomness flows through one ``numpy.random.Generator`` seeded
  by ``SeedSequence`` spawning, keeping the determinism sanitizer's
  RNG-provenance rules satisfied.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Union

import numpy as np

from repro.errors import GeneratorError

#: the value type a distribution draws
Value = Union[float, int, str]


@dataclasses.dataclass(frozen=True)
class Uniform:
    """A float drawn uniformly from ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (self.low <= self.high):
            raise GeneratorError(f"Uniform needs low <= high, got {self}")

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def contains(self, value: Value) -> bool:
        return (
            isinstance(value, (int, float))
            and self.low <= float(value) <= self.high
        )


@dataclasses.dataclass(frozen=True)
class LogUniform:
    """A positive float drawn log-uniformly from ``[low, high]``.

    The natural distribution for resistances and capacitances, whose
    interesting regimes span decades.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (0.0 < self.low <= self.high):
            raise GeneratorError(
                f"LogUniform needs 0 < low <= high, got {self}"
            )

    def draw(self, rng: np.random.Generator) -> float:
        # the argument is bounded by [log(low), log(high)] by construction
        return float(
            math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        )

    def contains(self, value: Value) -> bool:
        if not isinstance(value, (int, float)):
            return False
        # a hair of slack for the exp/log round trip at the endpoints
        return self.low * (1.0 - 1e-12) <= float(value) <= self.high * (
            1.0 + 1e-12
        )


@dataclasses.dataclass(frozen=True)
class IntRange:
    """An integer drawn uniformly from ``[low, high]`` inclusive."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if not (self.low <= self.high):
            raise GeneratorError(f"IntRange needs low <= high, got {self}")

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def contains(self, value: Value) -> bool:
        return (
            isinstance(value, (int, np.integer))
            and self.low <= int(value) <= self.high
        )


@dataclasses.dataclass(frozen=True)
class Choice:
    """One of a fixed tuple of options, with optional weights."""

    options: tuple[Value, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.options:
            raise GeneratorError("Choice needs at least one option")
        if self.weights is not None and (
            len(self.weights) != len(self.options)
            or any(w < 0.0 for w in self.weights)
            or sum(self.weights) <= 0.0
        ):
            raise GeneratorError(f"Choice weights malformed: {self}")

    def draw(self, rng: np.random.Generator) -> Value:
        if self.weights is None:
            index = int(rng.integers(len(self.options)))
        else:
            total = sum(self.weights)
            probabilities = [w / total for w in self.weights]
            index = int(rng.choice(len(self.options), p=probabilities))
        return self.options[index]

    def contains(self, value: Value) -> bool:
        return value in self.options


Distribution = Union[Uniform, LogUniform, IntRange, Choice]


class ParamSpace:
    """An ordered, named collection of bounded distributions.

    Draw order is the declaration order, so a space draws the identical
    parameter vector for the identical generator stream — cases are a
    pure function of ``(root seed, case index)``.
    """

    def __init__(self, dims: Mapping[str, Distribution]):
        if not dims:
            raise GeneratorError("ParamSpace needs at least one dimension")
        self._dims: dict[str, Distribution] = dict(dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._dims)

    def __getitem__(self, name: str) -> Distribution:
        try:
            return self._dims[name]
        except KeyError:
            raise GeneratorError(f"unknown parameter {name!r}") from None

    def draw(self, rng: np.random.Generator) -> dict[str, Value]:
        """One parameter vector, drawn in declaration order."""
        return {name: dist.draw(rng) for name, dist in self._dims.items()}

    def contains(self, params: Mapping[str, Value]) -> list[str]:
        """Names of parameters outside their declared bounds.

        Unknown names are violations too (the generator drew something
        it never declared); missing names are *not* (families may store
        derived quantities separately).
        """
        violations = []
        for name, value in params.items():
            dist = self._dims.get(name)
            if dist is None or not dist.contains(value):
                violations.append(name)
        return violations
