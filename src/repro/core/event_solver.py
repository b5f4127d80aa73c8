"""Kinetic Monte Carlo event selection (Sec. III-B, *Event solver*).

Tunnel events are independent Poisson processes, so the residence time
in the current charge state is exponential with the total rate
(Eq. 5), and the realised event is drawn from the rates treated as a
categorical distribution.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import FrozenCircuitError


def draw_time(total_rate: float, rng: np.random.Generator) -> float:
    """Residence time ``dt = -ln(r) / Gamma_sum`` (Eq. 5)."""
    if total_rate <= 0.0:
        raise FrozenCircuitError(
            "total tunneling rate is zero: the circuit is frozen "
            "(deep Coulomb blockade at this bias/temperature); enable "
            "cotunneling or raise the bias/temperature"
        )
    r = rng.random()
    while r == 0.0:  # pragma: no cover - measure-zero draw
        r = rng.random()
    return -math.log(r) / total_rate


def choose_event(rates: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an event index with probability proportional to its rate."""
    total = np.cumsum(rates)[-1]
    if total <= 0.0:
        raise FrozenCircuitError("cannot choose an event: all rates are zero")
    return choose_channel(rates, rng.random() * total)


def choose_channel(rates: np.ndarray, target: float) -> int:
    """Channel whose interval of the cumulative ``rates`` holds
    ``target``.

    A target that rounding carries past the top of the cumulative sum
    (the caller's total may be a differently ordered sum) takes the
    last channel with a positive rate, never a zero-rate one.
    """
    cumulative = np.cumsum(rates)
    index = int(np.searchsorted(cumulative, target, side="right"))
    if index >= len(rates):
        index = _last_positive(rates, len(rates) - 1)
    return index


def _last_positive(rates: np.ndarray, index: int) -> int:
    """The last index at or below ``index`` with a positive rate (0
    when there is none)."""
    while index > 0 and not rates[index] > 0.0:
        index -= 1
    return index


def choose_pair(
    pair: np.ndarray, fw: np.ndarray, target: float
) -> tuple[int, bool]:
    """Junction whose interval of the cumulative pair rates
    ``pair = fw + bw`` holds ``target``, and whether the event runs
    forward (``True``) or backward.

    ``target`` lies in ``[0, sum(pair))`` up to rounding: the caller's
    total may be a differently ordered sum than the cumulative one.  A
    target that rounding carries past the top of its pair's interval
    takes the top of the last pair with a positive rate, so the chosen
    pair and direction always have positive rates.
    """
    cumulative = np.cumsum(pair)
    j = int(np.searchsorted(cumulative, target, side="right"))
    residual = target - (cumulative[j - 1] if j else 0.0)
    if j >= len(pair) or not residual < pair[j]:
        j = _last_positive(pair, min(j, len(pair) - 1))
        residual = math.nextafter(pair[j], 0.0)
    return j, bool(residual < fw[j])
