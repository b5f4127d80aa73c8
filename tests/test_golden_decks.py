"""Golden-regression corpus over every example deck.

Each deck in ``examples/decks/`` has a committed record under
``tests/data/golden/`` holding its bit-exact output at ``seed=0``:
voltages and currents as ``float.hex()`` strings (no round-trip loss)
plus the dsan combined event hash.  The tests replay every deck
serially and at ``jobs=2`` and demand byte-identical results — the
whole solver stack (physics, adaptive scheduling, shard/merge,
hashing) is pinned at once.  A sweep deck's record also pins its
default ``deck.run(seed=0)`` (one chunk, no event hash): the currents
as ``serial_currents`` and the solver's event count as
``serial_events``.

Regenerate after an intentional physics/RNG change with::

    PYTHONPATH=src python -m pytest tests/test_golden_decks.py --update-golden

and commit the diff alongside the change that explains it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.netlist import parse_semsim

REPO = Path(__file__).resolve().parent.parent
DECK_DIR = REPO / "examples" / "decks"
GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

DECKS = sorted(DECK_DIR.glob("*.deck"))
assert DECKS, f"no example decks found under {DECK_DIR}"


def _run_deck(path: Path, jobs: int = 1):
    deck = parse_semsim(path.read_text())
    # sweep decks exercise the chunked shard path; an operating-point
    # deck (no sweep) runs as a single measurement
    chunks = 2 if deck.sweep is not None else 1
    return deck.run(seed=0, jobs=jobs, chunks=chunks, dsan=True)


def _record(path: Path, curve) -> dict:
    return {
        "deck": path.stem,
        "label": curve.label,
        "voltages": [float(v).hex() for v in curve.voltages],
        "currents": [float(c).hex() for c in curve.currents],
        "event_hash": curve.event_hash,
    }


def _golden_file(path: Path) -> Path:
    return GOLDEN_DIR / f"{path.stem}.json"


#: golden fields written by :func:`test_sweep_deck_default_run_matches_golden`
SERIAL_FIELDS = ("serial_currents", "serial_events")

SWEEP_DECKS = [
    p for p in DECKS if parse_semsim(p.read_text()).sweep is not None
]


def _write_golden(path: Path, fields: dict) -> None:
    """Rewrite ``fields`` of a golden record, keeping its other fields."""
    golden_file = _golden_file(path)
    record = (
        json.loads(golden_file.read_text()) if golden_file.exists() else {}
    )
    record.update(fields)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    golden_file.write_text(json.dumps(record, indent=2) + "\n")


def _golden_run_record(path: Path) -> dict:
    """The committed record without the default-run fields."""
    golden = json.loads(_golden_file(path).read_text())
    return {k: v for k, v in golden.items() if k not in SERIAL_FIELDS}


@pytest.mark.parametrize("deck_path", DECKS, ids=lambda p: p.stem)
def test_deck_matches_golden_serial(deck_path, update_golden):
    curve = _run_deck(deck_path)
    assert curve.event_hash is not None
    record = _record(deck_path, curve)
    golden_file = _golden_file(deck_path)
    if update_golden:
        _write_golden(deck_path, record)
        return
    assert golden_file.exists(), (
        f"missing golden record {golden_file.name}; generate it with "
        "pytest tests/test_golden_decks.py --update-golden"
    )
    assert record == _golden_run_record(deck_path)


@pytest.mark.parametrize("deck_path", DECKS, ids=lambda p: p.stem)
def test_deck_matches_golden_parallel(deck_path, update_golden):
    """jobs=2 must reproduce the committed serial record bit for bit."""
    if update_golden:
        pytest.skip("golden records are rewritten by the serial test")
    curve = _run_deck(deck_path, jobs=2)
    assert _record(deck_path, curve) == _golden_run_record(deck_path)


@pytest.mark.parametrize("deck_path", SWEEP_DECKS, ids=lambda p: p.stem)
def test_sweep_deck_default_run_matches_golden(deck_path, update_golden):
    """The default ``deck.run(seed=0)`` reproduces its pinned currents
    and event count bit for bit."""
    curve = parse_semsim(deck_path.read_text()).run(seed=0)
    assert curve.stats is not None
    fields = {
        "serial_currents": [float(c).hex() for c in curve.currents],
        "serial_events": int(curve.stats.events),
    }
    if update_golden:
        _write_golden(deck_path, fields)
        return
    golden = json.loads(_golden_file(deck_path).read_text())
    assert fields == {name: golden.get(name) for name in SERIAL_FIELDS}


def test_golden_corpus_is_complete_and_has_no_strays():
    expected = {f"{p.stem}.json" for p in DECKS}
    present = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert expected - present == set(), (
        f"decks without golden records: {sorted(expected - present)}"
    )
    assert present - expected == set(), (
        f"stray golden records without decks: {sorted(present - expected)}"
    )
