"""Reproducer corpus: pinned fuzz cases with bit-exact expectations.

A corpus entry is a directory holding the case's canonical artifact
(``case.deck`` for device families, ``case.net`` for logic) next to a
``record.json`` with everything needed to re-run the differential
check bit-for-bit: the draw coordinates and parameters, the
replica/tolerance/bug settings the verdict was produced under, every
oracle curve with currents in ``float.hex`` (like the existing golden
corpus), and the folded MC event-stream hash.

:func:`replay` re-runs the case from the artifact and reports any
divergence — a replayed entry must reproduce the recorded verdict
kind, every oracle current to the bit, and the event hash.  Promoted
entries live under ``tests/data/golden/fuzz/`` where the golden-corpus
test replays them on every CI run, which is what turns a one-time fuzz
finding into a permanent regression gate.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path
from typing import Iterator

from repro.errors import GeneratorError
from repro.gen.circuits import GeneratedCase
from repro.gen.differential import CaseVerdict, Tolerance, run_case

__all__ = [
    "ReplayDivergence",
    "iter_corpus",
    "load_case",
    "promote",
    "replay",
    "write_case",
]

_RECORD = "record.json"


@dataclasses.dataclass(frozen=True)
class ReplayDivergence:
    """One way a replayed entry failed to reproduce its record."""

    entry: str
    what: str


def _artifact_name(family: str) -> str:
    return "case.net" if family == "logic" else "case.deck"


def write_case(
    directory: Path | str,
    case: GeneratedCase,
    verdict: CaseVerdict,
    *,
    replicas: int,
    tolerance: Tolerance,
    bug: str | None = None,
    shrink_steps: tuple[str, ...] = (),
) -> Path:
    """Write one corpus entry; returns the entry directory."""
    entry = Path(directory) / case.name
    entry.mkdir(parents=True, exist_ok=True)
    artifact = _artifact_name(case.family)
    (entry / artifact).write_text(case.deck_text)
    record = {
        "name": case.name,
        "family": case.family,
        "root_seed": case.root_seed,
        "index": case.index,
        "artifact": artifact,
        "params": dict(case.params),
        "derived": dict(case.derived),
        "replicas": replicas,
        "tolerance": dataclasses.asdict(tolerance),
        "bug": bug,
        "verdict": verdict.kind,
        "lint_findings": list(verdict.lint_findings),
        "shrink_steps": list(shrink_steps),
        "voltages": [float(v).hex() for v in verdict.voltages],
        "oracles": {
            oracle.name: {
                "currents": [float(c).hex() for c in oracle.currents],
                "sems": [float(s).hex() for s in oracle.sems],
            }
            for oracle in verdict.oracles
        },
        "event_hash": verdict.event_hash,
    }
    (entry / _RECORD).write_text(json.dumps(record, indent=2) + "\n")
    return entry


def load_case(entry: Path | str) -> tuple[GeneratedCase, dict]:
    """Reconstruct the generated case and its record from an entry."""
    entry = Path(entry)
    record_path = entry / _RECORD
    if not record_path.is_file():
        raise GeneratorError(f"{entry}: not a corpus entry (no {_RECORD})")
    record = json.loads(record_path.read_text())
    artifact = entry / record["artifact"]
    if not artifact.is_file():
        raise GeneratorError(f"{entry}: missing artifact {record['artifact']}")
    case = GeneratedCase(
        name=record["name"],
        family=record["family"],
        index=int(record["index"]),
        root_seed=int(record["root_seed"]),
        params=dict(record["params"]),
        derived=dict(record["derived"]),
        deck_text=artifact.read_text(),
    )
    return case, record


def iter_corpus(directory: Path | str) -> Iterator[Path]:
    """Entry directories under ``directory``, sorted by name."""
    root = Path(directory)
    if not root.is_dir():
        return
    for child in sorted(root.iterdir()):
        if child.is_dir() and (child / _RECORD).is_file():
            yield child


def replay(entry: Path | str) -> tuple[CaseVerdict, list[ReplayDivergence]]:
    """Re-run a corpus entry and diff it against its pinned record.

    Returns the fresh verdict plus every divergence found; an empty
    divergence list means the entry reproduced bit-for-bit.
    """
    entry = Path(entry)
    case, record = load_case(entry)
    verdict = run_case(
        case,
        replicas=int(record["replicas"]),
        tolerance=Tolerance(**record["tolerance"]),
        bug=record["bug"],
    )
    divergences: list[ReplayDivergence] = []

    def diverged(what: str) -> None:
        divergences.append(ReplayDivergence(entry.name, what))

    if verdict.kind != record["verdict"]:
        diverged(f"verdict {verdict.kind!r} != pinned {record['verdict']!r}")
    pinned_voltages = [float.fromhex(v) for v in record["voltages"]]
    # bit-exact on purpose: replay promises bitwise reproduction
    if list(verdict.voltages) != pinned_voltages:
        diverged("sweep voltages changed")
    pinned_oracles = record["oracles"]
    fresh = {o.name: o for o in verdict.oracles}
    if sorted(fresh) != sorted(pinned_oracles):
        diverged(
            f"oracle set {sorted(fresh)} != pinned {sorted(pinned_oracles)}"
        )
    for name in sorted(set(fresh) & set(pinned_oracles)):
        pinned = [float.fromhex(c) for c in pinned_oracles[name]["currents"]]
        if list(fresh[name].currents) != pinned:
            diverged(f"oracle {name!r} currents changed")
    if verdict.event_hash != record["event_hash"]:
        diverged(
            f"event hash {verdict.event_hash!r} != "
            f"pinned {record['event_hash']!r}"
        )
    return verdict, divergences


def promote(
    source: Path | str,
    destination: Path | str,
    names: tuple[str, ...] | None = None,
) -> list[Path]:
    """Copy corpus entries into the pinned (golden) corpus.

    ``names=None`` promotes every entry; otherwise only the named
    ones.  Promotion overwrites an existing pinned entry of the same
    name — refreshing a pin is an explicit, reviewable act.
    """
    wanted = set(names) if names is not None else None
    promoted: list[Path] = []
    for entry in iter_corpus(source):
        if wanted is not None and entry.name not in wanted:
            continue
        target = Path(destination) / entry.name
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(entry, target)
        promoted.append(target)
    missing = (wanted or set()) - {p.name for p in promoted}
    if missing:
        raise GeneratorError(
            f"corpus promote: no such entr{'y' if len(missing) == 1 else 'ies'} "
            f"{sorted(missing)} under {source}"
        )
    return promoted
