"""The content-addressed campaign result store.

One store directory holds many *workloads*; one workload directory —
``<root>/<workload fingerprint>/`` — holds the cells of every campaign
or cached sweep that shares that fingerprint:

``campaign.json``
    Human-readable identity of the workload (kind, label, parameter
    axes, code version of the first writer).  Advisory only — cache
    correctness never depends on it.
``cells/<cell key>.json``
    One computed cell: the pickled result (base64 + blake2b checksum,
    see :func:`encode_result`), its dsan event-stream hash, the code
    version that computed it and a UTC timestamp.  Each
    cell is written atomically (temp file + ``os.replace``), so a crash
    mid-write never leaves a torn cell.

Two key schemes share this layout:

* **campaign cells** are keyed by *content*: the parameter point, the
  replica index and the spawned seed's identity — so the same physical
  cell hits the cache from any grid that contains it;
* **sweep shards** (``--campaign`` on ``repro run`` / ``sweep_iv`` /
  ``sweep_map`` / ``ensemble_iv``) are keyed by the worker's qualified
  name plus the shard payload's pickle digest — byte-identical work is
  never recomputed.

Corruption is *never* fatal: a cell that fails to parse, checksum or
unpickle is dropped (``campaign.corrupt_cells`` counter) and treated as
a miss, so the batch recomputes it and overwrites the bad file.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import CampaignError
from repro.monitor.ledger import (
    _detect_code_version,
    fingerprint_workload,
    repro_cache_dir,
)
from repro.telemetry import registry as _telemetry
from repro.telemetry.clock import utc_time

#: Cell record schema version (bump on incompatible layout changes).
CELL_SCHEMA = 1

_CELLS_DIR = "cells"
_META_NAME = "campaign.json"


def default_campaign_root() -> Path:
    """``$REPRO_CAMPAIGN_DIR`` when set, else ``<cache dir>/campaigns``
    (same no-``$HOME`` fallback as the run ledger)."""
    override = os.environ.get("REPRO_CAMPAIGN_DIR")
    if override:
        return Path(override)
    return repro_cache_dir() / "campaigns"


def _hash_text(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def _digest(raw: bytes) -> str:
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def encode_result(result: Any) -> tuple[str, str]:
    """Pickle ``result``; return ``(base64 payload, checksum)``."""
    try:
        raw = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
        raise CampaignError(
            f"shard result of type {type(result).__name__} cannot be "
            f"stored: {exc}"
        ) from exc
    return base64.b64encode(raw).decode("ascii"), _digest(raw)


def decode_result(payload: str, checksum: str) -> Any:
    """Inverse of :func:`encode_result`; raises :class:`CampaignError`
    when the payload is not base64, fails its checksum or cannot be
    unpickled."""
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise CampaignError("cell payload is not valid base64") from exc
    if _digest(raw) != checksum:
        raise CampaignError("cell is corrupt: payload checksum mismatch")
    try:
        return pickle.loads(raw)
    except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
        raise CampaignError(f"cell payload cannot be unpickled: {exc}") from exc


def payload_cell_key(worker: Callable[..., Any], payload: Any) -> str:
    """Content address of one shard: worker identity + payload pickle.

    The payload embeds the circuit, the full config (including the
    shard's spawned seed) and the shard's slice of the sweep, so two
    shards share a key exactly when they describe byte-identical work.
    """
    try:
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
        raise CampaignError(
            f"shard payload of type {type(payload).__name__} cannot be "
            f"content-addressed for caching: {exc}"
        ) from exc
    ident = f"{worker.__module__}.{worker.__qualname__}"
    return _hash_text(f"shard|{ident}|{_digest(raw)}|{CELL_SCHEMA}")


def _count(name: str, n: int = 1) -> None:
    registry = _telemetry.ACTIVE
    if registry is not None and n:
        registry.counter(name).add(n)


@dataclasses.dataclass
class GcStats:
    """What one :meth:`CampaignStore.gc` pass did."""

    scanned: int = 0
    removed: int = 0
    kept: int = 0
    workloads_removed: int = 0

    def format(self) -> str:
        return (
            f"scanned {self.scanned} cell(s): kept {self.kept}, "
            f"removed {self.removed} "
            f"({self.workloads_removed} empty workload dir(s) pruned)"
        )


class WorkloadStore:
    """One workload's cell directory inside a :class:`CampaignStore`."""

    def __init__(self, root: Path, fingerprint: str):
        self.fingerprint = fingerprint
        self.directory = root / fingerprint
        self._cells = self.directory / _CELLS_DIR

    # ------------------------------------------------------------------
    def _ensure(self) -> None:
        try:
            self._cells.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CampaignError(
                f"campaign store directory {self._cells} is not "
                f"writable: {exc}"
            ) from exc

    def describe(self, meta: dict[str, Any]) -> None:
        """Record the workload's human-readable identity card once."""
        path = self.directory / _META_NAME
        if path.exists():
            return
        self._ensure()
        payload = dict(meta)
        payload.setdefault("schema", CELL_SCHEMA)
        payload.setdefault("fingerprint", self.fingerprint)
        payload.setdefault("created", utc_time())
        self._write_atomic(path, json.dumps(payload, sort_keys=True))

    def meta(self) -> dict[str, Any]:
        """The identity card, or ``{}`` when absent/unreadable."""
        try:
            data = json.loads(
                (self.directory / _META_NAME).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    # ------------------------------------------------------------------
    def cell_path(self, key: str) -> Path:
        return self._cells / f"{key}.json"

    def keys(self) -> list[str]:
        """Keys of every stored cell, sorted."""
        if not self._cells.is_dir():
            return []
        return sorted(p.stem for p in self._cells.glob("*.json"))

    def load(self, key: str) -> tuple[Any, dict[str, Any]] | None:
        """Decode one cell: ``(result, record meta)``, or ``None``.

        A missing cell is a plain miss.  A *corrupt* cell (unparseable
        JSON, wrong schema, checksum or unpickling failure) is dropped
        from disk, counted as ``campaign.corrupt_cells``, and reported
        as a miss so the caller recomputes it — corruption never aborts
        a campaign.
        """
        path = self.cell_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            return self._drop_corrupt(path)
        try:
            record = json.loads(text)
        except ValueError:
            return self._drop_corrupt(path)
        if not isinstance(record, dict) or record.get("schema") != CELL_SCHEMA:
            return self._drop_corrupt(path)
        try:
            result = decode_result(
                str(record["payload"]), str(record["checksum"])
            )
        except (KeyError, CampaignError):
            return self._drop_corrupt(path)
        return result, record

    def _drop_corrupt(self, path: Path) -> tuple[Any, dict[str, Any]] | None:
        _count("campaign.corrupt_cells")
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def save(
        self,
        key: str,
        result: Any,
        *,
        meta: dict[str, Any] | None = None,
        code_version: str = "",
    ) -> None:
        """Persist one computed cell atomically."""
        self._ensure()
        payload, checksum = encode_result(result)
        record: dict[str, Any] = {
            "schema": CELL_SCHEMA,
            "key": key,
            "payload": payload,
            "checksum": checksum,
            "event_hash": getattr(result, "event_hash", None),
            "code_version": code_version,
            "ts": utc_time(),
        }
        if meta:
            record.update(meta)
        self._write_atomic(
            self.cell_path(key), json.dumps(record, sort_keys=True)
        )

    def _write_atomic(self, path: Path, text: str) -> None:
        """Write ``text`` to ``path`` through a sibling ``.tmp`` file and
        ``os.replace``, so readers never see a torn cell."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            raise CampaignError(f"cannot write {path}: {exc}") from exc


class CampaignStore:
    """The persistent, content-addressed results database.

    A thin root-directory handle: :meth:`workload` scopes it to one
    workload fingerprint, :meth:`begin` implements the
    :class:`repro.parallel.pool.ShardCache` protocol so
    ``execute_shards`` can consult it directly, and :meth:`gc` applies
    retention policy.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_campaign_root()
        # fail before any simulation when the store could never be
        # written: the root, or its nearest existing ancestor, is a file
        existing = next(
            (p for p in (self.root, *self.root.parents) if p.exists()), None
        )
        if existing is not None and not existing.is_dir():
            raise CampaignError(
                f"campaign store {self.root} is not usable: {existing} "
                "is not a directory"
            )

    def workload(self, fingerprint: str) -> WorkloadStore:
        return WorkloadStore(self.root, fingerprint)

    def workloads(self) -> Iterator[WorkloadStore]:
        """Every workload directory under the root, sorted."""
        if not self.root.is_dir():
            return
        for child in sorted(self.root.iterdir()):
            if child.is_dir():
                yield WorkloadStore(self.root, child.name)

    # ------------------------------------------------------------------
    # the execute_shards cache protocol (sweep shards)
    # ------------------------------------------------------------------

    def bind(
        self, fingerprint: str, *, code_version: str = "", label: str = ""
    ) -> "BoundWorkloadCache":
        """A :class:`repro.parallel.pool.ShardCache` over one workload,
        keying cells by shard-payload content."""
        return BoundWorkloadCache(
            self.workload(fingerprint), code_version=code_version, label=label
        )

    # ------------------------------------------------------------------
    def gc(
        self,
        *,
        keep_code_version: str | None = None,
        older_than: float | None = None,
        fingerprint: str | None = None,
    ) -> GcStats:
        """Apply retention: drop cells from other code versions and/or
        cells older than ``older_than`` seconds; prune emptied
        workload directories.  With no criteria this is a no-op scan.
        """
        stats = GcStats()
        now = utc_time()
        for workload in self.workloads():
            if fingerprint is not None and workload.fingerprint != fingerprint:
                continue
            for key in workload.keys():
                stats.scanned += 1
                path = workload.cell_path(key)
                try:
                    record = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    record = None  # unreadable: always collected
                remove = record is None
                if record is not None and keep_code_version is not None:
                    remove = record.get("code_version") != keep_code_version
                if record is not None and not remove and older_than is not None:
                    try:
                        age = now - float(record.get("ts", 0.0))
                    except (TypeError, ValueError):
                        age = older_than + 1.0
                    remove = age > older_than
                if remove:
                    try:
                        path.unlink()
                        stats.removed += 1
                    except OSError:
                        stats.kept += 1
                else:
                    stats.kept += 1
            if not workload.keys():
                # nothing left: prune the whole workload directory
                try:
                    meta_path = workload.directory / _META_NAME
                    if meta_path.exists():
                        meta_path.unlink()
                    if (workload.directory / _CELLS_DIR).is_dir():
                        (workload.directory / _CELLS_DIR).rmdir()
                    workload.directory.rmdir()
                    stats.workloads_removed += 1
                except OSError:
                    pass
        return stats


def bind_sweep_cache(
    campaign: "CampaignStore | str | Path",
    circuit: Any,
    config: Any,
    *,
    kind: str,
    values: Any,
    jumps_per_point: int,
    label: str = "",
) -> "BoundWorkloadCache":
    """Bind a sweep entry point's ``campaign=`` argument to a shard
    cache: fingerprint the workload (the solver rides in ``extra``
    because :func:`fingerprint_workload` excludes it by default) and
    scope the store to that workload directory."""
    store = (
        campaign if isinstance(campaign, CampaignStore)
        else CampaignStore(campaign)
    )
    fingerprint = fingerprint_workload(
        circuit, config, kind=kind,
        values=values, jumps_per_point=jumps_per_point,
        extra=(f"solver={config.solver}",),
    )
    cache = store.bind(
        fingerprint, code_version=_detect_code_version(), label=label
    )
    cache.workload.describe(
        {"kind": kind, "label": label, "jumps_per_point": jumps_per_point}
    )
    return cache


class BoundWorkloadCache:
    """Adapts one :class:`WorkloadStore` to the ``execute_shards``
    cache protocol, keying each shard by its payload content."""

    def __init__(
        self, workload: WorkloadStore, *, code_version: str = "",
        label: str = "",
    ):
        self.workload = workload
        self.code_version = code_version
        self.label = label

    def begin(
        self, worker: Callable[..., Any], payloads: list[Any]
    ) -> "CacheSession":
        keys = [payload_cell_key(worker, payload) for payload in payloads]
        meta = [{"shard": index} for index in range(len(payloads))]
        return CacheSession(
            self.workload, keys, meta, code_version=self.code_version
        )


class CacheSession:
    """One batch's binding to a workload store: precomputed cell keys,
    memoized hits, per-shard persistence.  Implements the
    ``execute_shards`` :class:`~repro.parallel.pool.ShardCacheSession`
    protocol; the campaign layer also drives it directly."""

    def __init__(
        self,
        workload: WorkloadStore,
        keys: list[str],
        meta: list[dict[str, Any]] | None = None,
        *,
        code_version: str = "",
    ):
        self.workload = workload
        self.keys = list(keys)
        self.meta = list(meta) if meta is not None else [{} for _ in keys]
        self.code_version = code_version
        self._hits: dict[int, Any] | None = None
        self.stored = 0

    def hits(self) -> dict[int, Any]:
        if self._hits is None:
            self._hits = {}
            for index, key in enumerate(self.keys):
                cell = self.workload.load(key)
                if cell is not None:
                    self._hits[index] = cell[0]
        return self._hits

    def record(self, shard: int, result: Any) -> None:
        self.workload.save(
            self.keys[shard],
            result,
            meta=self.meta[shard],
            code_version=self.code_version,
        )
        self.stored += 1
