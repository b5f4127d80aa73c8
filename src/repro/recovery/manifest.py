"""Versioned checkpoint manifest: fingerprints, records, serialization.

A manifest is one JSON document describing a sharded run in flight:

* a **run fingerprint** — blake2b over the worker's identity and the
  pickled shard payloads (which embed the deck/config and every
  spawned ``SeedSequence``), so a checkpoint can only ever be resumed
  by the byte-identical run that wrote it;
* one **record per completed shard** — status, the pickled result
  (base64), a checksum of the raw pickle, the shard's dsan
  event-stream hash when hashing was on, and a human-readable seed
  description for post-mortems.

Payload pickles are deterministic across processes and
``PYTHONHASHSEED`` values for the dataclass/ndarray payloads the sweep
layer produces, which is what makes the pickle-based fingerprint a
sound cross-process identity.  Any mismatch — version, fingerprint,
shard count, checksum — is a :class:`RecoveryError`, never a silent
partial reuse.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import pickle
import platform
from typing import Any, Callable

import numpy as np

from repro.errors import RecoveryError
from repro.parallel.seeds import describe_seed as _describe_seed

MANIFEST_VERSION = 1

#: Environment facts recorded in every manifest's ``meta``.  The run
#: fingerprint hashes *pickle bytes*, which are only comparable under
#: the same interpreter and numpy — recording both lets a resume
#: failure say "version skew" instead of a bare mismatch.
ENVIRONMENT_KEYS = ("python", "numpy")


def environment_meta() -> dict[str, str]:
    """The interpreter/numpy versions a manifest is written under."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def describe_version_skew(
    stored: dict[str, Any], current: dict[str, Any] | None = None
) -> str:
    """Human-readable environment drift between a stored manifest's
    ``meta`` and the current process, e.g. ``"python 3.10.2 -> 3.12.1"``.

    Returns an empty string when every recorded version matches (or the
    manifest predates version recording), so callers can distinguish
    *payload* changes from *environment* changes.
    """
    env = current if current is not None else environment_meta()
    drifted = []
    for key in ENVIRONMENT_KEYS:
        recorded = stored.get(key)
        if recorded is not None and str(recorded) != str(env.get(key)):
            drifted.append(f"{key} {recorded} -> {env.get(key)}")
    return ", ".join(drifted)

_DIGEST_SIZE = 16

_STATUS_DONE = "done"


def _digest(raw: bytes) -> str:
    return hashlib.blake2b(raw, digest_size=_DIGEST_SIZE).hexdigest()


def fingerprint_run(worker: Callable[..., Any], payloads: list[Any]) -> str:
    """Identity of a sharded run: worker name + pickled payloads."""
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(f"{worker.__module__}.{worker.__qualname__}".encode())
    h.update(f":{len(payloads)}:".encode())
    for payload in payloads:
        try:
            raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
            raise RecoveryError(
                f"cannot fingerprint shard payload for checkpointing: {exc}"
            ) from exc
        h.update(_digest(raw).encode("ascii"))
    return h.hexdigest()


def payload_seed(payload: Any) -> str | None:
    """Human-readable seed of a shard payload, for the manifest."""
    config = getattr(payload, "config", None)
    seed = getattr(config, "seed", None)
    if seed is None:
        return None
    return _describe_seed(seed)


def encode_result(result: Any) -> tuple[str, str]:
    """Pickle ``result``; return ``(base64 payload, checksum)``."""
    try:
        raw = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
        raise RecoveryError(
            f"shard result of type {type(result).__name__} cannot be "
            f"checkpointed: {exc}"
        ) from exc
    return base64.b64encode(raw).decode("ascii"), _digest(raw)


def decode_result(payload: str, checksum: str, shard: int) -> Any:
    """Inverse of :func:`encode_result`; integrity failures are fatal."""
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise RecoveryError(
            f"checkpoint record #{shard} payload is not valid base64", shard=shard
        ) from exc
    if _digest(raw) != checksum:
        raise RecoveryError(
            f"checkpoint record #{shard} is corrupt: payload checksum mismatch",
            shard=shard,
        )
    try:
        return pickle.loads(raw)
    except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
        raise RecoveryError(
            f"checkpoint record #{shard} cannot be unpickled: {exc}", shard=shard
        ) from exc


@dataclasses.dataclass
class ShardRecord:
    """One completed shard as stored in the manifest."""

    status: str
    payload: str
    checksum: str
    event_hash: str | None = None
    seed: str | None = None

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any], shard: int) -> ShardRecord:
        try:
            record = cls(
                status=str(data["status"]),
                payload=str(data["payload"]),
                checksum=str(data["checksum"]),
                event_hash=data.get("event_hash"),
                seed=data.get("seed"),
            )
        except (KeyError, TypeError) as exc:
            raise RecoveryError(
                f"checkpoint record #{shard} is malformed: {exc}", shard=shard
            ) from exc
        if record.status != _STATUS_DONE:
            raise RecoveryError(
                f"checkpoint record #{shard} has unknown status "
                f"{record.status!r}",
                shard=shard,
            )
        return record


@dataclasses.dataclass
class Manifest:
    """The on-disk checkpoint document for one sharded run."""

    fingerprint: str
    shards: list[ShardRecord | None]
    meta: dict[str, Any] = dataclasses.field(default_factory=dict)
    version: int = MANIFEST_VERSION

    @classmethod
    def fresh(
        cls,
        worker: Callable[..., Any],
        payloads: list[Any],
        meta: dict[str, Any] | None = None,
    ) -> Manifest:
        info = dict(meta or {})
        info.setdefault("worker", f"{worker.__module__}.{worker.__qualname__}")
        for key, value in environment_meta().items():
            info.setdefault(key, value)
        seeds = [payload_seed(payload) for payload in payloads]
        if any(seed is not None for seed in seeds):
            info.setdefault("seeds", seeds)
        return cls(
            fingerprint=fingerprint_run(worker, payloads),
            shards=[None] * len(payloads),
            meta=info,
        )

    @property
    def completed(self) -> int:
        return sum(1 for record in self.shards if record is not None)

    def record(self, shard: int, result: Any, event_hash: str | None) -> None:
        payload, checksum = encode_result(result)
        self.shards[shard] = ShardRecord(
            status=_STATUS_DONE,
            payload=payload,
            checksum=checksum,
            event_hash=event_hash,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": self.version,
                "fingerprint": self.fingerprint,
                "meta": self.meta,
                "shards": [
                    record.to_json() if record is not None else None
                    for record in self.shards
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, source: str = "manifest") -> Manifest:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise RecoveryError(f"{source} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise RecoveryError(f"{source} is not a JSON object")
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise RecoveryError(
                f"{source} has manifest version {version!r}; this build "
                f"reads version {MANIFEST_VERSION}"
            )
        fingerprint = data.get("fingerprint")
        shards = data.get("shards")
        if not isinstance(fingerprint, str) or not isinstance(shards, list):
            raise RecoveryError(f"{source} is missing fingerprint/shards")
        records: list[ShardRecord | None] = []
        for shard, entry in enumerate(shards):
            if entry is None:
                records.append(None)
            elif isinstance(entry, dict):
                records.append(ShardRecord.from_json(entry, shard))
            else:
                raise RecoveryError(
                    f"checkpoint record #{shard} is malformed: expected an "
                    f"object or null, got {type(entry).__name__}",
                    shard=shard,
                )
        meta = data.get("meta")
        return cls(
            fingerprint=fingerprint,
            shards=records,
            meta=meta if isinstance(meta, dict) else {},
        )
