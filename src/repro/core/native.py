"""Loader of the adaptive solver's event kernel (``fused_step.c``).

The library's entry points take one :class:`Kernel` struct.
``repro_run`` realises events of Algorithm 1 until a stop condition
(:data:`STEP_BUDGET` and the other ``STEP_*`` codes) and returns how
many: it commits them to the solver's occupation and flux arrays,
advances the Kahan clocks held in the struct, counts the junctions it
recomputed and writes the event-stream digest records into a byte
buffer of :data:`RECORD_BYTES`.  One event (``AdaptiveSolver.step``) is
a run of one.  It runs normal-state and superconducting models:
orthodox rates, or each junction's quasi-particle table lookup, and,
with Cooper pairs on, the 2e channel drawn after the pair rates.
``repro_prepare`` and ``repro_finish`` compute an orthodox flagged
batch wider than :data:`SCALAR_BATCH` around one ``numpy.expm1`` call,
whose results may differ in the last bit from libm's.  ``repro_hex``
writes ``float.hex`` of an array, as the digest records do;
``repro_sum`` is ``numpy.sum``'s pairwise summation and
``repro_qp_rates`` one junction's table lookup, which the tests hold
against numpy and ``QuasiparticleRateTable``.

The C file is compiled on first use with the system C compiler into the
repro cache directory (:func:`repro.monitor.ledger.repro_cache_dir`),
under a name keyed by the SHA-256 of the source, the compiler command
and the Python ABI tag, so each machine compiles it once.  The compiler
writes a temporary file that is then renamed into place, so processes
compiling at the same time on a cold cache each load a complete
library.  When no compiler is found, or compiling or loading fails,
:func:`load` reports why and :class:`~repro.core.adaptive.AdaptiveSolver`
runs its Python path, which realises the same events bit for bit.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Any

SOURCE = Path(__file__).with_name("fused_step.c")

#: No contraction into fused multiply-adds and no fast-math: every
#: operation must round as the Python path's does.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Why ``repro_run`` stopped (``Kernel.status``; the ``STEP_*`` enum of
#: the C file): the event budget, a frozen draw, a draw discarded at the
#: deadline, a wide batch or a full refresh due after the last event,
#: the stop time, a full record buffer.
(STEP_BUDGET, STEP_FROZEN, STEP_DEADLINE, STEP_RECOMPUTE, STEP_REFRESH,
 STEP_TIME, STEP_FULL) = range(7)

#: Bytes of the digest record buffer: ``repro_run`` stops when another
#: record might not fit (about 1,400 records of a small circuit).
RECORD_BYTES = 1 << 16

#: Largest orthodox flagged batch whose rates are computed with libm's
#: ``expm1`` (``_recompute_scalar``, or inside ``repro_run``).  Wider
#: batches, and every batch of a retarget's vectorised walk, use numpy's
#: ``expm1``, which may round differently.  The kernel reads this value
#: from its ``scalar_batch`` field, so both paths split at the same
#: width; superconducting batches of any width take the scalar route.
SCALAR_BATCH = 64

#: At and below this argument libm's and numpy's ``expm1`` both give
#: exactly -1.0.  The kernel evaluates a quasi-particle table's ohmic
#: extension with libm, so a model binds only when every extension
#: argument lies there.
EXPM1_MINUS_ONE = -38.0

_double_p = ctypes.POINTER(ctypes.c_double)
_int64_p = ctypes.POINTER(ctypes.c_int64)


class Kernel(ctypes.Structure):
    """The C ``Kernel`` struct, field for field: pointers into the
    solver's numpy buffers, scalar constants, the clocks and the last
    call's outputs."""

    _fields_ = [
        ("rng", ctypes.c_void_p),
        ("n_junctions", ctypes.c_int64),
        ("tree_size", ctypes.c_int64),
        ("a_isl", _int64_p),
        ("a_idx", _int64_p),
        ("b_isl", _int64_p),
        ("b_idx", _int64_p),
        ("nbr_start", _int64_p),
        ("nbr_list", _int64_p),
        ("charging", _double_p),
        ("resistance", _double_p),
        ("cinv", _double_p),
        ("cinv_offset", _int64_p),
        ("span_lo", _int64_p),
        ("span_hi", _int64_p),
        ("cinv_row", ctypes.c_int64),
        ("v", _double_p),
        ("vext", _double_p),
        ("dw_fw", _double_p),
        ("dw_bw", _double_p),
        ("seq_fw", _double_p),
        ("seq_bw", _double_p),
        ("b0", _double_p),
        ("limit", _double_p),
        ("tree", _double_p),
        ("occupation", _int64_p),
        ("flux", _int64_p),
        ("dv", _double_p),
        ("queue", _int64_p),
        ("queued", ctypes.POINTER(ctypes.c_uint8)),
        ("flagged", _int64_p),
        ("xbuf", _double_p),
        ("ebuf", _double_p),
        ("kt", ctypes.c_double),
        ("charge", ctypes.c_double),
        ("scale", ctypes.c_double),
        ("cap", ctypes.c_double),
        ("dq", ctypes.c_double),
        ("scalar_batch", ctypes.c_int64),
        ("qp_grid", ctypes.c_void_p),
        ("qp_rates", ctypes.c_void_p),
        ("qp_points", _int64_p),
        ("qp_params", _double_p),
        ("cooper", ctypes.c_int64),
        ("cp_charging", _double_p),
        ("ej2", _double_p),
        ("cp_scale", ctypes.c_double),
        ("cp_quarter", ctypes.c_double),
        ("pair", _double_p),
        ("cp_dw", _double_p),
        ("cp_rate", _double_p),
        ("cumulative", _double_p),
        ("junction", ctypes.c_int64),
        ("forward", ctypes.c_int64),
        ("n_electrons", ctypes.c_int64),
        ("n_flagged", ctypes.c_int64),
        ("dt", ctypes.c_double),
        ("dw", ctypes.c_double),
        ("time", ctypes.c_double),
        ("time_comp", ctypes.c_double),
        ("window", ctypes.c_double),
        ("window_comp", ctypes.c_double),
        ("since_refresh", ctypes.c_int64),
        ("refresh_interval", ctypes.c_int64),
        ("status", ctypes.c_int64),
        ("flagged_total", ctypes.c_int64),
        ("record_len", ctypes.c_int64),
        ("records", ctypes.POINTER(ctypes.c_uint8)),
        ("record_capacity", ctypes.c_int64),
    ]


@dataclasses.dataclass(frozen=True)
class Native:
    """Outcome of :func:`load`: the bound ``repro_run``,
    ``repro_finish``, ``repro_prepare``, ``repro_hex``, ``repro_sum`` and
    ``repro_qp_rates`` functions and the library path, or ``run=None``
    and the reason."""

    run: Any
    finish: Any
    path: Path | None
    reason: str = ""
    prepare: Any = None
    hex: Any = None
    sum: Any = None
    qp_rates: Any = None

    def describe(self) -> str:
        """One line: which adaptive step runs, and why or from where."""
        if self.run is None:
            return f"python ({self.reason})"
        return f"native ({self.path})"


def compiler() -> str | None:
    """The C compiler to build with: ``cc``, else ``gcc``."""
    return shutil.which("cc") or shutil.which("gcc")


def library_path(cache_dir: Path, command: tuple[str, ...]) -> Path:
    """Where the library built by ``command`` lives in ``cache_dir``."""
    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update("\0".join(command).encode())
    key.update(str(sysconfig.get_config_var("SOABI")).encode())
    return cache_dir / "native" / f"fused_step-{key.hexdigest()[:20]}.so"


def build() -> Path:
    """Compile ``fused_step.c`` unless the cache already holds it;
    returns the library path.  Raises ``OSError`` when there is no
    compiler and ``subprocess.CalledProcessError`` when it fails."""
    from repro.monitor.ledger import repro_cache_dir

    cc = compiler()
    if cc is None:
        raise FileNotFoundError("no C compiler (cc or gcc) on PATH")
    command = (cc, *FLAGS)
    path = library_path(repro_cache_dir(), command)
    if path.is_file():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [*command, str(SOURCE), "-o", tmp, "-lm"],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


@functools.cache
def load() -> Native:
    """Build (once per cache) and load the kernel; memoised per process."""
    try:
        path = build()
        # PyDLL keeps the GIL across the call: the kernel writes arrays
        # the interpreter owns
        library = ctypes.PyDLL(str(path))
        run = library.repro_run
        prepare, finish = library.repro_prepare, library.repro_finish
        hex_ = library.repro_hex
        sum_, qp_rates = library.repro_sum, library.repro_qp_rates
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None)
        reason = f"{type(exc).__name__}: {exc}"
        if detail:
            reason += f": {detail.decode(errors='replace').strip()}"
        return Native(None, None, None, reason)
    run.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int64,
        ctypes.c_double, ctypes.c_int64,
    ]
    run.restype = ctypes.c_int64
    prepare.argtypes = [ctypes.c_void_p]
    prepare.restype = ctypes.c_int64
    finish.argtypes = [ctypes.c_void_p]
    finish.restype = None
    hex_.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    hex_.restype = ctypes.c_int64
    sum_.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    sum_.restype = ctypes.c_double
    qp_rates.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p,
    ]
    qp_rates.restype = None
    return Native(
        run, finish, path, prepare=prepare, hex=hex_, sum=sum_, qp_rates=qp_rates,
    )
