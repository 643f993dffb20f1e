"""IQ sample file format.

Layout: 8-byte magic "OFMTIQ1\\0", a little-endian u64 sample count, then
interleaved little-endian float32 (real, imag) pairs.  The sample rate
travels in a sidecar text file of the one line `sample_rate_hz = <Hz>`
because the fixed 16-byte header has no room for it and existing
captures should stay readable if the metadata is lost; any other
sidecar is refused.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .numerics import ComplexSignal

__all__ = ["MAGIC", "iq_read", "iq_write", "sidecar_path"]

MAGIC = b"OFMTIQ1\x00"
_HEADER = struct.Struct("<8sQ")


def sidecar_path(path: str | os.PathLike) -> str:
    return os.fspath(path) + ".meta"


def iq_write(signal, path: str | os.PathLike, sample_rate_hz: float | None = None) -> None:
    """Write samples plus a sidecar holding the sample rate.

    Accepts a ComplexSignal or a plain array; an explicit sample_rate_hz
    wins over the signal's own tag, and with neither no sidecar is left
    next to the file.  float32 quantization is part of the format, so a
    write/read round trip is exact only for values already representable
    in single precision.
    """
    samples = np.asarray(getattr(signal, "samples", signal), dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError("signal must be one dimensional")
    if sample_rate_hz is None:
        sample_rate_hz = getattr(signal, "sample_rate_hz", None)
    interleaved = np.empty(2 * samples.size, dtype="<f4")
    interleaved[0::2] = samples.real
    interleaved[1::2] = samples.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, samples.size))
        fh.write(interleaved.tobytes())
    if sample_rate_hz is None:
        # a sidecar from an earlier write would lend this file its rate
        with contextlib.suppress(FileNotFoundError):
            os.remove(sidecar_path(path))
    else:
        with open(sidecar_path(path), "w", encoding="utf-8") as fh:
            fh.write(f"sample_rate_hz = {float(sample_rate_hz)!r}\n")


def _read_sidecar_rate(path: str | os.PathLike) -> float:
    meta = sidecar_path(path)
    if not os.path.exists(meta):
        return 1.0
    with open(meta, encoding="utf-8") as fh:
        key, _, value = fh.read().partition("=")
    with contextlib.suppress(ValueError):
        if key.strip() == "sample_rate_hz":
            return float(value)
    raise ValueError(f"{meta}: expected the one line 'sample_rate_hz = <Hz>'")


def iq_read(path: str | os.PathLike) -> ComplexSignal:
    """Read an IQ file; sample rate comes from the sidecar (1.0 if absent)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        payload = fh.read()
    expected = 8 * count
    if len(payload) != expected:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, header promised {expected}")
    flat = np.frombuffer(payload, dtype="<f4")
    samples = flat[0::2].astype(np.float64) + 1j * flat[1::2].astype(np.float64)
    return ComplexSignal(samples, _read_sidecar_rate(path))
