"""IQ sample file format.

Layout: 8-byte magic "OFMTIQ1\\0", a little-endian u64 sample count, then
the samples as little-endian complex64: interleaved float32 (real, imag)
pairs.  The sample rate travels in a sidecar text file of the one line
`sample_rate_hz = <Hz>` because the fixed 16-byte header has no room for
it and existing captures should stay readable if the metadata is lost;
any other sidecar, or a rate that is not positive and finite, is
refused.  Samples that are float32 values, signed zeros included, read
back exactly; the writer refuses samples that are not finite in float32.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .numerics import ComplexSignal

__all__ = ["MAGIC", "iq_read", "iq_write", "sidecar_path"]

MAGIC = b"OFMTIQ1\x00"
_HEADER = struct.Struct("<8sQ")
_SAMPLE = np.dtype("<c8")


def sidecar_path(path: str | os.PathLike) -> str:
    return os.fspath(path) + ".meta"


def iq_write(samples, path: str | os.PathLike, sample_rate_hz: float) -> None:
    """Write a one-dimensional sample array plus a sidecar holding its rate.

    The samples are rounded to complex64, so a write/read round trip is
    exact for values already representable in single precision, signed
    zeros included.  A rate that is not positive and finite, or a sample
    that is NaN or infinite in float32 (1e39 overflows it), raises
    ValueError before either file is written.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError("samples must be one dimensional")
    rate = float(sample_rate_hz)
    if not 0.0 < rate < math.inf:
        raise ValueError(f"sample_rate_hz must be positive and finite, got {rate!r}")
    with np.errstate(over="ignore"):
        payload = samples.astype(_SAMPLE)
    if not np.all(np.isfinite(payload)):
        raise ValueError("samples must be finite in float32")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, samples.size))
        fh.write(payload.tobytes())
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(f"sample_rate_hz = {rate!r}\n")


def _read_sidecar_rate(path: str | os.PathLike) -> float:
    meta = sidecar_path(path)
    if not os.path.exists(meta):
        return 1.0
    # UnicodeDecodeError is a ValueError: a sidecar that is not UTF-8 is refused
    with contextlib.suppress(ValueError), open(meta, encoding="utf-8") as fh:
        key, _, value = fh.read().partition("=")
        rate = float(value)
        if key.strip() == "sample_rate_hz" and 0.0 < rate < math.inf:
            return rate
    raise ValueError(f"{meta}: expected the one line 'sample_rate_hz = <Hz>', Hz > 0 and finite")


def iq_read(path: str | os.PathLike) -> ComplexSignal:
    """Read an IQ file; sample rate comes from the sidecar (1.0 if absent)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        # sized before anything is allocated, so a corrupt count costs nothing
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        expected = _SAMPLE.itemsize * count
        if size != expected:
            raise ValueError(f"{path}: payload holds {size} bytes, header promised {expected}")
        samples = np.fromfile(fh, dtype=_SAMPLE, count=count)
    return ComplexSignal(samples.astype(np.complex128), _read_sidecar_rate(path))
