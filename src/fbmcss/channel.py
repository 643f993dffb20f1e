"""Synthetic impairment chain: multipath, noise, interference, CFO.

The multipath generator draws taps on a uniform delay grid with
exponentially decaying mean power, complex Gaussian gains and, for LOS,
a dominant first tap.  A profile pairs a target duration holding 95% of
the channel energy with the decay constant that reaches it on average;
the paper presets use 80 ns NLOS, and the tests re-measure the mean.

A note on noise scale: `noise_psd` (N0) throughout is the noise power
spectral density at the detector's whitening reference plane, i.e. the
variance per sample after prototype matched filtering.  The matched
filter has an energy gain of L, so the raw stream carries per-sample
noise variance N0/L.  All SNR/threshold formulas (eta = theta^H
theta/(L*N0), lambda = 2*N*L*eta, beta = N/N0) are stated at that
reference plane and are only mutually consistent there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import ComplexSignal

__all__ = [
    "ChannelRealization",
    "DelaySpreadProfile",
    "InterferenceConfig",
    "generate_multipath",
    "effective_taps",
    "apply_channel",
    "noise_psd_from_eta",
    "add_interference",
    "apply_cfo",
    "assemble_stream",
]


@dataclass(frozen=True)
class ChannelRealization:
    """Discrete multipath taps: (delay seconds, complex gain) pairs."""

    delays_s: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays_s, dtype=np.float64)
        g = np.asarray(self.gains, dtype=np.complex128)
        object.__setattr__(self, "delays_s", d)
        object.__setattr__(self, "gains", g)
        if d.size == 0 or d.size != g.size:
            raise ValueError("delays and gains must be nonempty, equal length")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ValueError("delays must be finite and >= 0")
        if not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite")
        if float(np.sum(np.abs(g) ** 2)) <= 0.0:
            raise ValueError("total channel energy must be positive")


@dataclass(frozen=True)
class DelaySpreadProfile:
    los: bool
    target_95pct_duration_ns: float
    decay_constant_ns: float
    tap_spacing_ns: float = 2.0

    def __post_init__(self):
        for label in ("target_95pct_duration_ns", "decay_constant_ns", "tap_spacing_ns"):
            if not 0.0 < getattr(self, label) < math.inf:
                raise ValueError(f"{label} must be positive and finite")


@dataclass(frozen=True)
class InterferenceConfig:
    count: int
    bandwidth_hz: float
    psd_above_noise_db_range: tuple[float, float]
    band_edges_hz: tuple[float, float]

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if not math.isfinite(self.bandwidth_hz):
            raise ValueError("bandwidth_hz must be finite")
        if self.count > 0 and not self.bandwidth_hz > 0.0:
            raise ValueError("bandwidth must be positive")
        for label in ("psd_above_noise_db_range", "band_edges_hz"):
            lo, hi = getattr(self, label)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{label} must be finite")
            if lo > hi:
                raise ValueError(f"{label} must satisfy low <= high")
        lo_edge, hi_edge = self.band_edges_hz
        if self.count > 0 and self.bandwidth_hz > hi_edge - lo_edge:
            raise ValueError("interferer bandwidth exceeds the band edges")


_LOS_K = 2.0  # deterministic-to-diffuse power ratio of the first tap
_HORIZON_DECAYS = 6.0  # tap grid extends this many decay constants


def generate_multipath(profile: DelaySpreadProfile, seed: int) -> ChannelRealization:
    """Draw one channel realization; deterministic per seed.

    Taps sit on the uniform grid k * tap_spacing; mean powers decay as
    exp(-delay/decay_constant); gains are circular complex Gaussian.
    For LOS profiles the first tap additionally carries a deterministic
    component _LOS_K times the diffuse power, with a random phase.
    Gains are normalized to unit total energy (SNR is calibrated
    downstream from the effective taps, so scale here is cosmetic).
    """
    rng = np.random.default_rng(seed)
    spacing = profile.tap_spacing_ns
    count = max(1, int(math.floor(_HORIZON_DECAYS * profile.decay_constant_ns / spacing)) + 1)
    delays_ns = spacing * np.arange(count)
    powers = np.exp(-delays_ns / profile.decay_constant_ns)
    gains = np.sqrt(powers / 2.0) * (
        rng.standard_normal(count) + 1j * rng.standard_normal(count)
    )
    if profile.los:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        gains[0] += math.sqrt(_LOS_K * powers[0]) * np.exp(1j * phase)
    gains = gains / np.linalg.norm(gains)
    return ChannelRealization(delays_s=delays_ns * 1e-9, gains=gains)


def effective_taps(
    channel: ChannelRealization,
    rho: ComplexSignal,
    p: int,
    sample_interval_s: float,
) -> np.ndarray:
    """theta[l] = sum_i c_i * rho(l*T_s - tau_i), l = 0..p-1, as (p,) complex.

    rho is the composite-pulse autocorrelation with lag zero at its
    center sample.  Lags and delays snap to the nearest rho sample, the
    grid apply_channel puts each tap on, so theta describes the channel
    the stream actually passes through.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if not sample_interval_s > 0.0:
        raise ValueError("sample_interval_s must be positive")
    vals = rho.samples
    center = (len(vals) - 1) // 2
    fs = rho.sample_rate_hz
    lags = np.rint(np.arange(p) * sample_interval_s * fs).astype(np.int64)
    shifts = np.rint(channel.delays_s * fs).astype(np.int64)
    # rho index of each (l, tap) pair; lags outside rho's support are zero
    pos = center + lags[:, None] - shifts[None, :]
    inside = (pos >= 0) & (pos < len(vals))
    samples = np.where(inside, vals[np.clip(pos, 0, len(vals) - 1)], 0.0)
    return samples @ channel.gains


def apply_channel(signal: ComplexSignal, channel: ChannelRealization) -> ComplexSignal:
    """Superpose delayed scaled copies; delays snap to the nearest sample.

    One multiply-add per tap over the whole signal, so it is meant for
    short ones: the harness filters the spread pulse with it and builds
    the received preamble from that with waveform.generate_preamble.
    """
    shifts = np.rint(channel.delays_s * signal.sample_rate_hz).astype(np.int64)
    out = np.zeros(len(signal) + int(shifts.max()), dtype=np.complex128)
    for shift, gain in zip(shifts, channel.gains):
        out[shift : shift + len(signal)] += gain * signal.samples
    return ComplexSignal(out, signal.sample_rate_hz)


def noise_psd_from_eta(eta_db: float, theta: np.ndarray, num_subbands: int) -> float:
    """N0 such that theta^H theta / (L * N0) equals the requested eta."""
    return float(np.sum(np.abs(theta) ** 2)) / (num_subbands * 10.0 ** (eta_db / 10.0))


def _lowpass_taps(cutoff_norm: float, num_taps: int = 128) -> np.ndarray:
    """Windowed-sinc lowpass, unity passband gain, cutoff in cycles/sample."""
    n = np.arange(num_taps) - (num_taps - 1) / 2.0
    taps = 2.0 * cutoff_norm * np.sinc(2.0 * cutoff_norm * n) * np.hamming(num_taps)
    return taps / np.sum(taps)


def add_interference(
    signal: ComplexSignal, cfg: InterferenceConfig, noise_psd: float, seed: int
) -> ComplexSignal:
    """Add band-limited Gaussian interferers at random centers.

    Each interferer is white noise shaped by a 128-tap windowed-sinc of
    the configured bandwidth, mixed to a center drawn uniformly from the
    configured band, with in-band PSD a uniform-in-dB factor above
    `noise_psd`.  `noise_psd` here is the per-sample noise variance of
    the stream the interferer lands in (the periodogram floor).
    """
    if cfg.count == 0:
        return signal
    fs = signal.sample_rate_hz
    lo_edge, hi_edge = cfg.band_edges_hz
    if hi_edge - lo_edge > fs:
        raise ValueError("band edges exceed the sampled bandwidth")
    rng = np.random.default_rng(seed)
    taps = _lowpass_taps(cfg.bandwidth_hz / fs / 2.0)
    n = len(signal)
    t = np.arange(n)
    out = signal.samples.copy()
    lo_db, hi_db = cfg.psd_above_noise_db_range
    for _ in range(cfg.count):
        level_db = rng.uniform(lo_db, hi_db)
        center = rng.uniform(lo_edge + cfg.bandwidth_hz / 2.0, hi_edge - cfg.bandwidth_hz / 2.0)
        white = (rng.standard_normal(n + taps.size) + 1j * rng.standard_normal(n + taps.size)) / math.sqrt(2.0)
        shaped = np.convolve(white, taps, mode="valid")[:n]
        psd_target = noise_psd * 10.0 ** (level_db / 10.0)
        out += math.sqrt(psd_target) * shaped * np.exp(2j * np.pi * center / fs * t)
    return ComplexSignal(out, signal.sample_rate_hz)


def apply_cfo(signal: ComplexSignal, delta_f_hz: float) -> ComplexSignal:
    """Rotate by the carrier frequency offset: x[n] e^{j2pi df n / fs}."""
    if delta_f_hz == 0.0:
        return signal
    n = np.arange(len(signal))
    rot = np.exp(2j * np.pi * delta_f_hz / signal.sample_rate_hz * n)
    return ComplexSignal(signal.samples * rot, signal.sample_rate_hz)


def assemble_stream(
    preamble_rx: ComplexSignal,
    lead_samples: int,
    trail_samples: int,
    noise_psd: float,
    seed: int,
) -> ComplexSignal:
    """Embed the received preamble in a noisy stream, starting at lead_samples.

    Noise (per-sample variance `noise_psd`, stream plane) covers the
    whole stream: lead, preamble section, and trail.  A zero-length
    preamble gives a noise-only stream at its sample rate.
    """
    if lead_samples < 0 or trail_samples < 0:
        raise ValueError("lead and trail must be >= 0")
    body = preamble_rx.samples
    total = lead_samples + body.size + trail_samples
    rng = np.random.default_rng(seed)
    scale = math.sqrt(noise_psd / 2.0)
    stream = scale * (rng.standard_normal(total) + 1j * rng.standard_normal(total))
    stream[lead_samples : lead_samples + body.size] += body
    return ComplexSignal(stream, preamble_rx.sample_rate_hz)
