"""Streaming cascade filter-bank detection path.

The detector is one chain of stage functions, each advancing its own
state object: `afb_process` splits the input into L overlapping
subcarrier bands with a polyphase analysis bank built on the transmit
prototype (so analysis doubles as per-band pulse matched filtering);
whitening scales each band by its conjugate code over the band's noise
power, either pinned (`whiten_and_synthesize`) or estimated per hop
from the trailing power window (`CascadeDetector`); `_synthesize`
resynthesizes a full-rate stream with a polyphase interpolator, where
each output sums only the lag_hops taps of its own phase;
`matched_filter_bank` correlates it against the preamble comb; and the
Rao score 2*energy/beta is emitted once per L input samples.
`CascadeDetector.push` runs that chain.
Estimated whitening needs a full window before its first hop, which
delays the first scored anchor; `tracked_first_anchor` is that rule.

Time bases: analysis output i is anchored at input sample i*hop (the
start of its filter window).  The synthesized stream is indexed by the
matched-filter anchor m, meaning sample m already corresponds to a
correlation window starting at input sample m; interpolation group
delay is folded into the bookkeeping, so detection indices need no
further correction.

Every reduction is evaluated per output element over a canonical window
in a fixed order (the synthesis in ascending tap order), which makes
chunked (streaming) processing and one-shot processing bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import TestStatistic, compute_beta
from .numerics import ComplexSignal
from .waveform import PrototypeFilter, SpreadingCode, WaveformConfig, pulse_origin_index

__all__ = [
    "BandPowerEstimate",
    "CascadeDetector",
    "ChannelizerConfig",
    "DetectionEvent",
    "DetectionReport",
    "SubbandFrame",
    "afb_process",
    "analysis_state",
    "config_from_waveform",
    "detect_stream",
    "estimate_band_power",
    "matched_filter_bank",
    "mf_state",
    "synthesis_state",
    "tracked_first_anchor",
    "whiten_and_synthesize",
]

_POWER_FLOOR_RATIO = 1e-6
_INTERP_ATTEN_DB = 80.0


@dataclass(frozen=True, eq=False)
class ChannelizerConfig:
    """Static description of one cascade instance (one radio band).

    num_subbands is L; outputs_per_symbol is the oversampling factor r,
    so analysis outputs appear every L/r input samples.  branch_count is
    the number of matched-filter branches p (delay hypotheses).
    """

    num_subbands: int
    prototype: PrototypeFilter
    code: SpreadingCode
    preamble_symbols: np.ndarray = field(repr=False)
    branch_count: int
    outputs_per_symbol: int = 2

    def __post_init__(self):
        s = np.asarray(self.preamble_symbols, dtype=np.complex128)
        object.__setattr__(self, "preamble_symbols", s)
        l = self.num_subbands
        r = self.outputs_per_symbol
        if r < 2:
            raise ValueError("outputs_per_symbol must be >= 2")
        if l < 2 or l % r != 0:
            raise ValueError("num_subbands must be a positive multiple of outputs_per_symbol")
        if not 1 <= self.branch_count < l:
            raise ValueError("branch_count must satisfy 1 <= p < num_subbands")
        if self.prototype.samples_per_symbol != l:
            raise ValueError("prototype rate must equal num_subbands")
        if len(self.code) != l:
            raise ValueError("code length must equal num_subbands")
        if s.ndim != 1 or s.size < 1:
            raise ValueError("preamble_symbols must be a nonempty vector")
        if np.max(np.abs(np.abs(s) - 1.0)) > 1e-12:
            raise ValueError("preamble symbols must be unit modulus")
        # the band mainlobe must fit inside the synthesis interpolator
        # passband, which ends at 0.9 of the decimated Nyquist
        if (1.0 + self.prototype.rolloff) > 0.9 * r:
            raise ValueError("oversampling too low for the prototype rolloff")

    @property
    def hop(self) -> int:
        return self.num_subbands // self.outputs_per_symbol

    @property
    def preamble_length(self) -> int:
        return int(self.preamble_symbols.size)

    @property
    def fifo_capacity(self) -> int:
        return self.outputs_per_symbol * self.preamble_length


def config_from_waveform(
    waveform: WaveformConfig, branch_count: int, outputs_per_symbol: int = 2
) -> ChannelizerConfig:
    return ChannelizerConfig(
        num_subbands=waveform.num_subbands,
        prototype=waveform.prototype,
        code=waveform.code,
        preamble_symbols=waveform.preamble_symbols,
        branch_count=branch_count,
        outputs_per_symbol=outputs_per_symbol,
    )


@dataclass(frozen=True)
class SubbandFrame:
    """Analysis output block: one row per band, one column per hop."""

    values: np.ndarray
    band_rate_hz: float
    start_hop: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be a bands x time matrix")
        if not self.band_rate_hz > 0.0:
            raise ValueError("band_rate_hz must be positive")

    @property
    def num_bands(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class BandPowerEstimate:
    """Per-band noise PSD estimates, referred to the full-rate plane."""

    phi_hat: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi_hat, dtype=np.float64)
        object.__setattr__(self, "phi_hat", phi)
        if phi.ndim != 1 or phi.size == 0:
            raise ValueError("phi_hat must be a nonempty vector")
        if not np.all(np.isfinite(phi)) or np.any(phi <= 0.0):
            raise ValueError("phi_hat entries must be positive and finite")


def _band_power(power: np.ndarray) -> np.ndarray:
    """Per-band PSD from a contiguous (bands, window) block of |x|^2.

    The unit-energy analysis filter concentrates a band's PSD, so the
    full-rate per-band PSD is L times the subband sample variance; the
    chi-squared threshold calibration depends on this reference plane.
    The floor keeps silent bands from blowing up the whitening division.
    Both the one-shot estimate and the tracked per-hop loop reduce
    through here, so they agree bit for bit.
    """
    phi = power.shape[0] * np.mean(power, axis=1)
    med = float(np.median(phi))
    floor = _POWER_FLOOR_RATIO * med if med > 0.0 else np.finfo(np.float64).tiny
    return np.maximum(phi, floor)


def estimate_band_power(block) -> BandPowerEstimate:
    """Band PSDs from a (bands, window) block of analysis samples."""
    v = np.asarray(block, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("need a nonempty bands x window block")
    power = np.ascontiguousarray(v.real**2 + v.imag**2)
    return BandPowerEstimate(phi_hat=_band_power(power))


def _stable_product(a: np.ndarray, b: np.ndarray, conjugate_b: bool = False) -> np.ndarray:
    """Elementwise complex product computed through real-part arithmetic.

    numpy picks its complex-multiply kernel per call from operand size
    and buffer alignment, and the fused-multiply-add variants round
    differently from the plain one, so `a * b` on identical values can
    give different bits depending on how a stream was chunked.  Single
    float64 multiplies and adds are correctly rounded everywhere, which
    makes this form reproduce exactly.  Broadcasting follows numpy.
    """
    ar, ai = a.real, a.imag
    br, bi = b.real, b.imag
    if conjugate_b:
        bi = -bi
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def _stable_quotient(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """a / d for complex a and real positive d, kernel-independent."""
    out = np.empty(np.broadcast_shapes(a.shape, d.shape), dtype=np.complex128)
    out.real = a.real / d
    out.imag = a.imag / d
    return out


def _phase_table(num_subbands: int) -> np.ndarray:
    """exp(j pi u (L+1)/L) for u = 0..2L-1; the analysis pre-twiddle.

    Multiplying by this and taking an L-point DFT centers bin k on the
    half-integer subcarrier grid (2k - L - 1)/(2L).  Period 2L exactly,
    so lookups by (index mod 2L) cannot drift on long streams.
    """
    l = num_subbands
    u = np.arange(2 * l)
    return np.exp(1j * np.pi * (l + 1) / l * u)


@dataclass
class AnalysisState:
    cfg: ChannelizerConfig
    phase: np.ndarray
    taps: np.ndarray
    tail: np.ndarray
    next_hop: int = 0


def analysis_state(cfg: ChannelizerConfig) -> AnalysisState:
    return AnalysisState(
        cfg=cfg,
        phase=_phase_table(cfg.num_subbands),
        taps=cfg.prototype.taps.astype(np.float64),
        tail=np.zeros(0, dtype=np.complex128),
    )


def _as_samples(signal) -> tuple[np.ndarray, float | None]:
    if isinstance(signal, ComplexSignal):
        return signal.samples, signal.sample_rate_hz
    return np.asarray(signal, dtype=np.complex128), None


# complex elements in one block's zero-padded fold buffer (32 MiB)
_AFB_BLOCK_ELEMENTS = 1 << 21


def afb_process(chunk, cfg: ChannelizerConfig, state: AnalysisState) -> SubbandFrame:
    """Advance the analysis bank; returns the newly completed hops.

    Output column i holds all L band samples for the window starting at
    input sample i*hop: band k equals the input correlated against the
    prototype modulated to subcarrier k, i.e. filtered and decimated.
    """
    if state.cfg is not cfg:
        raise ValueError("state was built for a different config")
    x, rate = _as_samples(chunk)
    l = cfg.num_subbands
    d = cfg.hop
    taps = state.taps
    span_slots = (taps.size + l - 1) // l
    data = np.concatenate([state.tail, x]) if state.tail.size else x
    start_hop = state.next_hop
    n_hops = (data.size - taps.size) // d + 1 if data.size >= taps.size else 0
    band_rate = (rate if rate is not None else float(l)) / d
    if n_hops <= 0:
        state.tail = data.copy()
        return SubbandFrame(
            values=np.zeros((l, 0), dtype=np.complex128),
            band_rate_hz=band_rate,
            start_hop=start_hop,
        )
    offset = start_hop * d
    v = _stable_product(data, state.phase[(offset + np.arange(data.size)) % (2 * l)])
    out = np.empty((n_hops, l), dtype=np.complex128)
    windows = sliding_window_view(v, taps.size)[::d]
    hop_idx = start_hop + np.arange(n_hops)
    shift = (hop_idx * d) % l
    col = np.arange(l)
    block = max(1, _AFB_BLOCK_ELEMENTS // (span_slots * l))
    for lo in range(0, n_hops, block):
        hi = min(lo + block, n_hops)
        # multiply straight into the zero-padded fold buffer: one
        # hops x taps temporary instead of two
        padded = np.zeros((hi - lo, span_slots * l), dtype=np.complex128)
        np.multiply(windows[lo:hi], taps, out=padded[:, : taps.size])
        folded = padded.reshape(hi - lo, span_slots, l).sum(axis=1)
        rolled = folded[np.arange(hi - lo)[:, None], (col[None, :] - shift[lo:hi, None]) % l]
        out[lo:hi] = np.fft.fft(rolled, axis=1)
    # copies: a view would alias the caller's buffer or pin the whole block
    state.tail = data[n_hops * d :].copy()
    state.next_hop = start_hop + n_hops
    return SubbandFrame(
        values=np.ascontiguousarray(out.T), band_rate_hz=band_rate, start_hop=start_hop
    )


def _interp_taps(cfg: ChannelizerConfig) -> np.ndarray:
    """Kaiser-windowed sinc interpolator for the synthesis bank.

    Recovers the full-rate subband signal from its hop-decimated samples.
    The passband reaches 0.9 of the decimated Nyquist (the prototype
    mainlobe plus the Nyquist-repair skirt end well below that), the
    transition is symmetric about Nyquist, and the passband gain is hop
    so a zero-stuffed unit sample train reconstructs at unit level.  Odd
    length keeps the group delay integral.
    """
    l = cfg.num_subbands
    d = cfg.hop
    nyquist = 1.0 / (2.0 * d)
    pass_edge = min(1.1 / l, 0.9 * nyquist)
    transition = 2.0 * (nyquist - pass_edge)
    beta = 0.1102 * (_INTERP_ATTEN_DB - 8.7)
    n = int(np.ceil((_INTERP_ATTEN_DB - 7.95) / (2.285 * 2.0 * np.pi * transition)))
    n += 1 - n % 2
    t = np.arange(n) - (n - 1) / 2.0
    return np.sinc(t / d) * np.kaiser(n, beta)


@dataclass
class SynthesisState:
    cfg: ChannelizerConfig
    phase: np.ndarray
    coeffs: np.ndarray
    delay: int
    weights: np.ndarray
    z_tail: np.ndarray
    tail_hop: int
    next_out: int = 0

    @property
    def lag_hops(self) -> int:
        """How many past analysis hops one output sample can reference."""
        return self.coeffs.shape[1]


def synthesis_state(cfg: ChannelizerConfig) -> SynthesisState:
    nu = (2.0 * np.arange(cfg.num_subbands) - cfg.num_subbands - 1.0) / (
        2.0 * cfg.num_subbands
    )
    center = pulse_origin_index(cfg.prototype)
    weights = _stable_product(
        np.exp(2j * np.pi * nu * center), cfg.code.gains, conjugate_b=True
    )
    # polyphase table: coeffs[phase, k] = interp[phase + k*hop], with the
    # phases one tap short padded by 0.0
    interp = _interp_taps(cfg)
    d = cfg.hop
    lag = (interp.size - 1) // d + 1
    table = np.zeros(lag * d)
    table[: interp.size] = interp
    return SynthesisState(
        cfg=cfg,
        phase=_phase_table(cfg.num_subbands),
        coeffs=np.ascontiguousarray(table.reshape(lag, d).T),
        # odd interpolator length keeps the group delay whole
        delay=(interp.size - 1) // 2,
        weights=weights,
        # the history before the stream is silence
        z_tail=np.zeros((lag - 1, cfg.num_subbands), dtype=np.complex128),
        tail_hop=-(lag - 1),
    )


def _synthesize(z_new: np.ndarray, state: SynthesisState) -> np.ndarray:
    """Polyphase interpolation, remodulation and residue sum into y'.

    z_new rows are L-point inverse DFTs of the gain-scaled band samples,
    one row per hop.  Output sample m (matched-filter anchor time base)
    has q = m + delay, newest hop q // hop and phase q % hop; it sums
    coeffs[phase, k] * z[newest - k, m mod L] for k = 0..lag_hops-1, the
    interpolator taps phase + k*hop of that phase alone (Harris, Dick and
    Rice, IEEE T-MTT 2003).  Hops before the stream are zero.  Each k is
    one gather and one multiply-add over all new outputs, real and
    imaginary parts apart.  Ascending k is ascending tap order, so every
    output adds its terms in the same order whatever the chunking; and a
    sum started at +0.0 never turns -0.0, so the +-0.0 terms of the 0.0
    pad taps change no bit.
    """
    cfg = state.cfg
    l = cfg.num_subbands
    d = cfg.hop
    delay = state.delay
    lag = state.lag_hops
    z = np.concatenate([state.z_tail, z_new], axis=0)
    base_hop = state.tail_hop
    end_hop = base_hop + z.shape[0]
    # emit m while its newest contributing hop floor((m+delay)/hop) exists
    m_stop = end_hop * d - delay
    m_start = state.next_out
    state.z_tail = z[z.shape[0] - (lag - 1) :].copy()
    state.tail_hop = end_hop - (lag - 1)
    if m_stop <= m_start:
        return np.zeros(0, dtype=np.complex128)
    m = np.arange(m_start, m_stop)
    q = m + delay
    phase = q % d
    # flat index of z[newest - k, m mod L] at k = 0, stepped back a row per k
    flat = (q // d - base_hop) * l + m % l
    z_re = np.ascontiguousarray(z.real).ravel()
    z_im = np.ascontiguousarray(z.imag).ravel()
    out = np.zeros(m.size, dtype=np.complex128)
    re, im = out.real, out.imag  # views: the sums land in out
    for k in range(lag):
        coeff = state.coeffs[:, k][phase]
        re += coeff * z_re[flat]
        im += coeff * z_im[flat]
        flat -= l
    out = _stable_product(out, state.phase[m % (2 * l)], conjugate_b=True)
    state.next_out = m_stop
    return out


def tracked_first_anchor(cfg: ChannelizerConfig) -> int:
    """First anchor a CascadeDetector with estimated power scores.

    Hop h is whitened with the power over hops [h - fifo_capacity, h),
    so hops before fifo_capacity have no estimate.  The anchor is the
    smallest multiple of L whose oldest contributing hop, through the
    synthesis interpolator delay, has a full window.
    """
    first_m = (cfg.fifo_capacity - 1) * cfg.hop + synthesis_state(cfg).delay + 1
    return -(-first_m // cfg.num_subbands) * cfg.num_subbands


def _whitened_residues(
    values: np.ndarray, phi: np.ndarray, state: SynthesisState
) -> np.ndarray:
    """Scale (bands, hops) samples by conj-code over phi, invert across bands.

    phi is one profile (L,) for every hop or one row per hop (hops, L);
    broadcasting covers both.  Returns one row per hop.
    """
    gains = _stable_quotient(state.weights, phi)
    scaled = _stable_product(values.T, gains)
    return np.fft.ifft(scaled, axis=1) * state.cfg.num_subbands


def whiten_and_synthesize(
    frame: SubbandFrame,
    power: BandPowerEstimate,
    cfg: ChannelizerConfig,
    state: SynthesisState,
) -> ComplexSignal:
    """Scale bands by conj-code over phi_hat and resynthesize full rate.

    With phi_hat identically one this reduces to matched filtering by
    the composite pulse; the returned samples extend the y' stream from
    wherever the previous call stopped (anchor time base).
    """
    if frame.num_bands != cfg.num_subbands:
        raise ValueError("frame band count does not match config")
    if power.phi_hat.size != cfg.num_subbands:
        raise ValueError("power estimate length does not match config")
    z = _whitened_residues(frame.values, power.phi_hat, state)
    out = _synthesize(z, state)
    return ComplexSignal(out, frame.band_rate_hz * cfg.hop)


@dataclass
class MatchedFilterState:
    cfg: ChannelizerConfig
    conj_symbols: np.ndarray
    tail: np.ndarray
    next_anchor: int = 0


def mf_state(cfg: ChannelizerConfig) -> MatchedFilterState:
    return MatchedFilterState(
        cfg=cfg,
        conj_symbols=np.conj(cfg.preamble_symbols),
        tail=np.zeros(0, dtype=np.complex128),
    )


def matched_filter_bank(
    yprime, cfg: ChannelizerConfig, state: MatchedFilterState
) -> np.ndarray:
    """Correlate y' against the preamble comb; one column per L samples.

    Branch l of column j is sum_n conj(s[n]) y'[jL + l + nL]: the inner
    product of the window anchored at jL with column l of the dense
    observation matrix.  Returns a (branch_count, windows) block; the
    anchor of the first returned column is state.next_anchor*L before
    the call.
    """
    y, _ = _as_samples(yprime)
    l = cfg.num_subbands
    n = cfg.preamble_length
    p = cfg.branch_count
    data = np.concatenate([state.tail, y]) if state.tail.size else y
    base = state.next_anchor * l  # absolute index of data[0]
    reach = (n - 1) * l + p  # window span per anchor
    n_windows = (data.size - reach) // l + 1 if data.size >= reach else 0
    if n_windows <= 0:
        state.tail = data.copy()
        return np.zeros((p, 0), dtype=np.complex128)
    comb = np.arange(n) * l
    anchors_rel = np.arange(n_windows) * l
    out = np.empty((p, n_windows), dtype=np.complex128)
    for branch in range(p):
        gathered = data[anchors_rel[:, None] + branch + comb[None, :]]
        out[branch] = _stable_product(gathered, state.conj_symbols).sum(axis=1)
    state.tail = data[n_windows * l :].copy()
    state.next_anchor += n_windows
    return out


@dataclass(frozen=True)
class DetectionEvent:
    index: int
    statistic: float


@dataclass(frozen=True)
class DetectionReport:
    events: list[DetectionEvent]
    best: TestStatistic | None


class CascadeDetector:
    """Stateful end-to-end pipeline: push samples, get scored windows.

    One instance per stream; single writer.  push chains the stage
    functions: afb_process, whitening, synthesis, matched_filter_bank,
    then the score 2*energy/beta.  With power_override the whitening
    gains and beta are pinned (calibration mode, whiten_and_synthesize)
    and scoring starts at anchor zero.  Otherwise each hop is whitened
    with the band power over the trailing fifo_capacity hops, strictly
    before it, reduced like estimate_band_power; scoring then starts at
    tracked_first_anchor(cfg), the one home of that warm-up rule.
    """

    def __init__(
        self,
        cfg: ChannelizerConfig,
        power_override=None,
        record_power: bool = False,
    ):
        self.cfg = cfg
        self._afb = analysis_state(cfg)
        self._sfb = synthesis_state(cfg)
        self._mf = mf_state(cfg)
        self._override = None
        self._beta_const = None
        self._min_anchor = 0
        if power_override is not None:
            values = getattr(power_override, "phi_hat", power_override)
            phi = np.asarray(values, dtype=np.float64)
            if phi.size != cfg.num_subbands:
                raise ValueError("power override length does not match config")
            self._override = BandPowerEstimate(phi)
            self._beta_const = compute_beta(phi, cfg.preamble_length, cfg.num_subbands)
        else:
            self._min_anchor = tracked_first_anchor(cfg)
        self._power_tail = np.zeros((0, cfg.num_subbands))
        self._power_tail_hop = 0
        self._beta_by_hop: dict[int, float] = {}
        self.power_trace: list[tuple[int, np.ndarray]] = [] if record_power else None

    def push(self, chunk) -> tuple[np.ndarray, np.ndarray]:
        """Process more samples; returns (anchor indices, statistics)."""
        cfg = self.cfg
        frame = afb_process(chunk, cfg, self._afb)
        if self._override is not None:
            y_new = whiten_and_synthesize(frame, self._override, cfg, self._sfb)
        else:
            y_new = _synthesize(self._whiten_tracked(frame), self._sfb)
        branches = matched_filter_bank(y_new, cfg, self._mf)
        n_win = branches.shape[1]
        if n_win == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        first = self._mf.next_anchor - n_win
        anchors = (first + np.arange(n_win)) * cfg.num_subbands
        energies = (branches.real**2 + branches.imag**2).sum(axis=0)
        keep = anchors >= self._min_anchor
        anchors = anchors[keep]
        return anchors, 2.0 * energies[keep] / self._betas_for(anchors)

    def _whiten_tracked(self, frame: SubbandFrame) -> np.ndarray:
        """Per-hop gains from the trailing power window, strictly causal."""
        cfg = self.cfg
        l = cfg.num_subbands
        cap = cfg.fifo_capacity
        hops = frame.values.shape[1]
        power = (frame.values.real**2 + frame.values.imag**2).T  # (hops, L)
        series = np.concatenate([self._power_tail, power], axis=0)
        series_base = self._power_tail_hop
        z = np.zeros((hops, l), dtype=np.complex128)
        # hop i uses mean power over hops [i-cap, i)
        first_scaled = max(frame.start_hop, cap)
        count = frame.start_hop + hops - first_scaled
        if count > 0:
            # per hop, reduce a contiguous (bands, cap) snapshot, so any
            # chunking of the stream gives bit-identical estimates
            phis = np.empty((count, l))
            for row in range(count):
                a = first_scaled + row - cap - series_base
                phi = _band_power(np.ascontiguousarray(series[a : a + cap].T))
                phis[row] = phi
                self._beta_by_hop[first_scaled + row] = compute_beta(
                    phi, cfg.preamble_length, l
                )
            if self.power_trace is not None:
                for row in range(count):
                    self.power_trace.append((first_scaled + row, phis[row].copy()))
            lo = first_scaled - frame.start_hop
            z[lo:] = _whitened_residues(frame.values[:, lo:], phis, self._sfb)
        tail_rows = min(series.shape[0], cap)
        self._power_tail = series[series.shape[0] - tail_rows :].copy()
        self._power_tail_hop = series_base + series.shape[0] - tail_rows
        return z

    def _betas_for(self, anchors: np.ndarray) -> np.ndarray:
        if self._beta_const is not None:
            return np.full(anchors.size, self._beta_const)
        cfg = self.cfg
        delay = self._sfb.delay
        out = np.empty(anchors.size)
        for idx, anchor in enumerate(anchors):
            window_end = anchor + (cfg.preamble_length - 1) * cfg.num_subbands + (
                cfg.branch_count - 1
            )
            # scored anchors start at tracked_first_anchor, so every hop
            # they reach has a full window and a beta
            last_hop = (window_end + delay) // cfg.hop
            beta = self._beta_by_hop.get(last_hop)
            if beta is None:
                raise RuntimeError(f"no power estimate for hop {last_hop}")
            out[idx] = beta
        # drop betas no longer reachable so the dict stays bounded
        if anchors.size:
            horizon = int(anchors[-1]) // cfg.hop - 2 * cfg.fifo_capacity
            for h in [h for h in self._beta_by_hop if h < horizon]:
                del self._beta_by_hop[h]
        return out


def detect_stream(
    signal,
    cfg: ChannelizerConfig,
    threshold: float,
    power_override: BandPowerEstimate | None = None,
    chunk_samples: int = 1 << 17,
) -> DetectionReport:
    """Run the full pipeline over a signal and report threshold crossings.

    Events carry the window anchor on the input time base.  best is the
    argmax window whether or not it crossed, None if no window completed.
    """
    x, _ = _as_samples(signal)
    det = CascadeDetector(cfg, power_override=power_override)
    events: list[DetectionEvent] = []
    best_val = -np.inf
    best_anchor = 0
    seen = False
    for lo in range(0, x.size, chunk_samples):
        anchors, stats = det.push(x[lo : lo + chunk_samples])
        if anchors.size == 0:
            continue
        seen = True
        over = stats > threshold
        for a, t in zip(anchors[over], stats[over]):
            events.append(DetectionEvent(index=int(a), statistic=float(t)))
        peak = int(np.argmax(stats))
        if stats[peak] > best_val:
            best_val = float(stats[peak])
            best_anchor = int(anchors[peak])
    best = (
        TestStatistic(value=best_val, window_index=best_anchor) if seen else None
    )
    return DetectionReport(events=events, best=best)
