"""Streaming cascade filter-bank detection path.

A ChannelizerConfig holds the waveform the cascade detects (one
waveform.WaveformConfig: prototype, code and preamble) and its branch
count p; every size the stages use is derived from those two.  The
detector is one chain of stage functions on plain arrays, each
advancing its own state object:

- `afb_process` splits the input into L overlapping subcarrier bands
  with a polyphase analysis bank built on the transmit prototype (so
  analysis doubles as per-band pulse matched filtering) and returns the
  new (hops, bands) block;
- the band noise power phi is either pinned to one (L,) profile
  (calibrated mode) or estimated per hop by `track_power` from the
  trailing fifo_capacity hops, one (hops, L) row per hop;
- `_whitened_residues` scales each band by its conjugate code over phi
  and inverts across bands, one row per hop, for both modes;
- `_synthesize` resynthesizes y' with a polyphase interpolator, where
  each output sums only the lag_hops taps of its own phase, at the
  residues l < p the comb reads: row l of its block holds y'[fL + l];
- `matched_filter_bank` correlates those rows against the preamble comb;
- the Rao score 2*energy/beta is emitted once per L input samples.

`CascadeDetector.push` runs that chain.  Tracked whitening needs a full
window before its first hop, which delays the first scored anchor;
`tracked_first_anchor` is that rule.  A hop with no power estimate (in
warm-up, or with a silent hop or zero median power in its window) gets
phi = +inf: its residue row is zero and it adds nothing to beta.

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

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import compute_beta
from .waveform import WaveformConfig, pulse_origin_index

__all__ = [
    "CascadeDetector",
    "ChannelizerConfig",
    "afb_process",
    "analysis_state",
    "matched_filter_bank",
    "mf_state",
    "power_state",
    "synthesis_state",
    "track_power",
    "tracked_first_anchor",
]

_POWER_FLOOR_RATIO = 1e-6
_INTERP_ATTEN_DB = 80.0


@dataclass(frozen=True, eq=False)
class ChannelizerConfig:
    """One cascade instance (one radio band): a waveform and p branches.

    The waveform's num_subbands is L, even here: analysis outputs
    appear every hop = L/2 input samples.  branch_count is the number
    of matched-filter branches p (delay hypotheses).
    """

    waveform: WaveformConfig
    branch_count: int

    def __post_init__(self):
        l = self.num_subbands
        if l % 2 != 0:
            raise ValueError("num_subbands must be even")
        if not 1 <= self.branch_count < l:
            raise ValueError("branch_count must satisfy 1 <= p < num_subbands")
        # the band mainlobe, (1 + rolloff)/(2L) each side, must end inside
        # the interpolator passband, 0.9 of the decimated Nyquist 1/L
        if 1.0 + self.waveform.prototype.rolloff > 1.8:
            raise ValueError("oversampling too low for the prototype rolloff")

    @property
    def num_subbands(self) -> int:
        return self.waveform.num_subbands

    @property
    def hop(self) -> int:
        return self.num_subbands // 2

    @property
    def preamble_length(self) -> int:
        return self.waveform.preamble_length

    @property
    def fifo_capacity(self) -> int:
        return 2 * self.preamble_length


def _band_power(power: np.ndarray) -> np.ndarray:
    """Per-band PSD from a contiguous (bands, window) block of |x|^2.

    The unit-energy analysis filter concentrates a band's PSD, so the
    full-rate per-band PSD is L times the subband sample variance; the
    chi-squared threshold calibration depends on this reference plane.
    The floor keeps silent bands from blowing up the whitening division.
    A window of zero median power has no estimate: every band is +inf.
    """
    phi = power.shape[0] * np.mean(power, axis=1)
    med = float(np.median(phi))
    if med == 0.0:
        return np.full(phi.size, np.inf)
    return np.maximum(phi, _POWER_FLOOR_RATIO * med)


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
        taps=cfg.waveform.prototype.taps.astype(np.float64),
        tail=np.zeros(0, dtype=np.complex128),
    )


# complex elements in one block's zero-padded fold buffer (32 MiB)
_AFB_BLOCK_ELEMENTS = 1 << 21


def afb_process(chunk, cfg: ChannelizerConfig, state: AnalysisState) -> np.ndarray:
    """Advance the analysis bank; returns the newly completed hops.

    The result is a (hops, bands) block.  Row i holds all L band
    samples for the window starting at input sample i*hop: band k
    equals the input correlated against the prototype modulated to
    subcarrier k, i.e. filtered and decimated.
    """
    if state.cfg is not cfg:
        raise ValueError("state was built for a different config")
    x = np.asarray(chunk, dtype=np.complex128)
    l = cfg.num_subbands
    d = cfg.hop
    taps = state.taps
    span_slots = (taps.size + l - 1) // l
    data = np.concatenate([state.tail, x]) if state.tail.size else x
    start_hop = state.next_hop
    n_hops = (data.size - taps.size) // d + 1 if data.size >= taps.size else 0
    if n_hops <= 0:
        state.tail = data.copy()
        return np.zeros((0, l), dtype=np.complex128)
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
    return out


@dataclass
class PowerState:
    """|x|^2 of the last fifo_capacity analysis hops, one row per hop."""

    tail: np.ndarray
    tail_hop: int = 0

    @property
    def next_hop(self) -> int:
        return self.tail_hop + self.tail.shape[0]


def power_state(cfg: ChannelizerConfig) -> PowerState:
    return PowerState(tail=np.zeros((0, cfg.num_subbands)))


def track_power(values: np.ndarray, cfg: ChannelizerConfig, state: PowerState) -> np.ndarray:
    """Per-hop band PSD from the trailing power window, strictly causal.

    values is the (hops, L) block afb_process just returned.  Hop h
    gets the _band_power of hops [h - fifo_capacity, h), so the result
    has one (L,) row per hop.  Hops before the first full window have
    no estimate and get +inf, as _band_power gives a silent window, and
    so do hops whose window holds a silent hop (every band exactly zero).
    """
    l = cfg.num_subbands
    cap = cfg.fifo_capacity
    start = state.next_hop
    hops = values.shape[0]
    power = values.real**2 + values.imag**2
    series = np.concatenate([state.tail, power], axis=0)
    # silent[b] - silent[a] counts the silent hops in series[a:b]; past
    # one, the filter transient would pass for the noise level
    silent = np.concatenate([[0], np.cumsum(~np.any(series, axis=1))])
    phis = np.full((hops, l), np.inf)
    # per hop, reduce a contiguous (bands, cap) snapshot, so any
    # chunking of the stream gives bit-identical estimates
    for h in range(max(start, cap), start + hops):
        a = h - cap - state.tail_hop
        if silent[a + cap] == silent[a]:
            phis[h - start] = _band_power(np.ascontiguousarray(series[a : a + cap].T))
    keep = min(series.shape[0], cap)
    state.tail = series[series.shape[0] - keep :].copy()
    state.tail_hop += series.shape[0] - keep
    return phis


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
    next_frame: int = 0

    @property
    def lag_hops(self) -> int:
        """How many past analysis hops one output sample can reference."""
        return self.coeffs.shape[1]


def synthesis_state(cfg: ChannelizerConfig) -> SynthesisState:
    wf = cfg.waveform
    nu = wf.normalized_frequencies()
    center = pulse_origin_index(wf.prototype)
    weights = _stable_product(np.exp(2j * np.pi * nu * center), wf.code.gains, conjugate_b=True)
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
        z_tail=np.zeros((lag - 1, cfg.branch_count), dtype=np.complex128),
        tail_hop=-(lag - 1),
    )


def _synthesize(z_new: np.ndarray, state: SynthesisState) -> np.ndarray:
    """Polyphase interpolation of y' at the residues the comb reads.

    z_new rows are L-point inverse DFTs of the gain-scaled band samples,
    one row per hop.  Returns a (p, frames) block: row l, column f holds
    y'[fL + l] (matched-filter anchor time base), and a frame is emitted
    once all p of its residues have their newest hop.  Output m has
    q = m + delay, newest hop q // hop and phase q % hop; it sums
    coeffs[phase, k] * z[newest - k, m mod L] for k = 0..lag_hops-1, the
    taps of its own phase (Harris, Dick and Rice, IEEE T-MTT 2003), and
    only kept outputs are computed (Crochiere and Rabiner, 1983).  With
    L = 2*hop, residue l keeps one phase and its newest hop moves two a
    frame, so each k is one strided multiply-add over the block, real and
    imaginary parts apart.  Hops before the stream are zero.  Ascending k
    is ascending tap order, so every output adds its terms in the same
    order whatever the chunking; and a sum started at +0.0 never turns
    -0.0, so the +-0.0 terms of the 0.0 pad taps change no bit.
    """
    cfg = state.cfg
    l = cfg.num_subbands
    d = cfg.hop
    p = cfg.branch_count
    delay = state.delay
    z = np.concatenate([state.z_tail, z_new[:, :p]], axis=0)
    base_hop = state.tail_hop
    f_start = state.next_frame
    # frame f is whole once its last residue fL + p - 1 has its newest hop
    f_stop = max(f_start, ((base_hop + z.shape[0]) * d - delay - p) // l + 1)
    # keep every hop the oldest unemitted frame reaches
    keep = (f_stop * l + delay) // d - (state.lag_hops - 1)
    state.z_tail = z[keep - base_hop :].copy()
    state.tail_hop = keep
    state.next_frame = f_stop
    frames = f_stop - f_start
    if frames == 0:
        return np.zeros((p, 0), dtype=np.complex128)
    residues = np.arange(p)
    skew = (residues + delay) // d - delay // d
    # planes[:, l, j] is z[j + skew[l], l], real then imaginary: one
    # slice per k then serves every residue
    rows = np.arange(z.shape[0] - skew[-1]) + skew[:, None]
    planes = np.stack([z.real[rows, residues[:, None]], z.imag[rows, residues[:, None]]])
    taps = state.coeffs[(residues + delay) % d].T[:, :, None]  # (lag, p, 1)
    s = 2 * f_start + delay // d - base_hop  # plane column of frame f_start, k = 0
    acc = np.zeros((2, p, frames))
    for k, tap in enumerate(taps):
        acc += tap * planes[:, :, s - k : s - k + 2 * frames : 2]
    y = np.empty((p, frames), dtype=np.complex128)
    y.real, y.imag = acc
    ramp = residues[:, None] + l * ((f_start + np.arange(frames)) % 2)  # (fL + l) mod 2L
    return _stable_product(y, state.phase[ramp], conjugate_b=True)


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
    """Scale (hops, bands) samples by conj-code over phi, invert across bands.

    phi is one profile (L,) for every hop or one row per hop (hops, L);
    broadcasting covers both.  Returns one row per hop, the input of
    _synthesize.  With phi identically one the chain reduces to matched
    filtering by the composite pulse; a band with phi = +inf is zeroed.
    """
    gains = _stable_quotient(state.weights, phi)
    scaled = _stable_product(values, gains)
    return np.fft.ifft(scaled, axis=1) * state.cfg.num_subbands


@dataclass
class MatchedFilterState:
    conj_symbols: np.ndarray
    tail: np.ndarray
    next_anchor: int = 0


def mf_state(cfg: ChannelizerConfig) -> MatchedFilterState:
    return MatchedFilterState(
        conj_symbols=np.conj(cfg.waveform.preamble_symbols),
        tail=np.zeros((cfg.branch_count, 0), dtype=np.complex128),
    )


_MF_BLOCK_ELEMENTS = 1 << 14  # comb products per block: 256 KiB, to stay in cache


def matched_filter_bank(
    block: np.ndarray, cfg: ChannelizerConfig, state: MatchedFilterState
) -> np.ndarray:
    """Correlate _synthesize's residue block against the preamble comb.

    Branch l of window j is sum_n conj(s[n]) y'[jL + l + nL], a window
    of residue row l: the inner product of the window anchored at jL
    with column l of the dense observation matrix.  Returns a
    (branch_count, windows) block; the anchor of the first returned
    column is state.next_anchor*L before the call.  Each window sums its
    own products, so taking windows in blocks changes no bit.
    """
    n = cfg.preamble_length
    conj = state.conj_symbols
    data = np.concatenate([state.tail, block], axis=1)
    n_windows = max(0, data.shape[1] - n + 1)
    out = np.empty((cfg.branch_count, n_windows), dtype=np.complex128)
    step = max(1, _MF_BLOCK_ELEMENTS // n)
    for lo in range(0, n_windows, step):
        windows = sliding_window_view(data[:, lo : lo + step + n - 1], n, axis=1)
        for branch, win in enumerate(windows):
            out[branch, lo : lo + step] = _stable_product(win, conj).sum(axis=1)
    state.tail = data[:, n_windows:].copy()
    state.next_anchor += n_windows
    return out


class CascadeDetector:
    """Stateful end-to-end pipeline: push samples, get scored windows.

    One instance per stream; single writer.  push runs the stage chain
    on plain arrays: afb_process, the power profile phi,
    _whitened_residues, _synthesize (residues l < p of y' only),
    matched_filter_bank, then the score 2*energy/beta.  power_override
    pins phi to one (L,) profile for every hop (calibrated mode), and
    scoring starts at anchor zero.  Otherwise track_power gives each hop
    the band power of the fifo_capacity hops before it, and scoring
    starts at tracked_first_anchor(cfg), the one home of that warm-up
    rule.  A window's beta is that of the newest hop it reaches, which
    is always one whitened in the same push; a window whose newest hop
    has no estimate scores 0.0.  Non-finite samples are refused before
    any stage state moves.
    """

    def __init__(self, cfg: ChannelizerConfig, power_override=None):
        self.cfg = cfg
        self._afb = analysis_state(cfg)
        self._sfb = synthesis_state(cfg)
        self._mf = mf_state(cfg)
        # last sample of a window past its anchor, then through the
        # interpolator delay: the newest hop the window reaches
        self._beta_hop_offset = (
            (cfg.preamble_length - 1) * cfg.num_subbands
            + cfg.branch_count
            - 1
            + self._sfb.delay
        )
        if power_override is None:
            self._power = power_state(cfg)
            self._min_anchor = tracked_first_anchor(cfg)
        else:
            self._power = None
            self._min_anchor = 0
            self._phi = np.array(power_override, dtype=np.float64)
            if self._phi.shape != (cfg.num_subbands,):
                raise ValueError("power override length does not match config")
            self._beta = compute_beta(self._phi, cfg.preamble_length, cfg.num_subbands)

    def push(self, chunk) -> tuple[np.ndarray, np.ndarray]:
        """Process more samples; returns (anchor indices, statistics)."""
        cfg = self.cfg
        x = np.asarray(chunk, dtype=np.complex128)
        if not np.all(np.isfinite(x)):
            raise ValueError("samples must be finite")
        first_hop = self._afb.next_hop
        values = afb_process(x, cfg, self._afb)
        if self._power is None:
            phi = self._phi
        else:
            phi = track_power(values, cfg, self._power)
        z = _whitened_residues(values, phi, self._sfb)
        branches = matched_filter_bank(_synthesize(z, self._sfb), cfg, self._mf)
        n_win = branches.shape[1]
        anchors = (self._mf.next_anchor - n_win + np.arange(n_win)) * cfg.num_subbands
        keep = anchors >= self._min_anchor
        anchors = anchors[keep]
        # ascending branch order for any window count: numpy's sum over
        # one column goes pairwise, which rounds differently from p >= 8
        energies = np.zeros(n_win)
        for row in branches:
            energies += row.real**2 + row.imag**2
        energies = energies[keep]
        if self._power is None:
            beta = self._beta
        else:
            rows = (anchors + self._beta_hop_offset) // cfg.hop - first_hop
            beta = compute_beta(phi[rows], cfg.preamble_length, cfg.num_subbands)
        stats = np.zeros(anchors.size)
        np.divide(2.0 * energies, beta, out=stats, where=beta > 0.0)
        return anchors, stats
