"""Streaming cascade filter-bank detection path.

A ChannelizerConfig holds the waveform the cascade detects (one
waveform.WaveformConfig: prototype, code and preamble) and its branch
count p.  Every size and table the stages read depends on those two
alone, so the config builds its tables once: the phase ramp shared by
analysis and synthesis, the polyphase interpolator `coeffs` with its
`delay`, the synthesis `weights` and the conjugate preamble symbols as
an alphabet (`symbol_values`) plus one index per symbol (`symbol_index`).
A stage state holds only what the stream moves: tails and counters.
Every stage takes (input, cfg, state) and advances that state:

- `afb_process` splits the input into L overlapping subcarrier bands
  with a polyphase analysis bank built on the transmit prototype (so
  analysis doubles as per-band pulse matched filtering) and returns the
  new (hops, bands) block;
- the band noise power phi is either pinned to one (L,) profile
  (calibrated mode) or estimated per hop by `track_power` from the
  trailing fifo_capacity hops, one (hops, L) row per hop: hops are cut
  into blocks of fifo_capacity, and a window is the suffix of one block
  plus the prefix of the next, so its sum is the closed block's reverse
  cumulative sum plus the open block's running sum (the aligned-block
  sliding-window aggregation of Tangwongsan, Hirzel and Schneider,
  PVLDB 2015), O(L) per hop, and phi = L * (sum / fifo_capacity);
- `_whitened_residues` (stateless) scales each band by its conjugate
  code over phi and inverts across bands, one row per hop, both modes;
- `_synthesize` resynthesizes y' with a polyphase interpolator, where
  each output sums only the lag_hops taps of its own phase, at the
  residues l < p the comb reads: row l of its block holds y'[fL + l];
- `matched_filter_bank` correlates those rows against the preamble comb,
  looking each product up in a per-branch table of the row times every
  symbol of the alphabet (distributed arithmetic; White, IEEE ASSP
  Magazine 1989): a QPSK comb needs 4 products per sample, not N;
- the Rao score 2*energy/beta is emitted once per L input samples.

`CascadeDetector.push` runs that chain over slices of at most
`_PUSH_SAMPLES` input samples, so its memory does not grow with the
push.  Tracked whitening needs a full
window before its first hop, which delays the first scored anchor;
`tracked_first_anchor` is that rule.  With phi pinned every stage is
local, and `input_span` names the input samples a run of windows reads,
so a calibrated caller can push just those.  A hop with no power
estimate (in warm-up, or with a silent hop or zero median power in its
window) gets phi = +inf: its residue row is zero and it adds nothing to
beta.  A silent hop is one whose analysis window holds a hop-aligned
block of hop exactly-zero samples (`_silent_hops`).

Time bases: analysis output i is anchored at input sample i*hop (the
start of its filter window).  The synthesized stream is indexed by the
matched-filter anchor m, meaning sample m already corresponds to a
correlation window starting at input sample m; interpolation group
delay is folded into the bookkeeping, so detection indices need no
further correction.

Every reduction is evaluated per output element in a fixed order that
no chunking moves (the synthesis in ascending tap order, the power sums
in ascending hop order from their block's start on the absolute hop
index, with no subtraction), which makes chunked (streaming) processing
and one-shot processing bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detector import compute_beta
from .waveform import WaveformConfig, pulse_origin_index

__all__ = [
    "CascadeDetector",
    "ChannelizerConfig",
    "afb_process",
    "analysis_state",
    "input_span",
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
    of matched-filter branches p (delay hypotheses).  The tables below
    are built from those two, once per config.
    """

    waveform: WaveformConfig
    branch_count: int
    phase: np.ndarray = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)
    delay: int = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    symbol_values: np.ndarray = field(init=False, repr=False)
    symbol_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        l = self.num_subbands
        if l % 2 != 0:
            raise ValueError("num_subbands must be even")
        if not 1 <= self.branch_count < l:
            raise ValueError("branch_count must satisfy 1 <= p < num_subbands")
        wf = self.waveform
        # the band mainlobe, (1 + rolloff)/(2L) each side, must end inside
        # the interpolator passband, 0.9 of the decimated Nyquist 1/L
        if 1.0 + wf.prototype.rolloff > 1.8:
            raise ValueError("oversampling too low for the prototype rolloff")
        # polyphase table: coeffs[phase, k] = interp[phase + k*hop], with the
        # phases one tap short padded by 0.0
        interp = _interp_taps(self)
        lag = (interp.size - 1) // self.hop + 1
        table = np.zeros(lag * self.hop)
        table[: interp.size] = interp
        # the conjugate symbols' alphabet, distinct by bit pattern so that
        # 1+0j and 1-0j stay apart; inverse raveled, its shape varies by numpy
        conj = np.conj(wf.preamble_symbols)
        _, first, index = np.unique(
            conj.view(np.uint64).reshape(-1, 2), axis=0, return_index=True, return_inverse=True
        )
        center = pulse_origin_index(wf.prototype)
        recenter = np.exp(2j * np.pi * wf.normalized_frequencies() * center)
        for name, value in (
            ("phase", _phase_table(l)),
            ("coeffs", np.ascontiguousarray(table.reshape(lag, self.hop).T)),
            # odd interpolator length keeps the group delay whole
            ("delay", (interp.size - 1) // 2),
            ("weights", _stable_product(recenter, wf.code.gains, conjugate_b=True)),
            ("symbol_values", conj[first]),
            ("symbol_index", index.ravel()),
        ):
            object.__setattr__(self, name, value)

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

    @property
    def lag_hops(self) -> int:
        """How many past analysis hops one output sample can reference."""
        return self.coeffs.shape[1]


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
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def _stable_quotient(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """a / d for complex a and real positive d, kernel-independent."""
    out = np.empty(np.broadcast(a, d).shape, dtype=np.complex128)
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
    tail: np.ndarray
    next_hop: int = 0


def analysis_state(cfg: ChannelizerConfig) -> AnalysisState:
    return AnalysisState(tail=np.zeros(0, dtype=np.complex128))


# complex elements in the zero-padded fold buffer (8 MiB), one per call;
# measured on a 2-vCPU EPYC with 32 MiB of L3, four times this made a
# 2^18-sample narrowband call 55% slower (8.6 against 5.5 ms), and a
# quarter of it cut the desk curve's noise windows per second by a fifth
_AFB_BLOCK_ELEMENTS = 1 << 19


def afb_process(chunk, cfg: ChannelizerConfig, state: AnalysisState) -> np.ndarray:
    """Advance the analysis bank; returns the newly completed hops.

    The result is a (hops, bands) block.  Row i holds all L band
    samples for the window starting at input sample i*hop: band k
    equals the input correlated against the prototype modulated to
    subcarrier k, i.e. filtered and decimated.
    """
    x = np.asarray(chunk, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    l = cfg.num_subbands
    d = cfg.hop
    taps = cfg.waveform.prototype.taps
    span_slots = (taps.size + l - 1) // l
    data = np.concatenate([state.tail, x]) if state.tail.size else x
    start_hop = state.next_hop
    n_hops = (data.size - taps.size) // d + 1 if data.size >= taps.size else 0
    if n_hops <= 0:
        state.tail = data.copy()
        return np.zeros((0, l), dtype=np.complex128)
    # the phase table has period 2L: tiled from the call's first sample,
    # it gives every sample the entry of its absolute index
    phase = np.resize(np.roll(cfg.phase, -(start_hop * d % (2 * l))), data.size)
    v = _stable_product(data, phase)
    out = np.empty((n_hops, l), dtype=np.complex128)
    windows = sliding_window_view(v, taps.size)[::d]
    block = min(n_hops, max(1, _AFB_BLOCK_ELEMENTS // (span_slots * l)))
    # every block multiplies straight into the taps.size columns of one
    # zero-padded fold buffer; its pad columns are never written, so stay +0.0
    buf = np.zeros((block, span_slots * l), dtype=np.complex128)
    for lo in range(0, n_hops, block):
        hi = min(lo + block, n_hops)
        padded = buf[: hi - lo]
        np.multiply(windows[lo:hi], taps, out=padded[:, : taps.size])
        folded = padded.reshape(hi - lo, span_slots, l).sum(axis=1)
        # hop h's fold rolls by h*hop mod L: with L = 2*hop, not at all
        # for even h and by half the row for odd h, a swap of the halves
        odd = folded[(start_hop + lo + 1) % 2 :: 2]
        odd[:, :d], odd[:, d:] = odd[:, d:].copy(), odd[:, :d].copy()
        out[lo:hi] = np.fft.fft(folded, axis=1)
    # copies: a view would alias the caller's buffer or pin the whole block
    state.tail = data[n_hops * d :].copy()
    state.next_hop = start_hop + n_hops
    return out


@dataclass
class PowerState:
    """Block sums of |x|^2 over analysis hops, one (L,) row per hop.

    Hops are cut into blocks of fifo_capacity on the absolute hop index.
    Row r of `block` holds the open block's row r once its hop is in,
    and until then the reverse cumulative sum of the last closed block
    (the sum of its rows r..cap-1); `fwd` is the open block's running
    sum.  `last_silent` is the newest silent hop so far.  No field grows
    with the stream.
    """

    block: np.ndarray
    fwd: np.ndarray
    next_hop: int = 0
    last_silent: int = -1


def power_state(cfg: ChannelizerConfig) -> PowerState:
    return PowerState(np.zeros((cfg.fifo_capacity, cfg.num_subbands)), np.zeros(cfg.num_subbands))


def _silent_hops(chunk, cfg: ChannelizerConfig, state: AnalysisState) -> np.ndarray:
    """Which of the hops afb_process(chunk, cfg, state) returns are silent.

    Hop i is silent when its analysis window [i*hop, i*hop + taps.size)
    fully contains a block of hop exactly-zero samples, blocks aligned
    on the absolute sample index.  The analysis tail starts on a hop, so
    a block cut by a push boundary is completed by the next push.
    """
    d = cfg.hop
    span = cfg.waveform.prototype.taps.size
    zero = np.concatenate([state.tail == 0, np.asarray(chunk) == 0])
    n_hops = max(0, (zero.size - span) // d + 1)
    blocks = zero[: zero.size // d * d].reshape(-1, d).all(axis=1)
    # hop i fully contains blocks i .. i + k - 1; seen[j] counts blocks < j
    k = span // d
    seen = np.concatenate([[0], np.cumsum(blocks)])
    return seen[k : k + n_hops] > seen[:n_hops]


def track_power(
    values: np.ndarray, silent: np.ndarray, cfg: ChannelizerConfig, state: PowerState
) -> np.ndarray:
    """Per-hop band PSD from the trailing power window, strictly causal.

    values is the (hops, L) block afb_process just returned and silent
    flags its silent hops.  Hop h = b*cap + r (cap = fifo_capacity) sums
    |x|^2 over hops [h - cap, h) as block[r] + fwd: the suffix of block
    b - 1 plus the prefix of block b.  phi = L * (sum / cap) is L times
    the band's mean subband power, the reference plane of the
    chi-squared threshold calibration (the analysis filter has unit
    energy), floored at _POWER_FLOOR_RATIO times the hop's median band
    so silent bands cannot blow up the whitening division.  Hops with
    no estimate get +inf: those before the first full window, those
    whose window holds a silent hop (past one, the filter transient
    would pass for the noise level) and those whose median is zero.
    """
    l = cfg.num_subbands
    cap = cfg.fifo_capacity
    start = state.next_hop
    hops = values.shape[0]
    power = values.real**2 + values.imag**2
    sums = np.empty((hops, l))
    lo = 0
    while lo < hops:
        r = (start + lo) % cap
        hi = min(hops, lo + cap - r)
        end = r + hi - lo
        # run[i] is the open block's sum before hop start + lo + i
        run = np.cumsum(np.concatenate([state.fwd[None], power[lo:hi]]), axis=0)
        np.add(state.block[r:end], run[:-1], out=sums[lo:hi])
        state.block[r:end] = power[lo:hi]
        if end < cap:
            state.fwd[:] = run[-1]
        else:
            # the block closes: its suffix sums serve the next block's hops
            np.cumsum(state.block[::-1], axis=0, out=state.block[::-1])
            state.fwd[:] = 0.0
        lo = hi
    phi = l * (sums / cap)
    # np.median's arithmetic for even L, without its per-call overhead
    part = np.partition(phi, (l // 2 - 1, l // 2), axis=1)
    med = (part[:, l // 2 - 1] + part[:, l // 2]) / 2
    h = start + np.arange(hops)
    # newest silent hop before each hop, then before the next push
    newest = np.maximum.accumulate(np.concatenate([[state.last_silent], np.where(silent, h, -1)]))
    state.next_hop = start + hops
    state.last_silent = int(newest[-1])
    phi = np.maximum(phi, _POWER_FLOOR_RATIO * med[:, None])
    phi[(h < cap) | (newest[:-1] >= h - cap) | (med == 0.0)] = np.inf
    return phi


def _interp_taps(cfg: ChannelizerConfig) -> np.ndarray:
    """Kaiser-windowed sinc interpolator for the synthesis bank.

    Recovers the full-rate subband signal from its hop-decimated samples.
    The passband reaches 0.9 of the decimated Nyquist (the prototype
    mainlobe plus the Nyquist-repair skirt end well below that), the
    transition is symmetric about Nyquist, and the passband gain is hop
    so a zero-stuffed unit sample train reconstructs at unit level.  Odd
    length keeps the group delay integral.
    """
    d = cfg.hop
    nyquist = 1.0 / (2.0 * d)
    transition = 2.0 * (nyquist - 0.9 * nyquist)
    beta = 0.1102 * (_INTERP_ATTEN_DB - 8.7)
    n = int(np.ceil((_INTERP_ATTEN_DB - 7.95) / (2.285 * 2.0 * np.pi * transition)))
    n += 1 - n % 2
    t = np.arange(n) - (n - 1) / 2.0
    return np.sinc(t / d) * np.kaiser(n, beta)


@dataclass
class SynthesisState:
    z_tail: np.ndarray
    tail_hop: int
    next_frame: int = 0


def synthesis_state(cfg: ChannelizerConfig) -> SynthesisState:
    # the history before the stream is silence
    lag = cfg.lag_hops
    return SynthesisState(np.zeros((lag - 1, cfg.branch_count), dtype=np.complex128), 1 - lag)


def _synthesize(z_new: np.ndarray, cfg: ChannelizerConfig, state: SynthesisState) -> np.ndarray:
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
    l = cfg.num_subbands
    d = cfg.hop
    p = cfg.branch_count
    delay = cfg.delay
    z = np.concatenate([state.z_tail, z_new[:, :p]], axis=0)
    base_hop = state.tail_hop
    f_start = state.next_frame
    # frame f is whole once its last residue fL + p - 1 has its newest hop
    f_stop = max(f_start, ((base_hop + z.shape[0]) * d - delay - p) // l + 1)
    # keep every hop the oldest unemitted frame reaches
    keep = (f_stop * l + delay) // d - (cfg.lag_hops - 1)
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
    taps = cfg.coeffs[(residues + delay) % d].T[:, :, None]  # (lag, p, 1)
    s = 2 * f_start + delay // d - base_hop  # plane column of frame f_start, k = 0
    acc = np.zeros((2, p, frames))
    for k, tap in enumerate(taps):
        acc += tap * planes[:, :, s - k : s - k + 2 * frames : 2]
    y = np.empty((p, frames), dtype=np.complex128)
    y.real, y.imag = acc
    ramp = residues[:, None] + l * ((f_start + np.arange(frames)) % 2)  # (fL + l) mod 2L
    return _stable_product(y, cfg.phase[ramp], conjugate_b=True)


def tracked_first_anchor(cfg: ChannelizerConfig) -> int:
    """First anchor a CascadeDetector with estimated power scores.

    Hop h is whitened with the power over hops [h - fifo_capacity, h),
    so hops before fifo_capacity have no estimate.  The anchor is the
    smallest multiple of L whose oldest contributing hop, through the
    synthesis interpolator delay, has a full window.
    """
    first_m = (cfg.fifo_capacity - 1) * cfg.hop + cfg.delay + 1
    return -(-first_m // cfg.num_subbands) * cfg.num_subbands


def input_span(cfg: ChannelizerConfig, first: int, last: int) -> tuple[int, int]:
    """Input samples [start, stop) that the windows anchored in first..last read.

    With phi pinned (calibrated mode) every stage is local: the window
    at anchor m reads the residues m + nL + l (n < N, l < p), output q
    reads hops (q + delay) // hop - lag_hops + 1 .. (q + delay) // hop,
    and hop h reads input [h*hop, h*hop + taps.size).  start is rounded
    down to a multiple of 2L, the period of the analysis phase table and
    the synthesis ramp, so a detector fed x[start:stop] gives those
    windows, at anchor m - start, the bytes a push of all of x gives.
    Windows before first in the slice see silence for their history.
    """
    l2 = 2 * cfg.num_subbands
    d = cfg.hop
    oldest = (first + cfg.delay) // d - (cfg.lag_hops - 1)
    start = max(0, d * oldest // l2 * l2)
    newest_m = last + (cfg.preamble_length - 1) * cfg.num_subbands + cfg.branch_count - 1
    newest = (newest_m + cfg.delay) // d
    return start, d * newest + cfg.waveform.prototype.taps.size


def _whitened_residues(values: np.ndarray, phi: np.ndarray, cfg: ChannelizerConfig) -> np.ndarray:
    """Scale (hops, bands) samples by conj-code over phi, invert across bands.

    phi is one profile (L,) for every hop or one row per hop (hops, L);
    broadcasting covers both.  Returns one row per hop, the input of
    _synthesize.  With phi identically one the chain reduces to matched
    filtering by the composite pulse; a band with phi = +inf is zeroed.
    """
    gains = _stable_quotient(cfg.weights, phi)
    scaled = _stable_product(values, gains)
    return np.fft.ifft(scaled, axis=1) * cfg.num_subbands


@dataclass
class MatchedFilterState:
    tail: np.ndarray
    next_anchor: int = 0


def mf_state(cfg: ChannelizerConfig) -> MatchedFilterState:
    return MatchedFilterState(tail=np.zeros((cfg.branch_count, 0), dtype=np.complex128))


_MF_BLOCK_ELEMENTS = 1 << 14  # gathered comb terms per block: 256 KiB, to stay in cache


def matched_filter_bank(
    block: np.ndarray, cfg: ChannelizerConfig, state: MatchedFilterState
) -> np.ndarray:
    """Correlate _synthesize's residue block against the preamble comb.

    Branch l of window j is sum_n conj(s[n]) y'[jL + l + nL], a window
    of residue row l: the inner product of the window anchored at jL
    with column l of the dense observation matrix.  Returns a
    (branch_count, windows) block; the anchor of the first returned
    column is state.next_anchor*L before the call.  conj(s[n]) takes
    only the D values of cfg.symbol_values, so each branch first builds
    the (D, frames) table of its row times each value, then gathers
    every window's N terms from it, contiguously, in ascending n: the
    same products summed in the same order as multiplying the window
    itself, so taking windows in blocks changes no bit.
    """
    n = cfg.preamble_length
    data = np.concatenate([state.tail, block], axis=1)
    frames = data.shape[1]
    n_windows = max(0, frames - n + 1)
    out = np.empty((cfg.branch_count, n_windows), dtype=np.complex128)
    step = max(1, _MF_BLOCK_ELEMENTS // n)
    if n_windows:
        # flat table offset of term k of window j: symbol_index[k]*frames + k + j
        gather = cfg.symbol_index * frames + np.arange(n) + np.arange(min(step, n_windows))[:, None]
        for branch, row in enumerate(data):
            table = _stable_product(row[None, :], cfg.symbol_values[:, None]).ravel()
            for lo in range(0, n_windows, step):
                hi = min(lo + step, n_windows)
                out[branch, lo:hi] = table[lo:].take(gather[: hi - lo]).sum(axis=1)
    state.tail = data[:, n_windows:].copy()
    state.next_anchor += n_windows
    return out


# input samples per pass of the stage chain: a pass makes 2^19 / L hops,
# so its (hops, L) blocks are 8 MiB each at any L and any push length
_PUSH_SAMPLES = 1 << 18


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
    is always one whitened in the same pass of the chain; a window whose
    newest hop has no estimate scores 0.0.  Samples that are not one
    finite vector are refused before any stage state moves.
    """

    def __init__(self, cfg: ChannelizerConfig, power_override=None):
        self.cfg = cfg
        self._afb = analysis_state(cfg)
        self._sfb = synthesis_state(cfg)
        self._mf = mf_state(cfg)
        # last sample of a window past its anchor, then through the
        # interpolator delay: the newest hop the window reaches
        self._beta_hop_offset = (
            (cfg.preamble_length - 1) * cfg.num_subbands + cfg.branch_count - 1 + cfg.delay
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
        """Process more samples; returns (anchor indices, statistics).

        The chain runs over slices of at most _PUSH_SAMPLES samples;
        chunked output equals one-shot output bit for bit, so the
        slicing changes no result, only the memory a long push holds.
        """
        x = np.asarray(chunk, dtype=np.complex128)
        if x.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples must be finite")
        # an empty push runs the chain once, for its empty arrays
        parts = [
            self._run(x[lo : lo + _PUSH_SAMPLES])
            for lo in range(0, max(x.size, 1), _PUSH_SAMPLES)
        ]
        return np.concatenate([a for a, _ in parts]), np.concatenate([s for _, s in parts])

    def _run(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One pass of the stage chain over validated samples."""
        cfg = self.cfg
        first_hop = self._afb.next_hop
        if self._power is None:
            values = afb_process(x, cfg, self._afb)
            phi = self._phi
        else:
            silent = _silent_hops(x, cfg, self._afb)
            values = afb_process(x, cfg, self._afb)
            phi = track_power(values, silent, cfg, self._power)
        z = _whitened_residues(values, phi, cfg)
        branches = matched_filter_bank(_synthesize(z, cfg, self._sfb), cfg, self._mf)
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
