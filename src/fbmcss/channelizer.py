"""Streaming cascade filter-bank detection path.

A ChannelizerConfig holds the waveform the cascade detects (one
waveform.WaveformConfig: prototype, code and preamble) and its branch
count p.  Every size and table the stages read depends on those two
alone, so the config builds its tables once: the analysis phase ramp
(`phase`, two periods by parts), the complex analysis `taps`, the
polyphase interpolator `coeffs` with its `delay` and each residue's row
of it (`residue_taps`), the synthesis `weights` and the conjugate
preamble symbols, odd ones negated, as an alphabet (`symbol_values`)
plus one index per symbol (`symbol_index`).
A stage state holds only what the stream moves: tails and counters.
Every stage takes (input, cfg, state) and advances that state:

- `afb_process` splits the input into L overlapping subcarrier bands
  with a polyphase analysis bank built on the transmit prototype (so
  analysis doubles as per-band pulse matched filtering) and returns the
  new (hops, bands) block: tail and chunk go into one buffer of 2L-sample
  rows, each row takes the ramp by one broadcast product, and the hop
  windows are a strided view of it;
- the band noise power phi is either pinned to one (L,) profile
  (calibrated mode) or estimated per hop by `track_power` from the
  trailing fifo_capacity hops, one (hops, L) row per hop: hops are cut
  into blocks of fifo_capacity, and a window is the suffix of one block
  plus the prefix of the next, so its sum is the closed block's reverse
  cumulative sum plus the open block's running sum (the aligned-block
  sliding-window aggregation of Tangwongsan, Hirzel and Schneider,
  PVLDB 2015), O(L) per hop; one routine takes both sums row by row
  across all the blocks a push fills, and phi = L * (sum /
  fifo_capacity), floored at a fraction of the hop's median band in the
  rows where that floor can bind;
- `_whitened_residues` (stateless) scales each band by its conjugate
  code over phi and inverts across bands in place, one row per hop,
  both modes;
- `_synthesize` interpolates with a polyphase filter (each output sums
  only the lag_hops taps of its own phase) the residues l < p the comb
  reads: row l of its block holds (-1)^f c_l y'[fL + l], c_l the
  analysis phase table's entry l, a ramp that the score's |.|^2 and the
  comb's alphabet take out; one product and one sum along the taps per
  bounded block of frames, with no loop over taps;
- `matched_filter_bank` correlates those rows against the preamble comb,
  looking each product up in a table of each row times every symbol of
  the alphabet (distributed arithmetic; White, IEEE ASSP Magazine
  1989), built for as many branches at once as a bounded block holds:
  D distinct symbols need D products a sample, not N;
- the Rao score 2*energy/beta is emitted once per L input samples.

`CascadeDetector.push` runs that chain over slices of at most
`_PUSH_SAMPLES` input samples, so its memory does not grow with the
push; one path serves every push length, and a short push pays a fixed
cost of a few dozen numpy calls per stage.  Tracked whitening needs a full
window before its first hop, which delays the first scored anchor;
`tracked_first_anchor` is that rule.  With phi pinned every stage is
local, and `input_span` names the input samples a run of windows reads,
so a calibrated caller can push just those.  Tracked power that is not
known is +inf: before the stream, and at a silent hop, one whose
analysis window holds a hop-aligned block of hop exactly-zero samples
(`_silent_hops`).  +inf absorbs under +, so the power sums themselves
give phi = +inf to a hop whose window reaches either; a hop whose window
has zero median power gets it too.  Its residue row is then zero and it
adds nothing to beta.

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
_HALF_DBL_MAX = np.finfo(np.float64).max / 2
_INTERP_ATTEN_DB = 80.0


@dataclass(frozen=True, eq=False)
class ChannelizerConfig:
    """One cascade instance (one radio band): a waveform and p branches.

    The waveform's num_subbands is L, even here: analysis outputs
    appear every hop = L/2 input samples.  branch_count is the number
    of matched-filter branches p (delay hypotheses).  The tables below
    are built from those two, once per config; the comb's symbols take
    the sign per frame that _synthesize leaves out (module text).
    """

    waveform: WaveformConfig
    branch_count: int
    phase: np.ndarray = field(init=False, repr=False)
    taps: np.ndarray = field(init=False, repr=False)
    coeffs: np.ndarray = field(init=False, repr=False)
    residue_taps: np.ndarray = field(init=False, repr=False)
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
        coeffs = np.ascontiguousarray(table.reshape(lag, self.hop).T)
        # odd interpolator length keeps the group delay whole
        delay = (interp.size - 1) // 2
        # conj(s[n]) with odd n negated exactly, as an alphabet distinct by bit pattern
        # so that 1+0j and 1-0j stay apart; inverse raveled, its shape varies by numpy
        conj = np.conj(wf.preamble_symbols)
        conj = np.where(np.arange(conj.size) % 2 == 1, -conj, conj)
        _, first, index = np.unique(
            conj.view(np.uint64).reshape(-1, 2), axis=0, return_index=True, return_inverse=True
        )
        center = pulse_origin_index(wf.prototype)
        recenter = np.exp(2j * np.pi * wf.normalized_frequencies() * center)
        phase = _phase_table(l)
        residue_taps = coeffs[(np.arange(self.branch_count) + delay) % self.hop].T
        for name, value in (
            # twice over, real and imaginary parts apart: a 2L-sample row
            # from any hop reads one contiguous slice of each
            ("phase", np.stack([np.tile(phase.real, 2), np.tile(phase.imag, 2)])),
            # complex once here, not cast in buffers on every analysis block
            ("taps", wf.prototype.taps.astype(np.complex128)),
            ("coeffs", coeffs),
            # residue l's taps, its phase's row of coeffs, as the (lag, 1, p,
            # 1) factor of _synthesize's product
            ("residue_taps", np.ascontiguousarray(residue_taps[:, None, :, None])),
            ("delay", delay),
            ("weights", _stable_product(recenter, wf.code.gains.real, -wf.code.gains.imag)),
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


def _stable_product(a: np.ndarray, br: np.ndarray, bi: np.ndarray) -> np.ndarray:
    """Elementwise a * (br + j bi) computed through real-part arithmetic.

    numpy picks its complex-multiply kernel per call from operand size
    and buffer alignment, and the fused-multiply-add variants round
    differently from the plain one, so `a * b` on identical values can
    give different bits depending on how a stream was chunked (numpy
    2.4 on an AVX-512 Xeon: 54 of 56 size/offset cases).  Single float64
    multiplies and adds are correctly rounded everywhere, which makes
    this form reproduce exactly.  b comes by its parts, so a conjugate
    is -bi.  Broadcasting follows numpy.
    """
    ar, ai = a.real, a.imag
    out = np.empty(np.broadcast(a, br, bi).shape, dtype=np.complex128)
    scratch = np.empty(out.shape)
    np.multiply(ar, br, out=out.real)
    np.subtract(out.real, np.multiply(ai, bi, out=scratch), out=out.real)
    np.multiply(ar, bi, out=out.imag)
    np.add(out.imag, np.multiply(ai, br, out=scratch), out=out.imag)
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


# complex elements in the zero-padded fold buffer (4 MiB), one per call;
# measured on a 2-vCPU EPYC with 32 MiB of L3, eight times this made a
# 2^18-sample narrowband call 55% slower (8.6 against 5.5 ms), and half
# of it cut the desk curve's noise windows per second by a fifth.  The
# buffer is a push's largest temporary, and glibc keeps up to twice the
# largest one it has freed in its heap: on a 2-vCPU Xeon, twice this
# size left the same desk stream 2 MB higher in peak RSS, at the same
# speed within noise
_AFB_BLOCK_ELEMENTS = 1 << 18


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
    taps = cfg.taps
    span_slots = (taps.size + l - 1) // l
    kept = state.tail.size
    size = kept + x.size
    start_hop = state.next_hop
    n_hops = (size - taps.size) // d + 1 if size >= taps.size else 0
    if n_hops <= 0:
        state.tail = np.concatenate([state.tail, x])
        return np.zeros((0, l), dtype=np.complex128)
    # tail and chunk in one buffer of whole 2L-sample rows, the pad +0.0
    rows = -(-size // (2 * l))
    data = np.empty(rows * 2 * l, dtype=np.complex128)
    data[:kept] = state.tail
    data[kept:size] = x
    data[size:] = 0.0
    # the phase table has period 2L and the tail starts on a hop: row r
    # of the buffer reads the table from the tail's offset on
    o = start_hop * d % (2 * l)
    ramp = cfg.phase[:, o : o + 2 * l]
    v = _stable_product(data.reshape(rows, 2 * l), ramp[0], ramp[1])
    # a copy: a view would pin the whole buffer, which goes before the
    # fold buffer and the output are made
    state.tail = data[n_hops * d : size].copy()
    state.next_hop = start_hop + n_hops
    del data
    # strided views come from the ndarray constructor: as_strided does the
    # same at several times its per-call cost
    windows = np.ndarray((n_hops, taps.size), v.dtype, v, strides=(d * v.itemsize, v.itemsize))
    out = np.empty((n_hops, l), dtype=np.complex128)
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
        np.fft.fft(folded, axis=1, out=out[lo:hi])
    return out


@dataclass
class PowerState:
    """Block sums of |x|^2 over analysis hops, one (L,) row per hop.

    Hops are cut into blocks of fifo_capacity on the absolute hop index.
    Row r of `block` holds the open block's row r once its hop is in,
    and until then the reverse cumulative sum of the last closed block
    (the sum of its rows r..cap-1); `fwd` is the open block's running
    sum.  `block` starts at +inf, the power before the stream.  No field
    grows with the stream.
    """

    block: np.ndarray
    fwd: np.ndarray
    next_hop: int = 0


def power_state(cfg: ChannelizerConfig) -> PowerState:
    l = cfg.num_subbands
    return PowerState(np.full((cfg.fifo_capacity, l), np.inf), np.zeros(l))


def _silent_hops(chunk, cfg: ChannelizerConfig, state: AnalysisState) -> np.ndarray:
    """Which of the hops afb_process(chunk, cfg, state) returns are silent.

    Hop i is silent when its analysis window [i*hop, i*hop + taps.size)
    fully contains a block of hop exactly-zero samples, blocks aligned
    on the absolute sample index.  The analysis tail starts on a hop, so
    a block cut by a push boundary is completed by the next push.
    """
    d = cfg.hop
    span = cfg.waveform.prototype.taps.size
    x = np.asarray(chunk)
    size = state.tail.size + x.size
    n_hops = max(0, (size - span) // d + 1)
    zero = np.empty(size, dtype=bool)
    np.equal(state.tail, 0, out=zero[: state.tail.size])
    np.equal(x, 0, out=zero[state.tail.size :])
    blocks = zero[: size // d * d].reshape(-1, d).all(axis=1)
    # hop i fully contains blocks i .. i + k - 1; seen[j] counts blocks < j
    k = span // d
    seen = np.zeros(blocks.size + 1, dtype=np.intp)
    np.cumsum(blocks, out=seen[1:])
    return seen[k : k + n_hops] > seen[:n_hops]


def _block_sums(power: np.ndarray, sums: np.ndarray, state: PowerState) -> None:
    """Window sums of hops that go on from the open block's row r.

    power and sums are (hops, L) slices: the rest of the open block,
    whole blocks, or one partial block from row 0, seen as (blocks,
    rows, L).  Row r + j of a block sums its own rows before r + j, a
    running sum that goes up the rows from state.fwd (+0.0 where a block
    starts), plus the suffix from row r + j of the block before: the
    first block's is in state.block, the others' are formed in place in
    power, going down the rows of every block that fills and on through
    the open block's rows below r in state.block.  Each pass is one
    np.add per row position across all blocks, the order of an axis-0
    cumsum.
    """
    cap = state.block.shape[0]
    l = power.shape[1]
    r = state.next_hop % cap
    n = min(power.shape[0], cap - r)
    end = r + n
    power = power.reshape(-1, n, l)
    sums = sums.reshape(power.shape)
    sums[:, 0] = state.fwd
    for j in range(1, n):
        np.add(sums[:, j - 1], power[:, j - 1], out=sums[:, j])
    if end < cap:
        np.add(sums[0, -1], power[0, -1], out=state.fwd)
    else:
        for j in range(n - 2, -1, -1):
            np.add(power[:, j + 1], power[:, j], out=power[:, j])
        sums[1:] += power[:-1]
        state.fwd[:] = 0.0
    block = state.block
    sums[0] += block[r:end]
    block[r:end] = power[-1]
    if end == cap:
        for i in range(r - 1, -1, -1):
            np.add(block[i + 1], block[i], out=block[i])
    state.next_hop += power.shape[0] * n


def track_power(
    values: np.ndarray, silent: np.ndarray, cfg: ChannelizerConfig, state: PowerState
) -> np.ndarray:
    """Per-hop band PSD from the trailing power window, strictly causal.

    values is the (hops, L) block afb_process just returned and silent
    flags its silent hops.  Hop h = b*cap + r (cap = fifo_capacity) sums
    |x|^2 over hops [h - cap, h): the suffix of block b - 1 from row r
    plus the rows of block b before r.  The hops that finish the open
    block, the whole blocks after them and a partial last block, which
    becomes the open one, each go to _block_sums: the same terms in the
    same order as one hop at a time, whatever the cuts (a running sum
    starts at +0.0, which a sum of squares or +inf does not move).
    phi = L * (sum / cap) is L times the band's mean subband power, the
    reference plane of the chi-squared threshold calibration (the
    analysis filter has unit energy), floored at _POWER_FLOOR_RATIO
    times the hop's median band so silent bands cannot blow up the
    whitening division.  A silent hop's |x|^2 row is +inf, unknown
    power (past one, the filter transient would pass for the noise
    level); a zero median gives +inf.
    The median is taken only in rows where the floor can bind: in a row
    of positive values whose least is at least _POWER_FLOOR_RATIO times
    its greatest, the floor, at most that fraction of the greatest, is
    at most every value and the median is positive; the greatest is at
    most half of DBL_MAX, so the two middle values cannot sum past it.
    """
    l = cfg.num_subbands
    cap = cfg.fifo_capacity
    hops = values.shape[0]
    # |x|^2 from contiguous squares: strided .real and .imag are slower
    sq = np.square(np.ascontiguousarray(values).view(np.float64))
    power = np.add(sq[:, ::2], sq[:, 1::2])
    power[silent] = np.inf
    sums = np.empty((hops, l))
    head = min(hops, -state.next_hop % cap)
    tail = (hops - head) % cap
    for lo, hi in ((0, head), (head, hops - tail), (hops - tail, hops)):
        if hi > lo:
            _block_sums(power[lo:hi], sums[lo:hi], state)
    # phi = L * (sum / cap), in place
    phi = sums
    phi /= cap
    phi *= l
    lo = np.minimum.reduce(phi, axis=1)
    hi = np.maximum.reduce(phi, axis=1)
    bind = (lo <= 0.0) | (lo < _POWER_FLOOR_RATIO * hi) | (hi > _HALF_DBL_MAX)
    bind &= lo < np.inf  # all +inf stays all +inf
    if bind.any():
        rows = phi[bind]
        # np.median's arithmetic for even L, without its per-call overhead
        part = np.partition(rows, (l // 2 - 1, l // 2), axis=1)
        med = (part[:, l // 2 - 1] + part[:, l // 2]) / 2
        rows = np.maximum(rows, _POWER_FLOOR_RATIO * med[:, None])
        rows[med == 0.0] = np.inf
        phi[bind] = rows
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


# float64 terms per synthesis product block (1 MiB): long enough rows of
# frames for the product's inner loop, short enough to stay in cache;
# on a 2-vCPU Xeon, 1 << 15 made the synthesis of a 2^18-sample
# narrowband pass take 2.6 ms against 1.8 ms
_SYNTH_BLOCK_ELEMENTS = 1 << 17


def _synthesize(z_new: np.ndarray, cfg: ChannelizerConfig, state: SynthesisState) -> np.ndarray:
    """Polyphase interpolation of u, y' without its ramp, at the comb's residues.

    z_new rows are L-point inverse DFTs of the gain-scaled band samples,
    one row per hop.  Returns a (p, frames) block: row l, column f holds
    u[fL + l] = (-1)^f c_l y'[fL + l] (matched-filter anchor time base;
    module text), and a frame is emitted once all p of its residues have
    their newest hop.  Output m has q = m + delay, newest hop q // hop
    and phase q % hop; it sums coeffs[phase, k] * z[newest - k, m mod L]
    for k = 0..lag_hops-1, the taps of its own phase (Harris, Dick and
    Rice, IEEE T-MTT 2003), and only kept outputs are computed (Crochiere
    and Rabiner, 1983).  With L = 2*hop, residue l keeps one phase and
    its newest hop moves two a frame, so the terms of a bounded block of
    frames are one product: cfg.residue_taps times a strided (lag, 2, p,
    frames) view of z, real and imaginary parts apart, written into a
    C-ordered buffer and summed along k by one np.add.reduce from +0.0.
    Residues whose newest hops sit at one offset share a view; there are
    at most three offsets.  Hops before the stream are zero.  The
    reduction runs over the buffer's outer axis, so every output adds
    its terms one at a time in ascending tap order, whatever the
    chunking; a buffer numpy allocated would follow the view's negative
    k stride and sum them in reverse.  A sum started at +0.0 never turns
    -0.0, so the +-0.0 terms of the 0.0 pad taps change no bit.
    """
    l = cfg.num_subbands
    d = cfg.hop
    p = cfg.branch_count
    lag = cfg.lag_hops
    delay = cfg.delay
    z = np.concatenate([state.z_tail, z_new[:, :p]], axis=0)
    base_hop = state.tail_hop
    f_start = state.next_frame
    # frame f is whole once its last residue fL + p - 1 has its newest hop
    f_stop = max(f_start, ((base_hop + z.shape[0]) * d - delay - p) // l + 1)
    # keep every hop the oldest unemitted frame reaches
    keep = (f_stop * l + delay) // d - (lag - 1)
    state.z_tail = z[keep - base_hop :].copy()
    state.tail_hop = keep
    state.next_frame = f_stop
    frames = f_stop - f_start
    y = np.empty((p, frames), dtype=np.complex128)
    if frames == 0:
        return y
    # row of z holding the newest hop of residue 0 of frame f_start
    s = 2 * f_start + delay // d - base_hop
    # residue l's newest hop is skew = (l + delay) // d - delay // d rows
    # later: residues [edges[i], edges[i + 1]) have skew i
    first = d - delay % d
    edges = [0] + [e for e in (first, first + d) if e < p] + [p]
    parts = z.view(np.float64)
    row = z.strides[0]
    step = max(1, _SYNTH_BLOCK_ELEMENTS // (2 * lag * p))
    terms = np.empty((lag, 2, p, min(step, frames)))
    # [c, l, f] is part c of y[l, f]
    sums = y.view(np.float64).reshape(p, frames, 2).transpose(2, 0, 1)
    for lo in range(0, frames, step):
        hi = min(lo + step, frames)
        block = terms[..., : hi - lo]
        for skew, (a, b) in enumerate(zip(edges, edges[1:])):
            # [k, c, l, f] = part c of z[s + skew + 2(lo + f) - k, a + l]
            offset = (s + skew + 2 * lo) * row + a * z.itemsize
            strides = (-row, 8, z.itemsize, 2 * row)
            view = np.ndarray(block[:, :, a:b].shape, parts.dtype, parts, offset, strides)
            np.multiply(cfg.residue_taps[:, :, a:b], view, out=block[:, :, a:b])
        np.add.reduce(block, axis=0, initial=0.0, out=sums[..., lo:hi])
    return y


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
    of the sign per frame it leaves, so a detector fed x[start:stop]
    gives those windows, at anchor m - start, the bytes a push of all of
    x gives.
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
    _synthesize.  With phi identically one the chain is matched filtering
    by the composite pulse, up to a unit phase per branch and a sign per
    frame; a band with phi = +inf is zeroed.  The gains w/phi are divided
    part by part and go to _stable_product as its b.
    """
    scaled = _stable_product(values, cfg.weights.real / phi, cfg.weights.imag / phi)
    # in place: a second (hops, L) block would raise the peak of a long push
    np.fft.ifft(scaled, axis=1, out=scaled)
    scaled *= cfg.num_subbands
    return scaled


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

    Branch l of window j is sum_n (-1)^n conj(s[n]) u[jL + l + nL], a
    window of residue row l; since u[fL + l] = (-1)^f c_l y'[fL + l],
    that is (-1)^j c_l times the inner product of the y' window anchored
    at jL with column l of the dense observation matrix.  Returns a
    (branch_count, windows) block; the anchor of the first returned
    column is state.next_anchor*L before the call.  (-1)^n conj(s[n])
    takes only the D values of cfg.symbol_values, so a group of branches
    first builds the (branches, D, frames) table of each row times each
    value, then gathers every window's N terms from it, contiguously, in
    ascending n: the same products summed in the same order as
    multiplying the window itself, so taking windows in blocks and
    branches in groups changes no bit.  A group's table and its gathered
    terms each stay within _MF_BLOCK_ELEMENTS, or hold one branch.
    """
    n = cfg.preamble_length
    p = cfg.branch_count
    data = np.concatenate([state.tail, block], axis=1)
    frames = data.shape[1]
    n_windows = max(0, frames - n + 1)
    out = np.empty((p, n_windows), dtype=np.complex128)
    if n_windows:
        symbols = cfg.symbol_values[:, None]
        table_size = symbols.size * frames
        step = max(1, _MF_BLOCK_ELEMENTS // n)
        fit = min(_MF_BLOCK_ELEMENTS // (n * n_windows), _MF_BLOCK_ELEMENTS // table_size)
        group = max(1, min(p, fit))
        # flat table offset of term k of window j of the group's branch b:
        # b*table_size + symbol_index[k]*frames + k + j
        gather = cfg.symbol_index * frames + np.arange(n) + np.arange(min(step, n_windows))[:, None]
        gather = gather + table_size * np.arange(group)[:, None, None]
        for b in range(0, p, group):
            rows = data[b : b + group]
            table = _stable_product(rows[:, None, :], symbols.real, symbols.imag).ravel()
            for lo in range(0, n_windows, step):
                hi = min(lo + step, n_windows)
                terms = table[lo:].take(gather[: rows.shape[0], : hi - lo])
                np.add.reduce(terms, axis=2, out=out[b : b + group, lo:hi])
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
        if not np.isfinite(x).all():
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
        # anchors ascend, so the windows before the first scored one lead
        stop = self._mf.next_anchor
        start = max(stop - branches.shape[1], self._min_anchor // cfg.num_subbands)
        anchors = np.arange(start, stop) * cfg.num_subbands
        branches = branches[:, branches.shape[1] - anchors.size :]
        # ascending branch order for any window count: numpy's sum over
        # one column goes pairwise, which rounds differently from p >= 8
        sq = np.square(branches.view(np.float64))
        energies = np.zeros(anchors.size)
        for row in np.add(sq[:, ::2], sq[:, 1::2]):
            energies += row
        if self._power is None:
            beta = self._beta
        else:
            rows = (anchors + self._beta_hop_offset) // cfg.hop - first_hop
            beta = compute_beta(phi[rows], cfg.preamble_length, cfg.num_subbands)
        stats = np.zeros(anchors.size)
        np.divide(2.0 * energies, beta, out=stats, where=beta > 0.0)
        return anchors, stats
