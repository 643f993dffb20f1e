"""Multicarrier spread-spectrum preamble synthesis.

One chain describes the waveform: a WaveformSpec (scalars only, the
recipe a scenario file carries) builds a WaveformConfig (prototype,
code and preamble symbols), and a channelizer.ChannelizerConfig holds
that config with its branch count for one cascade.  Every other value
(sample rate, preamble length, gains, band centers) is derived, not
stored.

The transmitted pulse is a sum of L subcarrier copies of one prototype
filter h, with unit-modulus spreading gains gamma_k = j^k * zeta_k.
Subcarrier k sits at (k - (L+1)/2) / T_b, so the L bands tile the whole
sampled bandwidth L/T_b and the pulse spectrum comes out flat.  The j^k
quadrature stagger makes the composite autocorrelation a Nyquist pulse,
which is what lets the detector treat channel taps at different lags as
(nearly) orthogonal unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import ComplexSignal

__all__ = [
    "PrototypeFilter",
    "SpreadingCode",
    "WaveformConfig",
    "WaveformSpec",
    "design_prototype_filter",
    "make_spreading_code",
    "make_preamble_symbols",
    "synthesize_pulse",
    "composite_pulse",
    "generate_preamble",
    "build_data_matrix",
    "pulse_origin_index",
]

_J_CYCLE = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


@dataclass(frozen=True)
class PrototypeFilter:
    """Real symmetric root-Nyquist lowpass at L samples per symbol."""

    taps: np.ndarray
    samples_per_symbol: int
    span_symbols: int
    rolloff: float

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        object.__setattr__(self, "taps", taps)
        if self.samples_per_symbol < 1:
            raise ValueError("samples_per_symbol must be >= 1")
        if self.span_symbols < 1:
            raise ValueError("span_symbols must be >= 1")
        if not 0.0 < self.rolloff <= 1.0:
            raise ValueError("rolloff must be in (0, 1]")
        expected = self.span_symbols * self.samples_per_symbol + 1
        if taps.size != expected:
            raise ValueError(f"expected {expected} taps, got {taps.size}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if not np.allclose(taps, taps[::-1], rtol=0.0, atol=1e-12):
            raise ValueError("taps must be symmetric")


@dataclass(frozen=True)
class SpreadingCode:
    """Per-subcarrier signs zeta_k = +/-1; the gains add the j^k stagger."""

    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int64)
        object.__setattr__(self, "signs", signs)
        if signs.ndim != 1 or signs.size == 0:
            raise ValueError("signs must be a nonempty vector")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("signs must be +/-1")

    @property
    def gains(self) -> np.ndarray:
        """gamma_k = j^k * zeta_k."""
        return _J_CYCLE[np.arange(self.signs.size) % 4] * self.signs

    def __len__(self) -> int:
        return int(self.signs.size)


@dataclass(frozen=True)
class WaveformConfig:
    """Everything needed to synthesize the preamble waveform.

    num_subbands is L; the prototype is sampled at L samples per symbol
    so subcarrier spacing equals the symbol rate 1/T_b and the sample
    rate is L/T_b.
    """

    num_subbands: int
    symbol_duration_s: float
    prototype: PrototypeFilter
    code: SpreadingCode
    preamble_symbols: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.asarray(self.preamble_symbols, dtype=np.complex128)
        object.__setattr__(self, "preamble_symbols", s)
        if self.num_subbands < 2:
            raise ValueError("num_subbands must be >= 2")
        if s.ndim != 1 or s.size == 0:
            raise ValueError("preamble_symbols must be a nonempty vector")
        if not 0.0 < self.symbol_duration_s < math.inf:
            raise ValueError("symbol_duration_s must be positive and finite")
        if self.prototype.samples_per_symbol != self.num_subbands:
            raise ValueError("prototype rate must equal num_subbands")
        if len(self.code) != self.num_subbands:
            raise ValueError("code length must equal num_subbands")
        if np.max(np.abs(np.abs(s) - 1.0)) > 1e-12:
            raise ValueError("preamble symbols must be unit modulus")

    @property
    def preamble_length(self) -> int:
        return int(self.preamble_symbols.size)

    @property
    def sample_rate_hz(self) -> float:
        return self.num_subbands / self.symbol_duration_s

    def normalized_frequencies(self) -> np.ndarray:
        """Band centers in cycles per sample: (2k - L - 1) / (2L)."""
        l = self.num_subbands
        return (2.0 * np.arange(l) - l - 1.0) / (2.0 * l)


# OpenBLAS runs np.dot on one thread up to this many elements and splits
# longer ones over its threads, whose partial sums then round with the
# thread count; a matrix-vector product with more rows splits too
_BLAS_PIECE = 10_000


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """np.dot(x, y) summed over pieces of _BLAS_PIECE, in order.

    The same bits at any BLAS thread count, and np.dot's own bits up to
    _BLAS_PIECE elements.
    """
    total = np.dot(x[:_BLAS_PIECE], y[:_BLAS_PIECE])
    for lo in range(_BLAS_PIECE, x.size, _BLAS_PIECE):
        total += np.dot(x[lo : lo + _BLAS_PIECE], y[lo : lo + _BLAS_PIECE])
    return total


def _srrc_taps(samples_per_symbol: int, span_symbols: int, rolloff: float) -> np.ndarray:
    """Square-root raised-cosine impulse response, unit energy."""
    l = samples_per_symbol
    n = span_symbols * l + 1
    t = (np.arange(n) - (n - 1) / 2.0) / l  # in symbols
    a = rolloff
    taps = np.empty(n)
    # Python floats and math: a numpy scalar call costs several times as much per tap
    for i, ti in enumerate(t.tolist()):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - a + 4.0 * a / math.pi
        elif abs(abs(ti) - 1.0 / (4.0 * a)) < 1e-12:
            taps[i] = (a / math.sqrt(2.0)) * (
                (1.0 + 2.0 / math.pi) * math.sin(math.pi / (4.0 * a))
                + (1.0 - 2.0 / math.pi) * math.cos(math.pi / (4.0 * a))
            )
        else:
            num = math.sin(math.pi * ti * (1.0 - a)) + 4.0 * a * ti * math.cos(
                math.pi * ti * (1.0 + a)
            )
            den = math.pi * ti * (1.0 - (4.0 * a * ti) ** 2)
            taps[i] = num / den
    return taps / np.sqrt(_dot(taps, taps))


_CORRECTION_BUMPS = 20
_CORRECTION_EDGE = 0.6  # highest bump frequency, in units of 1/l
_CORRECTION_WINDOW_BETA = 8.0


def _root_nyquist_correct(taps: np.ndarray, l: int, span: int) -> np.ndarray:
    """Push h*h at nonzero multiples of l down to numerical zero.

    The truncated analog root-raised cosine is only approximately
    root-Nyquist in discrete time (zero crossings off by ~1e-3 at short
    spans).  A few Gauss-Newton steps on the residual vector
    [(h*h)[q*l] for q != 0] + [(h*h)[0] - 1] land on an exactly
    root-Nyquist neighbour of the starting filter.

    The update is constrained to a small basis of windowed in-band
    cosines rather than the minimum-norm tap direction: the latter is
    spectrally white and would plant a flat floor across the stopband,
    which downstream decimation by l/r would then fold back in-band.
    Confined to below 0.6/l the repair rides on top of occupied
    spectrum and the far stopband keeps the taper's depth.  Iterates
    are re-symmetrized so the result is even to the bit.
    """
    h0 = taps.copy()
    n = h0.size
    t = np.arange(n) - (n - 1) / 2.0
    window = np.kaiser(n, _CORRECTION_WINDOW_BETA)
    freqs = np.linspace(0.0, _CORRECTION_EDGE / l, _CORRECTION_BUMPS)
    basis = np.stack([window * np.cos(2.0 * np.pi * f * t) for f in freqs], axis=1)
    basis /= np.linalg.norm(basis, axis=0)
    lag_rows = [q * l for q in range(1, span + 1) if q * l <= n - 1]
    coef = np.zeros(_CORRECTION_BUMPS)
    best, best_res = h0, np.inf
    for _ in range(40):
        # one matrix-vector product per _BLAS_PIECE rows, as _dot
        h = h0 + np.concatenate(
            [basis[lo : lo + _BLAS_PIECE] @ coef for lo in range(0, n, _BLAS_PIECE)]
        )
        h = 0.5 * (h + h[::-1])
        res = np.array(
            [_dot(h[: n - lag], h[lag:]) for lag in lag_rows] + [_dot(h, h) - 1.0]
        )
        worst = np.max(np.abs(res))
        if worst < best_res:
            best, best_res = h, worst
        if worst < 1e-15:
            break
        jac = np.zeros((len(lag_rows) + 1, n))
        for i, lag in enumerate(lag_rows):
            # d(h*h)[lag]/dh[m] = h[m-lag] + h[m+lag], zero outside the support
            jac[i, lag:] += h[: n - lag]
            jac[i, : n - lag] += h[lag:]
        jac[-1] = 2.0 * h
        delta, *_ = np.linalg.lstsq(jac @ basis, -res, rcond=None)
        coef = coef + delta
    return best


def design_prototype_filter(
    samples_per_symbol: int, span_symbols: int = 8, rolloff: float = 0.25
) -> PrototypeFilter:
    """Design the symmetric root-Nyquist prototype lowpass.

    Starts from a square-root raised-cosine at the requested rate and
    length, tapers it with a mild Kaiser window to pull the stopband
    sidelobes down (hard truncation leaves enough leakage between
    non-adjacent subbands to ripple the pulse spectrum by >1 dB), then
    applies a discrete root-Nyquist correction so the self-convolution
    vanishes at every nonzero multiple of the symbol interval (not just
    approximately, as the truncated SRRC does).

    Args:
        samples_per_symbol: oversampling factor, equals the subband
            count L in this architecture.  >= 2.
        span_symbols: filter length in symbols, >= 4.
        rolloff: excess-bandwidth fraction in (0, 1].  Zero rolloff is
            rejected: a realizable FIR root-Nyquist filter needs excess
            bandwidth.

    Returns:
        Unit-energy PrototypeFilter with span*L + 1 taps.
    """
    if samples_per_symbol < 2:
        raise ValueError("samples_per_symbol must be >= 2")
    if span_symbols < 4:
        raise ValueError("span_symbols must be >= 4")
    if not 0.0 < rolloff <= 1.0:
        raise ValueError("rolloff must be in (0, 1]")
    taps = _srrc_taps(samples_per_symbol, span_symbols, rolloff)
    taps = taps * np.kaiser(taps.size, 4.0)
    taps = taps / np.sqrt(_dot(taps, taps))
    taps = _root_nyquist_correct(taps, samples_per_symbol, span_symbols)
    return PrototypeFilter(
        taps=taps,
        samples_per_symbol=samples_per_symbol,
        span_symbols=span_symbols,
        rolloff=rolloff,
    )


def make_spreading_code(num_subbands: int, sign_seed: int = 0) -> SpreadingCode:
    """Draw the seeded +/-1 sequence zeta_k."""
    if num_subbands < 2:
        raise ValueError("num_subbands must be >= 2")
    rng = np.random.default_rng(sign_seed)
    return SpreadingCode(2 * rng.integers(0, 2, size=num_subbands) - 1)


def make_preamble_symbols(length: int, symbol_seed: int = 0) -> np.ndarray:
    """Seeded unit-modulus QPSK-like symbol sequence for the preamble."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(symbol_seed)
    quadrant = rng.integers(0, 4, size=length)
    return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quadrant))


@dataclass(frozen=True)
class WaveformSpec:
    """Recipe for a waveform: scalars only, so it travels in config files.

    build() expands it through the standard constructors; two equal
    specs always build bit-identical waveforms.
    """

    num_subbands: int
    preamble_length: int
    symbol_duration_s: float
    span_symbols: int = 8
    rolloff: float = 0.25
    sign_seed: int = 0
    symbol_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.symbol_duration_s < math.inf:
            raise ValueError("symbol_duration_s must be positive and finite")

    def build(self) -> WaveformConfig:
        return WaveformConfig(
            num_subbands=self.num_subbands,
            symbol_duration_s=self.symbol_duration_s,
            prototype=design_prototype_filter(
                self.num_subbands, self.span_symbols, self.rolloff
            ),
            code=make_spreading_code(self.num_subbands, self.sign_seed),
            preamble_symbols=make_preamble_symbols(self.preamble_length, self.symbol_seed),
        )

    @property
    def preamble_duration_s(self) -> float:
        return self.preamble_length * self.symbol_duration_s

    @property
    def sample_rate_hz(self) -> float:
        return self.num_subbands / self.symbol_duration_s


def pulse_origin_index(prototype: PrototypeFilter) -> int:
    """Array index of symbol time zero inside the synthesized pulse.

    The pulse array spans [-span/2, +span/2] symbols; its prototype peak
    (= time origin for all delay bookkeeping) sits at span*L/2.
    """
    return prototype.span_symbols * prototype.samples_per_symbol // 2


def synthesize_pulse(config: WaveformConfig) -> ComplexSignal:
    """Sum the L modulated prototype copies into the spread pulse g[n].

    g[t] = h[t] sum_k gamma_k e^{j 2 pi nu_k (t - c)}, with the phase
    reference c at the pulse center, so the quadrature relation between
    adjacent bands holds where the envelope is largest.  Since
    nu_k = k/L - (L+1)/(2L), the band sum is L * ifft(gamma) read at
    (t - c) mod L times the ramp e^{-j pi (L+1)(t - c)/L}, whose phase is
    reduced exactly in integers mod 2L: O(L log L + span*L) work and
    memory.  An odd span*L puts c between samples; that half-sample
    delay is folded into the gains.
    """
    h = config.prototype.taps
    l = config.num_subbands
    gains = config.code.gains
    d = np.arange(h.size) - (h.size - 1) // 2
    if (h.size - 1) % 2:
        gains = gains * np.exp(-1j * np.pi * config.normalized_frequencies())
    band_sum = l * np.fft.ifft(gains)
    ramp = np.exp(-1j * np.pi / l * ((l + 1) * d % (2 * l)))
    return ComplexSignal(band_sum[d % l] * ramp * h, config.sample_rate_hz)


def composite_pulse(config: WaveformConfig) -> ComplexSignal:
    """Autocorrelation rho = g conv g*(-t); lag 0 at array center.

    rho sampled at T_s has length 2*span*L + 1 with rho[center] equal to
    the pulse energy; the Nyquist claim is that all other lags within
    the span stay below 1% of that peak when the j^k stagger is present.
    Computed as the inverse FFT of |G|^2 at a power-of-two length that
    leaves no lag wrapped.
    """
    g = synthesize_pulse(config).samples
    nfft = 1 << (2 * g.size - 2).bit_length()
    spec = np.fft.fft(g, nfft)
    # r[k] = sum_m g[m + k] g*[m]; negative lags sit at the end
    r = np.fft.ifft(spec.real**2 + spec.imag**2)
    rho = np.concatenate([r[nfft - g.size + 1 :], r[: g.size]])
    return ComplexSignal(rho, config.sample_rate_hz)


def _symbol_train(symbols: np.ndarray, q: np.ndarray, l: int) -> np.ndarray:
    """sum_n s[n] q[t - n*l], (N - 1)*l + len(q) samples, as one block product.

    The polyphase form (Vaidyanathan, Multirate Systems and Filter Banks,
    1993): cut q into R = ceil(len(q)/l) rows of l samples; output row m
    (samples m*l .. m*l + l - 1) is sum_r s[m - r] q_r, so the whole
    train is the (N + R - 1) x R Toeplitz matrix of the symbols times
    the R x l block of q.
    """
    rows = -(-q.size // l)
    block = np.zeros((rows, l), dtype=np.complex128)
    block.ravel()[: q.size] = q
    pad = np.zeros(rows - 1, dtype=np.complex128)
    # row m of the windows, reversed, is s[m], s[m - 1], ..., s[m - R + 1]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([pad, symbols, pad]), rows)
    return (windows[:, ::-1] @ block).ravel()[: (symbols.size - 1) * l + q.size]


def generate_preamble(config: WaveformConfig, pulse: ComplexSignal) -> ComplexSignal:
    """Superpose symbol-shifted pulses: sum_n s[n] q(t - n T_b).

    q is `pulse`: the spread pulse g from synthesize_pulse gives the
    transmitted preamble.  Passing g through a channel first,
    apply_channel(g, c), gives the received preamble: the channel is
    linear and time invariant, so filtering the short pulse equals
    filtering the whole preamble.  Output length is (N - 1)*L + len(q)
    samples at rate L/T_b, which is (N + span - 1)*L + 1 for g.  Sample
    index span*L/2 (see pulse_origin_index) is the peak of the first
    pulse and serves as the time origin for delay bookkeeping.
    """
    if pulse.sample_rate_hz != config.sample_rate_hz:
        raise ValueError("pulse sample rate must equal the waveform's")
    train = _symbol_train(config.preamble_symbols, pulse.samples, config.num_subbands)
    return ComplexSignal(train, config.sample_rate_hz)


def build_data_matrix(symbols, num_subbands: int, p: int) -> np.ndarray:
    """Dense observation matrix: column l is s upsampled by L, delayed l.

    Kronecker structure s (x) [I_p; 0] gives an NL x p matrix whose
    columns are exactly orthogonal with squared norm N for unit-modulus
    symbols, 1 <= p < L.  Oracle use only; the streaming path never
    materializes it.
    """
    s = np.asarray(symbols, dtype=np.complex128)
    if s.size == 0:
        raise ValueError("symbols must be nonempty")
    if np.max(np.abs(np.abs(s) - 1.0)) > 1e-12:
        raise ValueError("symbols must be unit modulus")
    if not 1 <= p < num_subbands:
        raise ValueError("p must satisfy 1 <= p < num_subbands")
    l = num_subbands
    pad = np.zeros((l, p), dtype=np.complex128)
    pad[:p, :p] = np.eye(p)
    return np.kron(s.reshape(-1, 1), pad)
