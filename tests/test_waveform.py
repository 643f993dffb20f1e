"""Waveform synthesis contracts.

The load-bearing claims here are the Nyquist property of the composite
pulse (with an explicit control showing the j^k stagger is what makes
it hold) and the spectral flatness of the spread pulse.  Oracles are
direct convolutions and direct summation formulas written out inline,
the bands x time phase table the IFFT pulse synthesis replaced, and the
numpy-scalar tap loop the math-module one replaced.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fbmcss
from fbmcss.numerics import ComplexSignal
from fbmcss.waveform import (
    PrototypeFilter,
    SpreadingCode,
    WaveformConfig,
    WaveformSpec,
    build_data_matrix,
    composite_pulse,
    design_prototype_filter,
    generate_preamble,
    make_preamble_symbols,
    make_spreading_code,
    pulse_origin_index,
    _srrc_taps,
    synthesize_pulse,
)

L = 64
SPAN = 8
ROLLOFF = 0.25
NYQUIST_REL = 1e-3  # h*h at nonzero symbol lags, relative to peak
SIDELOBE_REL = 0.01  # composite-pulse Nyquist bound
PSD_RIPPLE_DB = 1.0
# finite-span truncation leaves ~1e-5 of cross-band leakage in the pulse
# energy; exact orthogonality would need an infinite prototype
ENERGY_REL = 1e-4


@pytest.fixture(scope="module")
def prototype():
    return design_prototype_filter(L, SPAN, ROLLOFF)


@pytest.fixture(scope="module")
def config(prototype):
    return WaveformConfig(
        num_subbands=L,
        symbol_duration_s=1.0,
        prototype=prototype,
        code=make_spreading_code(L, sign_seed=1),
        preamble_symbols=make_preamble_symbols(4, symbol_seed=2),
    )


def numpy_scalar_srrc_taps(samples_per_symbol, span_symbols, rolloff):
    """The root-raised-cosine tap loop over numpy scalars, as an oracle.

    The same loop and branches as _srrc_taps, with np.sin, np.cos and
    np.pi on numpy float64 scalars, as the design code once did.  The
    energy is np.dot over pieces of 10,000 taps summed in order, as in
    the design code: longer dot products round with the BLAS thread count.
    """
    l = samples_per_symbol
    n = span_symbols * l + 1
    t = (np.arange(n) - (n - 1) / 2.0) / l
    a = rolloff
    taps = np.empty(n)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            taps[i] = 1.0 - a + 4.0 * a / np.pi
        elif abs(abs(ti) - 1.0 / (4.0 * a)) < 1e-12:
            taps[i] = (a / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * a))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * a))
            )
        else:
            num = np.sin(np.pi * ti * (1.0 - a)) + 4.0 * a * ti * np.cos(
                np.pi * ti * (1.0 + a)
            )
            den = np.pi * ti * (1.0 - (4.0 * a * ti) ** 2)
            taps[i] = num / den
    energy = np.dot(taps[:10_000], taps[:10_000])
    for lo in range(10_000, n, 10_000):
        energy += np.dot(taps[lo : lo + 10_000], taps[lo : lo + 10_000])
    return taps / np.sqrt(energy)


class TestPrototypeFilter:
    @pytest.mark.parametrize("l", [2, 4, 8, 16, 64, 512, 1024, 4096])
    def test_srrc_taps_match_numpy_scalar_loop_bitwise(self, l):
        # rolloffs 0.1 and 0.35 are where a vectorised sin/cos goes 1 ulp
        # off; 1.0 puts taps on the t = 1/(4a) branch
        for span in (4, 8, 12):
            for rolloff in (0.1, 0.25, 0.35, 0.5, 1.0):
                want = numpy_scalar_srrc_taps(l, span, rolloff).tobytes()
                assert _srrc_taps(l, span, rolloff).tobytes() == want

    @pytest.mark.parametrize(
        "l,digest",
        [(64, "7f6d4914e1de95a3"), (512, "359b45efffe6ed21"), (1024, "62746fe44c22ad22")],
    )
    def test_design_bytes_pinned(self, l, digest):
        taps = design_prototype_filter(l).taps
        assert hashlib.sha256(taps.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("l", [2048, 4096])
    def test_design_independent_of_blas_threads(self, l):
        # 16,385 and 32,769 taps: a whole-filter dot product, or at 4096
        # the correction's matrix-vector product, splits over BLAS threads
        code = (
            "import hashlib; from fbmcss.waveform import design_prototype_filter; "
            f"print(hashlib.sha256(design_prototype_filter({l}).taps.tobytes()).hexdigest())"
        )
        src = str(pathlib.Path(fbmcss.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[name] = threads
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1] != ""

    def test_construction_contract(self, prototype):
        assert prototype.taps.size == SPAN * L + 1
        assert np.array_equal(prototype.taps, prototype.taps[::-1])
        assert np.vdot(prototype.taps, prototype.taps) == pytest.approx(1.0, rel=1e-9)

    def test_root_nyquist(self, prototype):
        # direct convolution oracle at every nonzero multiple of L
        h = prototype.taps
        rr = np.convolve(h, h)
        center = h.size - 1
        peak = rr[center]
        lags = [q * L for q in range(1, SPAN + 1) if q * L <= h.size - 1]
        worst = max(abs(rr[center + t]) for t in lags)
        assert worst < NYQUIST_REL * peak

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            design_prototype_filter(L, SPAN, 0.0)  # needs excess bandwidth
        with pytest.raises(ValueError):
            design_prototype_filter(L, SPAN, 1.2)
        with pytest.raises(ValueError):
            design_prototype_filter(1, SPAN, ROLLOFF)
        with pytest.raises(ValueError):
            design_prototype_filter(L, 3, ROLLOFF)

    def test_deterministic(self, prototype):
        again = design_prototype_filter(L, SPAN, ROLLOFF)
        assert np.array_equal(again.taps, prototype.taps)

    def test_asymmetric_taps_rejected(self, prototype):
        bad = prototype.taps.copy()
        bad[0] += 1e-3
        with pytest.raises(ValueError):
            PrototypeFilter(bad, L, SPAN, ROLLOFF)


class TestSpreadingCode:
    def test_jk_pattern(self):
        code = SpreadingCode(np.array([1, 1, 1, 1]))
        assert np.array_equal(code.gains, np.array([1, 1j, -1, -1j]))

    def test_seed_determinism(self):
        a = make_spreading_code(L, sign_seed=7)
        b = make_spreading_code(L, sign_seed=7)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.signs, b.signs)

    def test_unit_modulus(self):
        code = make_spreading_code(L, sign_seed=3)
        assert np.all(np.abs(code.gains) == 1.0)

    def test_invalid_gains_rejected(self):
        # the gains are computed from the signs, so only bad signs remain
        with pytest.raises(ValueError):
            SpreadingCode(np.array([1, 2]))
        with pytest.raises(ValueError):
            SpreadingCode(np.zeros(0))
        with pytest.raises(ValueError):
            SpreadingCode(np.ones((2, 2)))


def phase_table_pulse(config: WaveformConfig) -> np.ndarray:
    """g[t] = h[t] sum_k gamma_k e^{j 2 pi nu_k (t - c)}, one table row per band."""
    h = config.prototype.taps
    t = np.arange(h.size) - (h.size - 1) / 2.0
    basis = np.exp(2j * np.pi * np.outer(config.normalized_frequencies(), t))
    return (config.code.gains @ basis) * h


def max_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# (L, span): an even and an odd count of samples between the pulse ends
ORACLE_SIZES = [(2, 4), (16, 8), (64, 8), (256, 8), (15, 5)]


class TestSynthesizePulse:
    @pytest.mark.parametrize("l,span", ORACLE_SIZES)
    def test_matches_phase_table(self, l, span):
        cfg = WaveformSpec(l, 1, 1.0, span_symbols=span, sign_seed=4).build()
        assert max_rel_error(synthesize_pulse(cfg).samples, phase_table_pulse(cfg)) <= 1e-12

    def test_two_band_direct_sum(self):
        # definition at tiny size: g[n] = sum_k gamma_k h[n] e^{j2pi f_k n T_s}
        # (span is a multiple of 4, so the center-referenced phases used
        # internally coincide with this form exactly)
        cfg = WaveformSpec(2, 1, 1.0, sign_seed=5).build()
        h = cfg.prototype.taps
        n = np.arange(h.size)
        t_s = cfg.symbol_duration_s / 2
        direct = np.zeros(h.size, dtype=complex)
        for k in range(2):
            f_k = (k - (2 + 1) / 2) / cfg.symbol_duration_s
            direct += cfg.code.gains[k] * h * np.exp(2j * np.pi * f_k * n * t_s)
        g = synthesize_pulse(cfg).samples
        assert np.max(np.abs(g - direct)) < 1e-12

    def test_energy(self, config):
        g = synthesize_pulse(config).samples
        h = config.prototype.taps
        expected = L * np.vdot(h, h)
        assert abs(np.vdot(g, g).real - expected) <= ENERGY_REL * expected

    def test_energy_other_spans(self):
        for span in (8, 16):
            cfg = WaveformSpec(32, 1, 1.0, span_symbols=span).build()
            g = synthesize_pulse(cfg).samples
            h = cfg.prototype.taps
            expected = 32 * np.vdot(h, h)
            assert abs(np.vdot(g, g).real - expected) <= ENERGY_REL * expected

    def test_psd_flat(self, prototype):
        # periodogram oracle: squared DFT magnitude on a fine grid,
        # central 90% of the shifted axis (edges host the wrap seam)
        for seed in (0, 1, 2):
            cfg = WaveformConfig(
                num_subbands=L,
                symbol_duration_s=1.0,
                prototype=prototype,
                code=make_spreading_code(L, sign_seed=seed),
                preamble_symbols=np.array([1.0 + 0j]),
            )
            g = synthesize_pulse(cfg).samples
            psd = np.abs(np.fft.fftshift(np.fft.fft(g, 4096))) ** 2
            margin = int(0.05 * psd.size)
            band = psd[margin:-margin]
            ripple_db = 10.0 * np.log10(band.max() / band.min())
            assert ripple_db < PSD_RIPPLE_DB

    def test_sample_rate(self, config):
        assert synthesize_pulse(config).sample_rate_hz == L / 1.0


class TestCompositePulse:
    def test_peak_is_energy(self, config):
        g = synthesize_pulse(config).samples
        energy = np.vdot(g, g).real
        rho = composite_pulse(config).samples
        center = (rho.size - 1) // 2
        assert rho[center].real == pytest.approx(energy, rel=1e-12)
        assert abs(rho[center].imag) < 1e-9 * energy

    def test_nyquist_sidelobes(self, prototype):
        for seed in (0, 1, 2, 3, 4):
            cfg = WaveformConfig(
                num_subbands=L,
                symbol_duration_s=1.0,
                prototype=prototype,
                code=make_spreading_code(L, sign_seed=seed),
                preamble_symbols=np.array([1.0 + 0j]),
            )
            rho = composite_pulse(cfg).samples
            center = (rho.size - 1) // 2
            peak = abs(rho[center])
            sidelobe = np.max(np.abs(np.delete(rho, center)))
            assert sidelobe < SIDELOBE_REL * peak

    @pytest.mark.parametrize("l,span", ORACLE_SIZES)
    def test_matches_direct_convolution(self, l, span):
        cfg = WaveformSpec(l, 1, 1.0, span_symbols=span, sign_seed=6).build()
        g = synthesize_pulse(cfg).samples
        oracle = np.convolve(g, np.conj(g[::-1]))
        assert max_rel_error(composite_pulse(cfg).samples, oracle) <= 1e-12

    def test_no_stagger_control_fails(self, prototype):
        # regression guard: with gamma_k = zeta_k (no j^k) the same
        # autocorrelation oracle must violate the Nyquist bound
        h = prototype.taps
        n = np.arange(h.size) - (h.size - 1) / 2.0
        signs = make_spreading_code(L, sign_seed=3).signs
        nu = (2.0 * np.arange(L) - L - 1.0) / (2.0 * L)
        g = (signs.astype(complex) @ np.exp(2j * np.pi * np.outer(nu, n))) * h
        rho = np.convolve(g, np.conj(g[::-1]))
        center = (rho.size - 1) // 2
        sidelobe = np.max(np.abs(np.delete(rho, center)))
        assert sidelobe > SIDELOBE_REL * abs(rho[center])


class TestGeneratePreamble:
    def test_single_symbol_equals_pulse(self, prototype):
        cfg = WaveformConfig(
            num_subbands=L,
            symbol_duration_s=1.0,
            prototype=prototype,
            code=make_spreading_code(L, sign_seed=1),
            preamble_symbols=np.array([1.0 + 0j]),
        )
        pre = generate_preamble(cfg, synthesize_pulse(cfg)).samples
        g = synthesize_pulse(cfg).samples
        assert np.array_equal(pre, g)

    def test_two_symbol_superposition(self, prototype):
        cfg = WaveformConfig(
            num_subbands=L,
            symbol_duration_s=1.0,
            prototype=prototype,
            code=make_spreading_code(L, sign_seed=1),
            preamble_symbols=np.array([1.0 + 0j, -1.0 + 0j]),
        )
        pre = generate_preamble(cfg, synthesize_pulse(cfg)).samples
        g = synthesize_pulse(cfg).samples
        direct = np.zeros(pre.size, dtype=complex)
        direct[: g.size] += g
        direct[L : L + g.size] -= g
        assert np.max(np.abs(pre - direct)) < 1e-12

    @pytest.mark.parametrize("l,span", ORACLE_SIZES)
    @pytest.mark.parametrize("n", [1, 2, 9, 33])
    def test_matches_upsampled_convolution(self, l, span, n):
        cfg = WaveformSpec(l, n, 1.0, span_symbols=span, sign_seed=1, symbol_seed=n).build()
        g = synthesize_pulse(cfg).samples
        up = np.zeros((n - 1) * l + 1, dtype=complex)
        up[::l] = cfg.preamble_symbols
        pre = generate_preamble(cfg, synthesize_pulse(cfg)).samples
        assert max_rel_error(pre, np.convolve(up, g)) <= 1e-12

    def test_any_pulse_length(self, config):
        # pulses shorter than a symbol, a whole number of symbols, and one
        # sample past that: sum_n s[n] q[t - nL] by direct superposition
        s = config.preamble_symbols
        rng = np.random.default_rng(12)
        for size in (1, L - 3, 2 * L, 2 * L + 1):
            q = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            pre = generate_preamble(config, ComplexSignal(q, config.sample_rate_hz)).samples
            direct = np.zeros((s.size - 1) * L + size, dtype=complex)
            for k, sym in enumerate(s):
                direct[k * L : k * L + size] += sym * q
            assert max_rel_error(pre, direct) <= 1e-12

    def test_pulse_at_another_rate_refused(self, config):
        g = synthesize_pulse(config)
        with pytest.raises(ValueError, match="pulse sample rate"):
            generate_preamble(config, ComplexSignal(g.samples, 2 * g.sample_rate_hz))

    def test_length_and_origin(self, config):
        pre = generate_preamble(config, synthesize_pulse(config))
        n = config.preamble_length
        assert len(pre) == (n + SPAN - 1) * L + 1
        assert pulse_origin_index(config.prototype) == SPAN * L // 2

    def test_energy_accumulates(self, prototype):
        # cross terms between shifted pulses vanish by the Nyquist property
        cfg = WaveformConfig(
            num_subbands=L,
            symbol_duration_s=1.0,
            prototype=prototype,
            code=make_spreading_code(L, sign_seed=1),
            preamble_symbols=make_preamble_symbols(32, symbol_seed=9),
        )
        pre = generate_preamble(cfg, synthesize_pulse(cfg)).samples
        g = synthesize_pulse(cfg).samples
        assert np.vdot(pre, pre).real == pytest.approx(32 * np.vdot(g, g).real, rel=0.02)


class TestBuildDataMatrix:
    def test_small_explicit(self):
        mat = build_data_matrix(np.array([1.0 + 0j, -1.0 + 0j]), num_subbands=4, p=2)
        assert mat.shape == (8, 2)
        assert np.array_equal(mat[:, 0], np.array([1, 0, 0, 0, -1, 0, 0, 0]))
        assert np.array_equal(mat[:, 1], np.array([0, 1, 0, 0, 0, -1, 0, 0]))

    def test_orthogonal_columns(self):
        s = make_preamble_symbols(8, symbol_seed=4)
        mat = build_data_matrix(s, num_subbands=16, p=5)
        gram = mat.conj().T @ mat
        assert np.allclose(gram, 8 * np.eye(5), atol=1e-12)

    def test_column_dtft_magnitude(self):
        # unitary DFT of column l tiles |DFT(s)| across the L-fold grid
        s = make_preamble_symbols(8, symbol_seed=11)
        mat = build_data_matrix(s, num_subbands=4, p=3)
        s_mag = np.abs(np.fft.fft(s, norm="ortho"))
        for col in range(3):
            col_mag = np.abs(np.fft.fft(mat[:, col], norm="ortho"))
            expected = np.tile(s_mag, 4) / np.sqrt(4)
            assert np.allclose(col_mag, expected, atol=1e-12)

    def test_p_bounds(self):
        s = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            build_data_matrix(s, num_subbands=4, p=4)
        with pytest.raises(ValueError):
            build_data_matrix(s, num_subbands=4, p=0)


class TestConfigValidation:
    def test_rate_mismatch_rejected(self, prototype):
        with pytest.raises(ValueError):
            WaveformConfig(
                num_subbands=32,  # prototype is at 64 samples/symbol
                symbol_duration_s=1.0,
                prototype=prototype,
                code=make_spreading_code(32, sign_seed=1),
                preamble_symbols=np.array([1.0 + 0j]),
            )

    def test_non_unit_symbols_rejected(self, prototype):
        # and no symbols at all, or not one vector of them
        for bad in ([0.5 + 0j], np.zeros(0), np.ones((2, 2))):
            with pytest.raises(ValueError):
                WaveformConfig(
                    num_subbands=L,
                    symbol_duration_s=1.0,
                    prototype=prototype,
                    code=make_spreading_code(L, sign_seed=1),
                    preamble_symbols=np.asarray(bad),
                )

    @pytest.mark.parametrize("duration", [0.0, -1.0, np.inf, np.nan])
    def test_symbol_duration_must_be_positive_and_finite(self, prototype, duration):
        with pytest.raises(ValueError, match="symbol_duration_s must be positive and finite"):
            WaveformConfig(
                num_subbands=L,
                symbol_duration_s=duration,
                prototype=prototype,
                code=make_spreading_code(L, sign_seed=1),
                preamble_symbols=np.array([1.0 + 0j]),
            )

    def test_subcarrier_frequencies(self, config):
        nu = config.normalized_frequencies()
        assert nu.size == L
        assert nu[0] == (0 - (L + 1) / 2) / L
        # in hertz, band k sits at (k - (L+1)/2)/T_b: spacing = symbol rate
        f = nu * config.sample_rate_hz
        assert np.allclose(np.diff(f), 1.0 / config.symbol_duration_s)
