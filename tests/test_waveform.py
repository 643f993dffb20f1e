"""Waveform synthesis contracts.

The load-bearing claims here are the Nyquist property of the composite
pulse (with an explicit control showing the j^k stagger is what makes
it hold) and the spectral flatness of the spread pulse.  Oracles are
direct convolutions and direct summation formulas written out inline.
"""

import numpy as np
import pytest

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


class TestPrototypeFilter:
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


class TestSynthesizePulse:
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
        pre = generate_preamble(cfg).samples
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
        pre = generate_preamble(cfg).samples
        g = synthesize_pulse(cfg).samples
        direct = np.zeros(pre.size, dtype=complex)
        direct[: g.size] += g
        direct[L : L + g.size] -= g
        assert np.max(np.abs(pre - direct)) < 1e-12

    def test_length_and_origin(self, config):
        pre = generate_preamble(config)
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
        pre = generate_preamble(cfg).samples
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

    def test_subcarrier_frequencies(self, config):
        nu = config.normalized_frequencies()
        assert nu.size == L
        assert nu[0] == (0 - (L + 1) / 2) / L
        # in hertz, band k sits at (k - (L+1)/2)/T_b: spacing = symbol rate
        f = nu * config.sample_rate_hz
        assert np.allclose(np.diff(f), 1.0 / config.symbol_duration_s)
