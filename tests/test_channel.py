"""Impairment-chain contracts: multipath statistics, SNR calibration,
interference shaping, CFO, and stream assembly."""

import numpy as np
import pytest

from fbmcss.channel import (
    ChannelRealization,
    DelaySpreadProfile,
    InterferenceConfig,
    add_interference,
    apply_cfo,
    apply_channel,
    assemble_stream,
    effective_taps,
    energy_duration_95,
    generate_multipath,
    noise_psd_from_eta,
    profile_preset,
)
from fbmcss.numerics import ComplexSignal
from fbmcss.waveform import composite_pulse, make_waveform_config, synthesize_pulse

L = 16
DURATION_REL = 0.15  # ensemble-mean 95% duration vs the profile target


@pytest.fixture(scope="module")
def config():
    return make_waveform_config(L, 4, L / 31.25e6, sign_seed=1, symbol_seed=2)


@pytest.fixture(scope="module")
def rho(config):
    return composite_pulse(config)


class TestGenerateMultipath:
    @pytest.mark.parametrize(
        "environment,los",
        [("office", False), ("industrial", False), ("office", True), ("outdoor", True)],
    )
    def test_ensemble_duration(self, environment, los):
        profile = profile_preset(environment, los)
        durations = [
            energy_duration_95(generate_multipath(profile, seed))
            for seed in range(10_000, 10_200)
        ]
        mean_ns = float(np.mean(durations)) * 1e9
        target = profile.target_95pct_duration_ns
        assert abs(mean_ns - target) <= DURATION_REL * target

    def test_single_tap_degenerate(self):
        profile = DelaySpreadProfile("custom", False, 1.0, decay_constant_ns=1e-6)
        channel = generate_multipath(profile, seed=3)
        assert channel.gains.size == 1
        assert channel.delays_s[0] == 0.0

    def test_deterministic(self):
        profile = profile_preset("office", False)
        a = generate_multipath(profile, seed=11)
        b = generate_multipath(profile, seed=11)
        assert np.array_equal(a.gains, b.gains)
        c = generate_multipath(profile, seed=12)
        assert not np.array_equal(a.gains, c.gains)

    def test_unit_energy(self):
        channel = generate_multipath(profile_preset("outdoor", False), seed=5)
        assert channel.energy == pytest.approx(1.0, rel=1e-12)


class TestEffectiveTaps:
    def test_single_tap_is_rho(self, config, rho):
        t_s = 1.0 / rho.sample_rate_hz
        channel = ChannelRealization(np.array([0.0]), np.array([1.0 + 0j]))
        taps = effective_taps(channel, rho, p=4, sample_interval_s=t_s)
        center = (len(rho) - 1) // 2
        assert taps.shape == (4,) and taps.dtype == np.complex128
        assert np.allclose(taps, rho.samples[center : center + 4], atol=1e-12)

    def test_shift_and_scale(self, config, rho):
        t_s = 1.0 / rho.sample_rate_hz
        channel = ChannelRealization(np.array([3.0 * t_s]), np.array([2.0j]))
        taps = effective_taps(channel, rho, p=6, sample_interval_s=t_s)
        center = (len(rho) - 1) // 2
        expected = 2.0j * rho.samples[center - 3 : center + 3]
        assert np.allclose(taps, expected, atol=1e-12)

    def test_two_tap_against_convolution_oracle(self, config, rho):
        # brute force: run the pulse through the channel, then the
        # matched filter, and read theta off the output samples
        t_s = 1.0 / rho.sample_rate_hz
        gains = np.array([0.8 - 0.3j, -0.5 + 0.6j])
        channel = ChannelRealization(np.array([0.0, 3.0 * t_s]), gains)
        g = synthesize_pulse(config)
        received = apply_channel(g, channel)
        mf_out = np.convolve(received.samples, np.conj(g.samples[::-1]))
        origin = len(g) - 1  # zero lag of the matched-filter output
        taps = effective_taps(channel, rho, p=8, sample_interval_s=t_s)
        assert np.max(np.abs(taps - mf_out[origin : origin + 8])) < 1e-6


class TestApplyChannel:
    def test_identity(self, config):
        g = synthesize_pulse(config)
        channel = ChannelRealization(np.array([0.0]), np.array([1.0 + 0j]))
        out = apply_channel(g, channel)
        assert np.array_equal(out.samples, g.samples)

    def test_pure_delay(self, config):
        g = synthesize_pulse(config)
        delay = 7.3 / g.sample_rate_hz  # snaps to 7 samples
        channel = ChannelRealization(np.array([delay]), np.array([1.0 + 0j]))
        out = apply_channel(g, channel)
        assert np.allclose(out.samples[7:], g.samples)
        assert np.all(out.samples[:7] == 0)

    def test_matches_dense_fir(self, config):
        rng = np.random.default_rng(8)
        g = synthesize_pulse(config)
        fs = g.sample_rate_hz
        delays = np.sort(rng.integers(0, 40, size=8)) / fs
        gains = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        channel = ChannelRealization(delays, gains)
        out = apply_channel(g, channel)
        fir = np.zeros(int(round(delays[-1] * fs)) + 1, dtype=complex)
        for d, c in zip(delays, gains):
            fir[int(round(d * fs))] += c
        oracle = np.convolve(g.samples, fir)
        assert np.max(np.abs(out.samples - oracle)) < 1e-9


class TestAddAwgn:
    def test_eta_calibration_formula(self):
        assert noise_psd_from_eta(-30.0, np.array([1.0 + 0j]), 64) == pytest.approx(15.625)

    def test_noise_level(self):
        # N0 is stated at the matched-filter output plane; the stream
        # carries N0/L per sample (the filter's energy gain is L), which
        # is the variance the harness hands to assemble_stream
        n0, l = 4.0, 16
        out, _ = assemble_stream(
            None, 0, 1_000_000, noise_psd=n0 / l, seed=4, sample_rate_hz=1.0
        )
        var = np.mean(np.abs(out.samples) ** 2)
        assert var == pytest.approx(n0 / l, rel=0.01)

    def test_deterministic(self, config):
        g = synthesize_pulse(config)
        a, _ = assemble_stream(g, 64, 64, noise_psd=1.0 / 16, seed=9)
        b, _ = assemble_stream(g, 64, 64, noise_psd=1.0 / 16, seed=9)
        assert a.samples.tobytes() == b.samples.tobytes()


class TestAddInterference:
    def test_count_zero_identity(self):
        sig = ComplexSignal(np.ones(128, dtype=complex), 1e6)
        cfg = InterferenceConfig(0, 1.0, (5.0, 40.0), (-4e5, 4e5))
        out = add_interference(sig, cfg, noise_psd=1.0, seed=0)
        assert np.array_equal(out.samples, sig.samples)

    def test_strong_interferer_psd_bump(self):
        fs = 500e6
        rng = np.random.default_rng(21)
        n = 1 << 16
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        sig = ComplexSignal(noise, fs)
        cfg = InterferenceConfig(1, 20e6, (40.0, 40.0), (-200e6, 200e6))
        out = add_interference(sig, cfg, noise_psd=1.0, seed=22)
        # Bartlett periodogram, 256-bin segments
        seg = 256
        frames = out.samples[: n // seg * seg].reshape(-1, seg)
        psd = np.mean(np.abs(np.fft.fft(frames, axis=1)) ** 2, axis=0) / seg
        floor = np.median(psd)
        peak_bin = int(np.argmax(psd))
        half = int(round(10e6 / fs * seg))  # half the 20 MHz slice
        idx = (peak_bin + np.arange(-half, half + 1)) % seg
        bump_db = 10 * np.log10(np.mean(psd[idx]) / floor)
        assert bump_db >= 35.0

    def test_bandwidth_validation(self):
        sig = ComplexSignal(np.ones(128, dtype=complex), 1e6)
        cfg = InterferenceConfig(1, 2e6, (5.0, 40.0), (-4e5, 4e5))
        with pytest.raises(ValueError):
            add_interference(sig, cfg, noise_psd=1.0, seed=0)


class TestApplyCfo:
    def test_zero_identity(self):
        sig = ComplexSignal(np.ones(32, dtype=complex), 1e6)
        assert np.array_equal(apply_cfo(sig, 0.0).samples, sig.samples)

    def test_inverse(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        sig = ComplexSignal(x, 1e6)
        back = apply_cfo(apply_cfo(sig, 12345.0), -12345.0)
        assert np.max(np.abs(back.samples - x)) < 1e-12

    def test_quarter_rate_tone(self):
        fs = 1e6
        sig = ComplexSignal(np.ones(1024, dtype=complex), fs)
        out = apply_cfo(sig, fs / 4.0)
        spectrum = np.abs(np.fft.fft(out.samples))
        assert int(np.argmax(spectrum)) == 256


class TestAssembleStream:
    def test_start_index(self, config):
        g = synthesize_pulse(config)
        for lead in (0, 1000):
            stream, start = assemble_stream(g, lead, 50, noise_psd=1e-6, seed=1)
            assert start == lead
            assert len(stream) == lead + len(g) + 50

    def test_noise_only(self):
        stream, start = assemble_stream(
            None, 0, 4096, noise_psd=2.0, seed=7, sample_rate_hz=1e6
        )
        assert start == 0
        assert np.mean(np.abs(stream.samples) ** 2) == pytest.approx(2.0, rel=0.1)

    def test_preamble_section_contains_signal(self, config):
        g = synthesize_pulse(config)
        stream, start = assemble_stream(g, 200, 0, noise_psd=1e-12, seed=3)
        assert np.allclose(stream.samples[200 : 200 + len(g)], g.samples, atol=1e-4)
