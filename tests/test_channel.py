"""Impairment-chain contracts: multipath statistics, SNR calibration, CFO,
and stream assembly."""

import math
import tracemalloc

import numpy as np
import pytest

from fbmcss.channel import (
    ChannelRealization,
    DelaySpreadProfile,
    apply_cfo,
    apply_channel,
    assemble_stream,
    effective_taps,
    generate_multipath,
    noise_psd_from_eta,
)
from fbmcss.numerics import ComplexSignal
from fbmcss.waveform import WaveformSpec, composite_pulse, generate_preamble, synthesize_pulse

L = 16
DURATION_REL = 0.15  # ensemble-mean 95% duration vs the profile target


@pytest.fixture(scope="module")
def config():
    return WaveformSpec(L, 4, L / 31.25e6, sign_seed=1, symbol_seed=2).build()


@pytest.fixture(scope="module")
def rho(config):
    return composite_pulse(config)


def energy_duration_95(channel: ChannelRealization) -> float:
    """Span (seconds) of the shortest leading prefix holding 95% energy."""
    order = np.argsort(channel.delays_s)
    powers = np.abs(channel.gains[order]) ** 2
    cum = np.cumsum(powers)
    k = int(np.searchsorted(cum, 0.95 * cum[-1]))
    return float(channel.delays_s[order][k])


class TestGenerateMultipath:
    # the 80 ns NLOS profile of the paper presets (78.4 ns measured over
    # these seeds) and a 35 ns LOS profile (34.85 ns measured)
    @pytest.mark.parametrize(
        "profile",
        [DelaySpreadProfile(False, 80.0, 27.0), DelaySpreadProfile(True, 35.0, 13.2556)],
        ids=["nlos_80ns", "los_35ns"],
    )
    def test_ensemble_duration(self, profile):
        durations = [
            energy_duration_95(generate_multipath(profile, seed))
            for seed in range(10_000, 10_200)
        ]
        mean_ns = float(np.mean(durations)) * 1e9
        target = profile.target_95pct_duration_ns
        assert abs(mean_ns - target) <= DURATION_REL * target

    def test_single_tap_degenerate(self):
        profile = DelaySpreadProfile(False, 1.0, decay_constant_ns=1e-6)
        channel = generate_multipath(profile, seed=3)
        assert channel.gains.size == 1
        assert channel.delays_s[0] == 0.0

    def test_deterministic(self):
        profile = DelaySpreadProfile(False, 47.0, 16.3333)
        a = generate_multipath(profile, seed=11)
        b = generate_multipath(profile, seed=11)
        assert np.array_equal(a.gains, b.gains)
        c = generate_multipath(profile, seed=12)
        assert not np.array_equal(a.gains, c.gains)

    def test_unit_energy(self):
        channel = generate_multipath(DelaySpreadProfile(False, 268.0, 90.9878), seed=5)
        assert np.sum(np.abs(channel.gains) ** 2) == pytest.approx(1.0, rel=1e-12)


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
        # matched filter, and read theta off the output samples; a
        # fractional delay lands on the sample apply_channel rounds it to
        t_s = 1.0 / rho.sample_rate_hz
        gains = np.array([0.8 - 0.3j, -0.5 + 0.6j])
        g = synthesize_pulse(config)
        origin = len(g) - 1  # zero lag of the matched-filter output
        for delay in (3.0, 2.56):
            channel = ChannelRealization(np.array([0.0, delay * t_s]), gains)
            received = apply_channel(g, channel)
            mf_out = np.convolve(received.samples, np.conj(g.samples[::-1]))
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

    @pytest.mark.parametrize("seed", [3, 4])
    def test_pulse_first_equals_preamble_first(self, seed):
        # the received preamble built from the filtered pulse, as the
        # harness builds it, against the whole preamble through the channel
        fs = 500e6
        wf = WaveformSpec(256, 12, 256 / fs, sign_seed=seed, symbol_seed=seed).build()
        channel = generate_multipath(DelaySpreadProfile(False, 80.0, 27.0), seed=seed)
        assert channel.gains.size > 50
        want = apply_channel(generate_preamble(wf, synthesize_pulse(wf)), channel).samples
        got = generate_preamble(wf, apply_channel(synthesize_pulse(wf), channel)).samples
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestAddAwgn:
    def test_eta_calibration_formula(self):
        assert noise_psd_from_eta(-30.0, np.array([1.0 + 0j]), 64) == pytest.approx(15.625)

    def test_noise_level(self):
        # N0 is stated at the matched-filter output plane; the stream
        # carries N0/L per sample (the filter's energy gain is L), which
        # is the variance the harness hands to assemble_stream
        n0, l = 4.0, 16
        nothing = ComplexSignal(np.zeros(0, dtype=np.complex128), 1.0)
        out = assemble_stream(nothing, 0, 1_000_000, noise_psd=n0 / l, seed=4)
        var = np.mean(np.abs(out.samples) ** 2)
        assert var == pytest.approx(n0 / l, rel=0.01)

    def test_deterministic(self, config):
        g = synthesize_pulse(config)
        a = assemble_stream(g, 64, 64, noise_psd=1.0 / 16, seed=9)
        b = assemble_stream(g, 64, 64, noise_psd=1.0 / 16, seed=9)
        assert a.samples.tobytes() == b.samples.tobytes()


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
            stream = assemble_stream(g, lead, 50, noise_psd=1e-6, seed=1)
            assert len(stream) == lead + len(g) + 50
            # the preamble sits at lead: the stream is the noise-only
            # stream of the same length and seed plus g there
            nothing = ComplexSignal(np.zeros(0, dtype=np.complex128), g.sample_rate_hz)
            noise = assemble_stream(nothing, 0, len(stream), noise_psd=1e-6, seed=1).samples
            noise[lead : lead + len(g)] += g.samples
            assert stream.samples.tobytes() == noise.tobytes()

    def test_noise_only(self):
        nothing = ComplexSignal(np.zeros(0, dtype=np.complex128), 1e6)
        stream = assemble_stream(nothing, 0, 4096, noise_psd=2.0, seed=7)
        assert len(stream) == 4096 and stream.sample_rate_hz == 1e6
        assert np.mean(np.abs(stream.samples) ** 2) == pytest.approx(2.0, rel=0.1)

    def test_preamble_section_contains_signal(self, config):
        g = synthesize_pulse(config)
        stream = assemble_stream(g, 200, 0, noise_psd=1e-12, seed=3)
        assert np.allclose(stream.samples[200 : 200 + len(g)], g.samples, atol=1e-4)

    @pytest.mark.parametrize("noise_psd", [1e-12, 1.0 / 16, 2.0])
    @pytest.mark.parametrize("n", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7])
    def test_noise_equals_scaled_draws_bitwise(self, n, noise_psd):
        # the draw buffer's edges at 2^16 samples change no byte of the
        # written-out expression, re drawn over the whole stream, then im
        nothing = ComplexSignal(np.zeros(0, dtype=np.complex128), 1e6)
        stream = assemble_stream(nothing, 0, n, noise_psd=noise_psd, seed=11).samples
        rng = np.random.default_rng(11)
        scale = math.sqrt(noise_psd / 2.0)
        expected = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert stream.tobytes() == expected.tobytes()

    def test_peak_memory_is_the_stream_and_one_draw_buffer(self):
        # 2^20 samples: the stream is 16 MiB and the draw buffer 0.5 MiB;
        # full-length draws and complex temporaries would double the peak
        nothing = ComplexSignal(np.zeros(0, dtype=np.complex128), 1e6)
        tracemalloc.start()
        try:
            assemble_stream(nothing, 0, 1 << 20, noise_psd=1.0, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17.5 * 2**20

    @pytest.mark.parametrize("noise_psd", [-1.0, float("nan"), float("inf")])
    def test_invalid_noise_psd_refused(self, noise_psd):
        nothing = ComplexSignal(np.zeros(0, dtype=np.complex128), 1e6)
        with pytest.raises(ValueError, match="noise_psd"):
            assemble_stream(nothing, 0, 64, noise_psd=noise_psd, seed=1)
