"""File round-trip checks for the interleaved float32 IQ format."""

import re

import numpy as np
import pytest

from fbmcss.iqio import iq_read, iq_write, sidecar_path
from fbmcss.numerics import ComplexSignal


class TestRoundTrip:
    def test_float32_exact_values_survive(self, tmp_path):
        # values chosen representable in float32 so the trip is lossless
        samples = np.array([1.5 - 0.25j, -3.0 + 8.0j, 0.0 + 0.0625j, 2.0 + 0.0j])
        path = tmp_path / "a.iq"
        iq_write(ComplexSignal(samples, 500e6), path)
        back = iq_read(path)
        assert np.array_equal(back.samples, samples)
        assert back.sample_rate_hz == 500e6

    def test_random_values_match_at_float32_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        path = tmp_path / "b.iq"
        iq_write(samples, path, sample_rate_hz=2.0)
        back = iq_read(path)
        expect = samples.real.astype(np.float32).astype(np.float64) + 1j * (
            samples.imag.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(back.samples, expect)

    def test_empty_signal(self, tmp_path):
        path = tmp_path / "c.iq"
        iq_write(np.zeros(0, dtype=np.complex128), path, sample_rate_hz=1.0)
        back = iq_read(path)
        assert len(back) == 0

    def test_rate_defaults_to_one_without_sidecar(self, tmp_path):
        path = tmp_path / "d.iq"
        iq_write(np.ones(3, dtype=np.complex128), path)
        back = iq_read(path)
        assert back.sample_rate_hz == 1.0

    def test_rewrite_without_rate_drops_old_sidecar(self, tmp_path):
        path = tmp_path / "f.iq"
        iq_write(np.ones(3, dtype=complex), path, sample_rate_hz=5e8)
        iq_write(np.ones(3, dtype=complex), path)
        assert iq_read(path).sample_rate_hz == 1.0

    def test_explicit_rate_beats_signal_tag(self, tmp_path):
        path = tmp_path / "e.iq"
        iq_write(ComplexSignal(np.ones(2, dtype=complex), 10.0), path, sample_rate_hz=7.0)
        assert iq_read(path).sample_rate_hz == 7.0


class TestErrors:
    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.iq"
        path.write_bytes(b"NOTMYFMT" + b"\x00" * 8)
        with pytest.raises(ValueError):
            iq_read(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "short.iq"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError):
            iq_read(path)

    def test_rejects_short_payload(self, tmp_path):
        path = tmp_path / "cut.iq"
        iq_write(np.ones(8, dtype=complex), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError):
            iq_read(path)

    def test_rejects_matrix_input(self, tmp_path):
        with pytest.raises(ValueError):
            iq_write(np.ones((2, 2), dtype=complex), tmp_path / "m.iq")


class TestSidecar:
    @pytest.mark.parametrize("rate", [1.0, 5e8, 1.28e9, 31.25e6 / 3])
    def test_written_sidecar_round_trips(self, tmp_path, rate):
        path = tmp_path / "s.iq"
        iq_write(np.ones(2, dtype=complex), path, sample_rate_hz=rate)
        assert iq_read(path).sample_rate_hz == rate

    @pytest.mark.parametrize(
        "text",
        [
            "sample_rate_hz: 5e8\n",
            "samplerate = 5e8\n",
            "sample_rate_hz = 5e8\nsample_rate_hz = 5e8\n",
            "sample_rate_hz = fast\n",
        ],
        ids=["colon", "misspelt_key", "duplicate", "non_numeric"],
    )
    def test_anything_but_one_rate_line_refused(self, tmp_path, text):
        path = tmp_path / "s.iq"
        iq_write(np.ones(2, dtype=complex), path)
        with open(sidecar_path(path), "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=re.escape(sidecar_path(path))):
            iq_read(path)
