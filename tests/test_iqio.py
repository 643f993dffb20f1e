"""File round-trip checks for the little-endian complex64 IQ format and
the writer's refusal of rates and samples the format cannot hold."""

import os
import re

import numpy as np
import pytest

from fbmcss.iqio import iq_read, iq_write, sidecar_path


class TestRoundTrip:
    def test_float32_exact_values_survive(self, tmp_path):
        # values chosen representable in float32 so the trip is lossless
        samples = np.array([1.5 - 0.25j, -3.0 + 8.0j, 0.0 + 0.0625j, 2.0 + 0.0j])
        path = tmp_path / "a.iq"
        iq_write(samples, path, 500e6)
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
        # a capture whose metadata was lost stays readable
        path = tmp_path / "d.iq"
        iq_write(np.ones(3, dtype=np.complex128), path, 5e8)
        os.remove(sidecar_path(path))
        back = iq_read(path)
        assert back.sample_rate_hz == 1.0

    def test_signed_zeros_survive(self, tmp_path):
        # every (re, im) sign pair of zero, each bit pattern kept
        pairs = [(-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0)]
        samples = np.array([complex(re, im) for re, im in pairs])
        path = tmp_path / "z.iq"
        iq_write(samples, path, 1.0)
        back = iq_read(path).samples
        assert back.dtype == np.complex128
        assert back.view(np.float64).tobytes() == samples.view(np.float64).tobytes()

    def test_payload_is_little_endian_complex64(self, tmp_path):
        samples = np.array([1.5 - 0.25j, complex(-0.0, 3.0)])
        path = tmp_path / "l.iq"
        iq_write(samples, path, 1.0)
        raw = path.read_bytes()
        assert raw[16:] == np.array([1.5, -0.25, -0.0, 3.0], dtype="<f4").tobytes()


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
        iq_write(np.ones(8, dtype=complex), path, 1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError):
            iq_read(path)

    def test_rejects_count_no_file_holds_before_allocating(self, tmp_path):
        # 2^60 samples would be 8 EiB: refused from the file size, not
        # by a failed allocation
        path = tmp_path / "huge.iq"
        iq_write(np.ones(8, dtype=complex), path, 1.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (1 << 60).to_bytes(8, "little") + raw[16:])
        with pytest.raises(ValueError, match="payload holds 64 bytes, header promised"):
            iq_read(path)

    def test_rejects_matrix_input(self, tmp_path):
        with pytest.raises(ValueError):
            iq_write(np.ones((2, 2), dtype=complex), tmp_path / "m.iq", 1.0)

    @pytest.mark.parametrize("rate", [0.0, np.nan, -5.0, np.inf], ids=["zero", "nan", "negative", "inf"])
    def test_refuses_rate_before_writing(self, tmp_path, rate):
        path = tmp_path / "r.iq"
        with pytest.raises(ValueError, match="sample_rate_hz"):
            iq_write(np.ones(2, dtype=complex), path, rate)
        assert not path.exists()
        assert not os.path.exists(sidecar_path(path))

    @pytest.mark.parametrize(
        "value", [complex(np.nan, 0.0), complex(0.0, -np.inf), 1e39 + 0j], ids=["nan", "inf", "1e39"]
    )
    def test_refuses_sample_not_finite_in_float32_before_writing(self, tmp_path, value):
        # 1e39 is finite in double precision but overflows float32
        samples = np.ones(4, dtype=complex)
        samples[2] = value
        path = tmp_path / "v.iq"
        with pytest.raises(ValueError, match="finite in float32"):
            iq_write(samples, path, 1.0)
        assert not path.exists()
        assert not os.path.exists(sidecar_path(path))


class TestSidecar:
    @pytest.mark.parametrize("rate", [1.0, 5e8, 1.28e9, 31.25e6 / 3])
    def test_written_sidecar_round_trips(self, tmp_path, rate):
        path = tmp_path / "s.iq"
        iq_write(np.ones(2, dtype=complex), path, sample_rate_hz=rate)
        assert iq_read(path).sample_rate_hz == rate

    @pytest.mark.parametrize(
        "content",
        [
            b"sample_rate_hz: 5e8\n",
            b"samplerate = 5e8\n",
            b"sample_rate_hz = 5e8\nsample_rate_hz = 5e8\n",
            b"sample_rate_hz = fast\n",
            b"sample_rate_hz = nan\n",
            b"sample_rate_hz = inf\n",
            b"sample_rate_hz = 0\n",
            b"sample_rate_hz = -5\n",
            b"\xff\xfe\x00",
        ],
        ids=[
            "colon",
            "misspelt_key",
            "duplicate",
            "non_numeric",
            "nan",
            "inf",
            "zero",
            "negative",
            "not_utf8",
        ],
    )
    def test_anything_but_one_rate_line_refused(self, tmp_path, content):
        path = tmp_path / "s.iq"
        iq_write(np.ones(2, dtype=complex), path, 1.0)
        with open(sidecar_path(path), "wb") as fh:
            fh.write(content)
        with pytest.raises(ValueError, match=re.escape(sidecar_path(path))):
            iq_read(path)
