"""Monte Carlo harness contracts on a tiny desk-like scenario: curve bytes
that do not depend on worker count or resuming, refusal of foreign point
state, scenario text round trips, the CFO search and the stream lead
against the tracked warm-up."""

import dataclasses
import os

import numpy as np
import pytest

from fbmcss import harness
from fbmcss.channel import apply_cfo, assemble_stream
from fbmcss.channelizer import CascadeDetector, tracked_first_anchor
from fbmcss.detector import DetectionConfig
from fbmcss.numerics import ComplexSignal

L = 16
FS = 500e6
N0 = 2.0


def tiny(**changes) -> harness.Scenario:
    """desk at L=16, N=8, p=2: two points of 6 trials and 64 noise windows."""
    sc = harness.Scenario(
        name="tiny",
        waveform=harness.WaveformSpec(
            num_subbands=L,
            preamble_length=8,
            symbol_duration_s=L / FS,
            sign_seed=2,
            symbol_seed=7,
        ),
        channel_profile=None,
        interference=None,
        snr_sweep_db=(-14.0, -10.0),
        detector=DetectionConfig(p=2, p_fa=1e-2),
        trials_per_point=6,
        root_seed=20260814,
        noise_windows=64,
    )
    return dataclasses.replace(sc, **changes)


def curve_bytes(scenario, out_dir, workers=0) -> bytes:
    harness.run_curve(scenario, str(out_dir), workers=workers)
    with open(harness.curve_csv_path(scenario, str(out_dir)), "rb") as fh:
        return fh.read()


class TestRunCurve:
    def test_csv_bytes_independent_of_workers_and_resume(self, tmp_path):
        sc = tiny()
        serial = curve_bytes(sc, tmp_path / "serial")
        assert serial.count(b"\n") == 1 + len(sc.snr_sweep_db)
        assert curve_bytes(sc, tmp_path / "pooled", workers=2) == serial
        state = tmp_path / "serial" / "tiny.point001.txt"
        os.remove(state)
        assert curve_bytes(sc, tmp_path / "serial") == serial
        assert state.exists()

    def test_foreign_state_file_refused(self, tmp_path):
        curve_bytes(tiny(), tmp_path)
        with pytest.raises(ValueError, match="different scenario"):
            harness.run_curve(tiny(root_seed=1), str(tmp_path))


    def test_state_file_for_another_eta_refused(self, tmp_path):
        curve_bytes(tiny(), tmp_path)
        # swap the two points' state files: same fingerprint, wrong slots
        first = tmp_path / "tiny.point000.txt"
        second = tmp_path / "tiny.point001.txt"
        text = first.read_text()
        first.write_text(second.read_text())
        second.write_text(text)
        with pytest.raises(ValueError, match="is for eta -10.0 dB, expected -14.0 dB"):
            harness.run_curve(tiny(), str(tmp_path))


class TestScenarioText:
    @pytest.mark.parametrize("make", [tiny, lambda: harness.preset("desk")], ids=["tiny", "desk"])
    def test_round_trip(self, make):
        sc = make()
        back = harness.scenario_from_text(harness.scenario_to_text(sc))
        assert back == sc
        assert harness._fingerprint(back) == harness._fingerprint(sc)


class TestCfoSearch:
    def test_grid_search_recovers_offset_and_start(self):
        df = 8e6
        sc = tiny(cfo_enabled=True, cfo_range_hz=df, cfo_grid_points=3)
        bundle = harness._bundle(sc)
        tx = bundle.tx
        sig = ComplexSignal(tx.samples * 0.4, tx.sample_rate_hz)
        stream, k0 = assemble_stream(sig, 896, 900, N0 / L, seed=13)
        shifted = apply_cfo(stream, df)
        anchors, best = harness._stats_over_grid(shifted, bundle, sc, N0)
        assert anchors[int(np.argmax(best))] == k0
        # at the packet the grid maximum is the correctly derotated score
        det = CascadeDetector(bundle.cfg, power_override=np.full(L, N0))
        true_anchors, true_stats = det.push(apply_cfo(shifted, -df).samples)
        at_packet = best[anchors == k0]
        assert at_packet.size == 1
        assert at_packet[0] == true_stats[true_anchors == k0][0]


class TestBundle:
    def test_lead_starts_past_tracked_warmup(self):
        bundle = harness._bundle(tiny())
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8000) + 1j * rng.standard_normal(8000)
        anchors, _ = CascadeDetector(bundle.cfg).push(x)
        assert anchors[0] == tracked_first_anchor(bundle.cfg)
        assert bundle.lead_symbols_lo * L > anchors[0]
