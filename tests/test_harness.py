"""Monte Carlo harness contracts on a tiny desk-like scenario: curve bytes
that do not depend on worker count or resuming, refusal of foreign point
state, theory inside the Wilson interval, the scenario text format, the
values a scenario computes (CFO grid, threshold), the noise window count,
the single-radio receiver as the one-radio case of the radio loop, the
windows a signal trial reads (those within p + L of the packet start, in
both whitening modes; a calibrated trial pushes only the input they depend
on), the CFO search, the stream lead against the tracked warm-up, and the presets'
placed SNR sweeps and fingerprints."""

import dataclasses
import functools
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from fbmcss import detector, harness
from fbmcss.channel import (
    DelaySpreadProfile,
    InterferenceConfig,
    apply_cfo,
    assemble_stream,
)
from fbmcss.channelizer import CascadeDetector, input_span, tracked_first_anchor
from fbmcss.detector import DetectionConfig, cfo_grid, threshold
from fbmcss.numerics import ComplexSignal
from fbmcss.waveform import design_prototype_filter

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


def every_section() -> harness.Scenario:
    """tiny with every optional section set: a scenario file's full key set."""
    return tiny(
        channel_profile=DelaySpreadProfile(
            los=True,
            target_95pct_duration_ns=20.0,
            decay_constant_ns=7.5,
        ),
        interference=InterferenceConfig(
            count=2,
            bandwidth_hz=5e6,
            psd_above_noise_db_range=(3.0, 9.5),
            band_edges_hz=(-2e8, 2e8),
        ),
        detector=DetectionConfig(p=2, p_fa=1e-3, radios=2),
        cfo_range_hz=8e6,
        known_noise=False,
    )


def curve_bytes(scenario, out_dir, workers=0) -> bytes:
    harness.run_curve(scenario, str(out_dir), workers=workers)
    with open(harness.curve_csv_path(scenario, str(out_dir)), "rb") as fh:
        return fh.read()


class TestRunCurve:
    @pytest.mark.parametrize("make", [tiny, every_section], ids=["tiny", "every_section"])
    def test_csv_bytes_independent_of_workers_and_resume(self, tmp_path, make):
        sc = make()
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


    def test_refused_resume_leaves_directory_unchanged(self, tmp_path):
        curve_bytes(tiny(), tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="different scenario"):
            harness.run_curve(tiny(root_seed=1), str(tmp_path))
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "waveform_changes, p, message",
        [
            ({"num_subbands": 0}, 2, "samples_per_symbol"),
            ({"num_subbands": 15}, 2, "num_subbands must be even"),
            ({"preamble_length": 0}, 2, "length must be >= 1"),
            ({}, L, "branch_count"),
        ],
        ids=["L_zero", "L_odd", "N_zero", "p_not_below_L"],
    )
    def test_scenario_the_cascade_cannot_run_writes_nothing(
        self, tmp_path, waveform_changes, p, message
    ):
        # each constructs fine and fails only in the bundle
        sc = tiny(
            waveform=dataclasses.replace(tiny().waveform, **waveform_changes),
            detector=DetectionConfig(p=p, p_fa=1e-2),
        )
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            harness.run_curve(sc, str(out_dir))
        assert not out_dir.exists()

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

    def test_corrupt_state_file_refused(self, tmp_path):
        curve_bytes(tiny(), tmp_path)
        state = tmp_path / "tiny.point000.txt"
        state.write_text(state.read_text().replace("trials = 6", "trials = six"))
        with pytest.raises(ValueError, match="corrupt point state in .*trials: expected int"):
            harness.run_curve(tiny(), str(tmp_path))

    def test_false_alarm_windows_reach_the_budget_by_whole_streams(self):
        sc = tiny()
        eta = sc.snr_sweep_db[0]
        _, per_stream = harness._noise_trial(sc, eta, 0)
        crossings, windows = harness.measure_false_alarm(sc, eta)
        assert 0 <= crossings <= windows
        assert sc.noise_windows <= windows < sc.noise_windows + per_stream

    def test_scenario_file_loads_back(self, tmp_path):
        sc = tiny()
        curve_bytes(sc, tmp_path)
        assert harness.load_scenario(str(tmp_path / "tiny.scenario.txt")) == sc
        missing = str(tmp_path / "absent.scenario.txt")
        with pytest.raises(OSError, match=re.escape(missing)):
            harness.load_scenario(missing)

    def test_theory_inside_wilson_interval(self, tmp_path):
        for point in harness.run_curve(tiny(), str(tmp_path)):
            assert point.wilson_low <= point.p_d_theory <= point.wilson_high


class TestWilsonInterval:
    def test_all_or_no_successes_keep_the_estimate_inside(self):
        # computed, the bound at 0 of 6 came out 2.8e-17, so a point with
        # no detections made run_point raise
        for n in range(1, 200):
            assert harness.wilson_interval(0, n)[0] == 0.0
            assert harness.wilson_interval(n, n)[1] == 1.0
        low, high = harness.wilson_interval(3, 6)
        assert 0.0 < low < 0.5 < high < 1.0


class TestScenarioText:
    @pytest.mark.parametrize(
        "make",
        [tiny, lambda: harness.preset("desk"), every_section],
        ids=["tiny", "desk", "every_section"],
    )
    def test_round_trip(self, make):
        sc = make()
        back = harness.scenario_from_text(harness.scenario_to_text(sc))
        assert back == sc
        assert harness._fingerprint(back) == harness._fingerprint(sc)

    def test_keys_are_field_paths(self):
        text = harness.scenario_to_text(every_section())
        keys = [line.partition(" = ")[0] for line in text.splitlines()]
        assert keys[:3] == ["name", "waveform.num_subbands", "waveform.preamble_length"]
        assert "channel_profile.los = true" in text
        assert "interference.psd_above_noise_db_range = 3.0, 9.5" in text
        assert "cfo_range_hz = 8000000.0" in text
        # a section that is None writes no lines
        assert "channel_profile." not in harness.scenario_to_text(tiny())
        assert "interference." not in harness.scenario_to_text(tiny())

    @pytest.mark.parametrize(
        "line",
        [
            "cfo.enabled = false",
            "cfo.grid_points = 1",
            "detector.j_grid = 1",
            "mode = srb",
            "channel.environment = none",
            "start_jitter_span = 1",
            "channel_profile.environment = custom",
            "meta.note = x",
        ],
    )
    def test_old_keys_refused(self, line):
        # every section present, as in an old file that wrote a profile,
        # or none: a stray key does not make its section present
        key = line.partition(" = ")[0]
        for sc in (every_section(), tiny()):
            text = harness.scenario_to_text(sc) + line + "\n"
            with pytest.raises(ValueError, match=f"unknown keys: {key}$"):
                harness.scenario_from_text(text)

    @pytest.mark.parametrize("key", ["root_seed", "waveform.num_subbands", "channel_profile.los"])
    def test_missing_required_key_refused(self, key):
        lines = harness.scenario_to_text(every_section()).splitlines()
        text = "\n".join(l for l in lines if not l.startswith(key + " ="))
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            harness.scenario_from_text(text)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("snr_sweep_db", "-14.0, nan"),
            ("snr_sweep_db", "inf"),
            ("cfo_range_hz", "inf"),
            ("channel_profile.target_95pct_duration_ns", "inf"),
            ("channel_profile.decay_constant_ns", "inf"),
            ("channel_profile.tap_spacing_ns", "inf"),
            ("interference.psd_above_noise_db_range", "3.0, nan"),
            ("interference.psd_above_noise_db_range", "-inf, 9.5"),
            ("interference.band_edges_hz", "nan, 2e8"),
            ("interference.band_edges_hz", "-2e8, inf"),
            ("interference.bandwidth_hz", "inf"),
            ("interference.bandwidth_hz", "nan"),
            ("waveform.symbol_duration_s", "inf"),
        ],
    )
    def test_non_finite_value_refused(self, key, value):
        # refused when read, not first inside a trial's arithmetic
        lines = harness.scenario_to_text(every_section()).splitlines()
        text = "\n".join(
            f"{key} = {value}" if l.startswith(key + " =") else l for l in lines
        )
        with pytest.raises(ValueError, match=f"{key.split('.')[-1]} must be .*finite"):
            harness.scenario_from_text(text)

    def test_duplicate_key_refused(self):
        text = harness.scenario_to_text(tiny()) + "root_seed = 5\n"
        with pytest.raises(ValueError, match="duplicate key 'root_seed'"):
            harness.scenario_from_text(text)

    def test_bad_bool_refused(self):
        text = harness.scenario_to_text(tiny()).replace(
            "known_noise = true", "known_noise = yes"
        )
        with pytest.raises(ValueError, match="known_noise must be true or false"):
            harness.scenario_from_text(text)


class TestComputedValues:
    def test_cfo_grid_follows_range(self):
        df = 8e6
        sc = tiny(cfo_range_hz=df)
        expected = cfo_grid(df, sc.waveform.preamble_duration_s)
        assert expected.size > 1
        np.testing.assert_array_equal(sc.cfo_grid_hz, expected)
        np.testing.assert_array_equal(tiny().cfo_grid_hz, np.zeros(1))

    def test_threshold_counts_cfo_candidates(self):
        sc = tiny(cfo_range_hz=8e6)
        det = sc.detector
        bundle = harness._bundle(sc)
        assert bundle.thr == threshold(det.p_fa, det.p, bundle.grid_hz.size)
        assert bundle.thr > threshold(det.p_fa, det.p)

    def test_negative_cfo_range_refused(self):
        for value in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="cfo_range_hz"):
                tiny(cfo_range_hz=value)

    def test_interference_edges_past_sample_rate_refused(self):
        # tiny samples at 500 MHz; refused before run_curve writes anything
        wide = InterferenceConfig(1, 5e6, (3.0, 9.5), (-2.6e8, 2.6e8))
        with pytest.raises(ValueError, match="band edges exceed the sample rate"):
            tiny(interference=wide)
        tiny(interference=dataclasses.replace(wide, band_edges_hz=(-2.4e8, 2.4e8)))
        # with no interferers the edges are never read, so they pass
        tiny(interference=dataclasses.replace(wide, count=0))

    def test_radio_count_must_divide_subbands(self):
        with pytest.raises(ValueError, match="radio count must divide"):
            tiny(detector=DetectionConfig(p=3, p_fa=1e-2, radios=3))


class TestOneReceiverPath:
    @pytest.mark.parametrize("known_noise", [True, False], ids=["calibrated", "tracked"])
    def test_one_radio_is_a_bare_cascade(self, known_noise):
        # SRB is the one-radio case of the radio loop: no split, no
        # rescaling, the bytes of one CascadeDetector over the stream
        sc = tiny(known_noise=known_noise)
        bundle = harness._bundle(sc)
        assert bundle.radio_cfgs == (bundle.cfg,)
        stream = assemble_stream(bundle.tx, 896, 900, N0 / L, seed=17)
        anchors, stats = harness._scores(stream, bundle, sc, N0)
        override = np.full(L, N0) if known_noise else None
        want_anchors, want_stats = CascadeDetector(
            bundle.cfg, power_override=override
        ).push(stream.samples)
        assert stats.size > 0
        assert anchors.tobytes() == want_anchors.tobytes()
        assert stats.tobytes() == want_stats.tobytes()


def spied(monkeypatch, fn, *args):
    """fn(*args), each _scores call's arguments, the lengths pushed."""
    calls, pushed = [], []
    scores, push = harness._scores, CascadeDetector.push

    def spy_scores(*score_args):
        calls.append(score_args)
        return scores(*score_args)

    def spy_push(det, chunk):
        pushed.append(len(chunk))
        return push(det, chunk)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_scores", spy_scores)
        patch.setattr(CascadeDetector, "push", spy_push)
        return fn(*args), calls, pushed


class TestSlicedSignalTrial:
    """A signal trial reads only the windows within p + L of k0; a calibrated
    one scores just those, from a slice of each radio's stream.  The full
    push is the oracle."""

    @pytest.mark.parametrize(
        "make",
        [
            tiny,
            lambda: tiny(detector=DetectionConfig(p=2, p_fa=1e-2, radios=2)),
            lambda: tiny(detector=DetectionConfig(p=4, p_fa=1e-2, radios=4)),
            lambda: tiny(cfo_range_hz=8e6),
            lambda: tiny(channel_profile=every_section().channel_profile),
            lambda: tiny(interference=every_section().interference),
            lambda: dataclasses.replace(every_section(), known_noise=True),
        ],
        ids=["srb", "mrb2", "mrb4", "cfo", "multipath", "interference", "all"],
    )
    def test_read_windows_equal_full_push_bitwise(self, make, monkeypatch):
        sc = make()
        bundle = harness._bundle(sc)
        radios = sc.detector.radios
        # theory P_D = 0.5 without CFO search, so trials both hit and miss
        eta = detector.eta_for_pd(1e-2, 2, 0.5, 8, L)
        outcomes = set()
        for trial in range(8):
            hit, calls, pushed = spied(monkeypatch, harness._signal_trial, sc, eta, trial)
            ((stream, _, _, n0, k0),) = calls
            anchors, stats = harness._scores(stream, bundle, sc, n0, k0)
            full_anchors, full_stats = harness._scores(stream, bundle, sc, n0)
            read = np.abs(full_anchors - k0) <= sc.detector.p + L
            assert np.count_nonzero(read) >= 2
            assert anchors.tobytes() == full_anchors[read].tobytes()
            assert stats.tobytes() == full_stats[read].tobytes()
            assert hit == bool(np.any(full_stats[read] > bundle.thr))
            outcomes.add(hit)
            # each radio pushed only its span, and the span cuts the front;
            # k0 is on the symbol lattice and p < L, so the read windows
            # are k0 - L, k0 and k0 + L
            start, stop = input_span(bundle.radio_cfgs[0], (k0 - L) // radios, (k0 + L) // radios)
            sub_size = -(-stream.samples.size // L) * L // radios
            assert start > 0
            assert pushed == [min(stop, sub_size) - start] * (radios * bundle.grid_hz.size)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("radios", [1, 2], ids=["srb", "mrb2"])
    def test_tracked_trial_reads_only_its_windows(self, radios, monkeypatch):
        # the read windows are defined once, for tracked trials too: those
        # of a full push within p + L of k0, and the outcome is theirs
        sc = tiny(known_noise=False, detector=DetectionConfig(p=2, p_fa=1e-2, radios=radios))
        bundle = harness._bundle(sc)
        eta = detector.eta_for_pd(1e-2, 2, 0.5, 8, L)
        outcomes = set()
        for trial in range(8):
            hit, calls, _ = spied(monkeypatch, harness._signal_trial, sc, eta, trial)
            ((stream, _, _, n0, k0),) = calls
            anchors, stats = harness._scores(stream, bundle, sc, n0, k0)
            full_anchors, full_stats = harness._scores(stream, bundle, sc, n0)
            read = np.abs(full_anchors - k0) <= sc.detector.p + L
            assert np.count_nonzero(read) >= 2
            assert anchors.tobytes() == full_anchors[read].tobytes()
            assert stats.tobytes() == full_stats[read].tobytes()
            assert hit == bool(np.any(full_stats[read] > bundle.thr))
            outcomes.add(hit)
        assert outcomes == {True, False}

    def test_tracked_trial_pushes_whole_stream(self, monkeypatch):
        sc = tiny(known_noise=False)
        _, calls, pushed = spied(monkeypatch, harness._signal_trial, sc, -14.0, 0)
        ((stream, *_),) = calls
        assert pushed == [stream.samples.size]

    def test_noise_trial_scores_every_window(self, monkeypatch):
        sc = tiny()
        eta = sc.snr_sweep_db[0]
        (crossings, windows), calls, pushed = spied(monkeypatch, harness._noise_trial, sc, eta, 0)
        # no packet start goes down, so the stream is pushed whole
        ((stream, bundle, _, n0),) = calls
        assert pushed == [stream.samples.size]
        _, stats = CascadeDetector(bundle.cfg, power_override=np.full(L, n0)).push(stream.samples)
        assert windows == stats.size > 0
        assert crossings == np.count_nonzero(stats > bundle.thr)


class TestSrbMrbPaired:
    def test_mrb_detects_like_srb_on_the_same_trials(self):
        # SRB and MRB (two radios) see the same trial streams at the SNR
        # where theory P_D = 0.5; equal in law, their detections may
        # differ per trial only symmetrically (exact McNemar test on the
        # discordant pairs).  Measured: P_D 0.475 vs 0.468, 23 + 20
        # discordant pairs of 400, p = 0.76.
        trials = 400
        eta = detector.eta_for_pd(1e-2, 2, 0.5, 8, L)
        hits = {}
        for radios in (1, 2):
            sc = tiny(detector=DetectionConfig(p=2, p_fa=1e-2, radios=radios))
            hits[radios] = np.array(
                [harness._signal_trial(sc, eta, t) for t in range(trials)]
            )
        srb_only = int(np.count_nonzero(hits[1] & ~hits[2]))
        mrb_only = int(np.count_nonzero(hits[2] & ~hits[1]))
        discordant = srb_only + mrb_only
        assert discordant <= 0.15 * trials
        if discordant:
            assert binomtest(srb_only, discordant, 0.5).pvalue > 0.01


class TestCfoSearch:
    def test_grid_search_recovers_offset_and_start(self):
        df = 8e6
        sc = tiny(cfo_range_hz=df)
        bundle = harness._bundle(sc)
        assert df in bundle.grid_hz
        tx = bundle.tx
        sig = ComplexSignal(tx.samples * 0.4, tx.sample_rate_hz)
        k0 = 896
        stream = assemble_stream(sig, k0, 900, N0 / L, seed=13)
        shifted = apply_cfo(stream, df)
        anchors, best = harness._scores(shifted, bundle, sc, N0)
        assert anchors[int(np.argmax(best))] == k0
        # at the packet the grid maximum is the correctly derotated score
        det = CascadeDetector(bundle.cfg, power_override=np.full(L, N0))
        true_anchors, true_stats = det.push(apply_cfo(shifted, -df).samples)
        at_packet = best[anchors == k0]
        assert at_packet.size == 1
        assert at_packet[0] == true_stats[true_anchors == k0][0]


class TestBundle:
    def test_point_builds_bundle_before_any_pool(self, monkeypatch):
        sc = tiny(trials_per_point=4)
        harness._BUNDLES.clear()
        seen = []
        map_trials = harness._map_trials

        def recording(fn, scenario, eta_db, indices, workers):
            seen.append(scenario in harness._BUNDLES)
            return map_trials(fn, scenario, eta_db, indices, workers)

        monkeypatch.setattr(harness, "_map_trials", recording)
        harness.run_point(sc, sc.snr_sweep_db[0], workers=2)
        assert seen and all(seen)
        assert sc in harness._BUNDLES

    def test_wideband_short_bundle_memory(self):
        # L = 4096, 8 radios: the build holds little more than its arrays
        sc = cached_preset("wideband_short")
        harness._BUNDLES.clear()
        tracemalloc.start()
        try:
            bundle = harness._bundle(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            harness._BUNDLES.clear()
        wf = bundle.wf
        span = wf.prototype.span_symbols
        assert len(bundle.tx) == (wf.preamble_length + span - 1) * 4096 + 1
        assert len(bundle.rho) == 2 * span * 4096 + 1
        assert peak <= 200 * 2**20

    def test_radios_share_one_prototype(self):
        # the K-band prototype is designed once per bundle, not per radio
        bundle = harness._bundle(cached_preset("wideband_short"))
        protos = [c.waveform.prototype for c in bundle.radio_cfgs]
        assert len(protos) == 8 and all(q is protos[0] for q in protos)
        fresh = design_prototype_filter(4096 // 8, protos[0].span_symbols, protos[0].rolloff)
        assert protos[0].samples_per_symbol == fresh.samples_per_symbol
        assert protos[0].taps.tobytes() == fresh.taps.tobytes()

    def test_lead_starts_past_tracked_warmup(self):
        bundle = harness._bundle(tiny())
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8000) + 1j * rng.standard_normal(8000)
        anchors, _ = CascadeDetector(bundle.cfg).push(x)
        assert anchors[0] == tracked_first_anchor(bundle.cfg)
        assert bundle.lead_symbols_lo * L > anchors[0]


# each preset's sweep, placed where theory P_D meets its targets and
# rounded to 3 decimals
PRESET_SWEEPS = {
    "desk": (-32.077, -29.751, -27.091, -24.978, -23.335, -22.108, -20.361),
    "narrowband": (-44.849, -43.903, -43.316, -42.774, -42.057, -41.172),
    "wideband_short": (-37.193, -36.321, -35.782, -35.283, -34.625, -33.812),
    "wideband": (-47.158, -46.287, -45.747, -45.249, -44.591, -43.778),
}


# each preset's scenario text hashed; point state files carry it, so a
# moved value or renamed key makes finished points foreign
PRESET_FINGERPRINTS = {
    "desk": "d2c9daf55e205e35",
    "narrowband": "92704f3df98c6c5e",
    "wideband": "4987f95cf0850d2a",
    "wideband_short": "08e78ef5d848a87d",
}


# a preset places its sweep when built; scenarios are frozen, so share one
cached_preset = functools.cache(harness.preset)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESET_SWEEPS))
    def test_placed_sweep(self, name):
        assert cached_preset(name).snr_sweep_db == PRESET_SWEEPS[name]

    @pytest.mark.parametrize("name", sorted(PRESET_FINGERPRINTS))
    def test_fingerprint(self, name):
        assert harness._fingerprint(cached_preset(name)) == PRESET_FINGERPRINTS[name]

    @pytest.mark.parametrize("name", sorted(PRESET_SWEEPS))
    def test_placement_probes_stay_near_the_answer(self, name, monkeypatch):
        # a tail at lambda ~ 1e10 sweeps two million terms; each
        # placement probes no lambda past twice the one it places
        tail, place = detector.noncentral_chi2_tail, harness.eta_for_pd
        seen = []

        def recording(dof, noncentrality, x):
            seen.append(noncentrality)
            return tail(dof, noncentrality, x)

        def checked(p_fa, p, target, n, l):
            seen.clear()
            eta_db = place(p_fa, p, target, n, l)
            assert seen and max(seen) <= 2.0 * detector.noncentrality_at_eta(eta_db, n, l)
            return eta_db

        monkeypatch.setattr(detector, "noncentral_chi2_tail", recording)
        monkeypatch.setattr(harness, "eta_for_pd", checked)
        harness.preset(name)
