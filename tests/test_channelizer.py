"""Cascade channelizer: analysis bank, power tracking, synthesis, matched
filtering, and the end-to-end streaming detector."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats as sps

from fbmcss import channelizer, harness
from fbmcss.channel import assemble_stream
from fbmcss.channelizer import (
    _AFB_BLOCK_ELEMENTS,
    _MF_BLOCK_ELEMENTS,
    _POWER_FLOOR_RATIO,
    _PUSH_SAMPLES,
    _SYNTH_BLOCK_ELEMENTS,
    CascadeDetector,
    ChannelizerConfig,
    _interp_taps,
    _phase_table,
    _silent_hops,
    _stable_product,
    _synthesize,
    _whitened_residues,
    afb_process,
    analysis_state,
    input_span,
    matched_filter_bank,
    mf_state,
    power_state,
    synthesis_state,
    track_power,
    tracked_first_anchor,
)
from fbmcss.detector import compute_beta, rao_low_complexity, threshold
from fbmcss.harness import preset
from fbmcss.numerics import ComplexSignal
from fbmcss.waveform import (
    WaveformSpec,
    build_data_matrix,
    generate_preamble,
    make_preamble_symbols,
    synthesize_pulse,
)

L = 16
N = 8
P = 4
N0 = 2.0
FS = 500e6


@pytest.fixture(scope="module")
def wf():
    return WaveformSpec(L, N, symbol_duration_s=L / FS, sign_seed=3, symbol_seed=5).build()


@pytest.fixture(scope="module")
def cfg(wf):
    return ChannelizerConfig(wf, P)


@pytest.fixture(scope="module")
def wf_big():
    # wide FIFO window (capacity 2048) for the estimator examples
    return WaveformSpec(8, 1024, symbol_duration_s=8 / FS, sign_seed=1, symbol_seed=1).build()


@pytest.fixture(scope="module")
def cfg_big(wf_big):
    return ChannelizerConfig(wf_big, 4)


@pytest.fixture(scope="module")
def cfg_cap10():
    # N = 5: a fifo capacity of 10 hops, which differs from L
    spec = WaveformSpec(L, 5, symbol_duration_s=L / FS, sign_seed=3, symbol_seed=5)
    return ChannelizerConfig(spec.build(), P)


def white(n, var, seed):
    rng = np.random.default_rng(seed)
    return np.sqrt(var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def power_of(values):
    """Contiguous |x|^2 of a (bands, hops) block, as band_power reduces it."""
    return np.ascontiguousarray(values.real**2 + values.imag**2)


def band_power(power):
    """Per-band PSD from a contiguous (bands, window) block of |x|^2.

    The per-hop reduction track_power's block sums replaced, kept as
    its oracle: L times each band's mean, floored at _POWER_FLOOR_RATIO
    times the median band, and +inf everywhere at zero median power.
    """
    phi = power.shape[0] * np.mean(power, axis=1)
    med = float(np.median(phi))
    if med == 0.0:
        return np.full(phi.size, np.inf)
    return np.maximum(phi, _POWER_FLOOR_RATIO * med)


def written_out_product(a, br, bi):
    """a * (br + j bi) as ar*br - ai*bi and ar*bi + ai*br, one op at a time."""
    out = np.empty(np.broadcast(a, br, bi).shape, dtype=np.complex128)
    out.real = a.real * br - a.imag * bi
    out.imag = a.real * bi + a.imag * br
    return out


def floored_at_median(phi):
    """track_power's median floor applied to every row, kept as the oracle
    of the rows it now leaves alone: floor at _POWER_FLOOR_RATIO times the
    median band (np.median's arithmetic), +inf everywhere at zero median."""
    l = phi.shape[1]
    part = np.partition(phi, (l // 2 - 1, l // 2), axis=1)
    med = (part[:, l // 2 - 1] + part[:, l // 2]) / 2
    phi = np.maximum(phi, _POWER_FLOOR_RATIO * med[:, None])
    phi[med == 0.0] = np.inf
    return phi


def oracle_profiles(x, cfg):
    """band_power of each hop's trailing window, one hop at a time."""
    cap = cfg.fifo_capacity
    values = afb_process(x, cfg, analysis_state(cfg))
    silent = _silent_hops(x, cfg, analysis_state(cfg))
    rows = np.full(values.shape, np.inf)
    for hop in range(cap, values.shape[0]):
        if not np.any(silent[hop - cap : hop]):
            rows[hop] = band_power(power_of(values[hop - cap : hop].T))
    return rows


def tracked_profiles(x, cfg, cuts=()):
    """track_power's (hops, L) rows for x pushed in the given pieces."""
    st_a = analysis_state(cfg)
    st_p = power_state(cfg)
    rows = []
    lo = 0
    for step in list(cuts) + [x.size]:
        piece = x[lo : lo + step]
        silent = _silent_hops(piece, cfg, st_a)
        rows.append(track_power(afb_process(piece, cfg, st_a), silent, cfg, st_p))
        lo += step
    return np.concatenate(rows)


class TestStableProduct:
    @staticmethod
    def operands(n, offset, seed):
        # ragged sizes at every buffer offset, so numpy's complex multiply
        # would take its several kernels; signed zeros and infinities too
        rng = np.random.default_rng(seed)
        buf = rng.standard_normal(n + 8) + 1j * rng.standard_normal(n + 8)
        buf[1::5] = complex(-0.0, 0.0)
        buf[2::7] = complex(0.0, -0.0)
        buf[3::11] = complex(np.inf, -1.0)
        buf[4::13] = complex(-0.0, -np.inf)
        return buf[offset : offset + n]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 15, 64, 1023, 4096])
    def test_matches_written_out_form_bitwise(self, n):
        with np.errstate(invalid="ignore"):
            for offset in range(4):
                a = self.operands(n, offset, 91)
                b = self.operands(n, 3 - offset, 92)
                want = written_out_product(a, b.real, b.imag)
                assert _stable_product(a, b.real, b.imag).tobytes() == want.tobytes()
                # a conjugate through -bi: ar*br + ai*bi, ai*br - ar*bi
                conj = np.empty(n, dtype=np.complex128)
                conj.real = a.real * b.real + a.imag * b.imag
                conj.imag = a.imag * b.real - a.real * b.imag
                assert _stable_product(a, b.real, -b.imag).tobytes() == conj.tobytes()

    def test_broadcasts_like_the_comb_table(self):
        # one (1, frames) row times a (D, 1) alphabet, as matched_filter_bank
        # builds its table; and one (L,) profile against (hops, L) samples
        row = self.operands(301, 1, 93)[None, :]
        alphabet = self.operands(5, 0, 94)[:, None]
        with np.errstate(invalid="ignore"):
            table = _stable_product(row, alphabet.real, alphabet.imag)
            want = written_out_product(row, alphabet.real, alphabet.imag)
            assert table.shape == (5, 301)
            assert table.tobytes() == want.tobytes()
            hops = self.operands(7 * 16, 2, 95).reshape(7, 16)
            gains = self.operands(16, 0, 96)
            got = _stable_product(hops, gains.real, gains.imag)
            assert got.tobytes() == written_out_product(hops, gains.real, gains.imag).tobytes()


class TestChannelizerConfig:
    def test_derived_sizes(self, wf, cfg):
        assert cfg.waveform is wf
        assert cfg.num_subbands == L
        assert cfg.hop == L // 2
        assert cfg.preamble_length == N
        assert cfg.fifo_capacity == 2 * N

    def test_rejects_branch_count_out_of_range(self, wf):
        with pytest.raises(ValueError):
            ChannelizerConfig(wf, 0)
        with pytest.raises(ValueError):
            ChannelizerConfig(wf, L)

    def test_rejects_odd_subband_count(self):
        odd = WaveformSpec(L - 1, N, symbol_duration_s=(L - 1) / FS).build()
        with pytest.raises(ValueError, match="even"):
            ChannelizerConfig(odd, P)

    def test_rejects_rolloff_wider_than_interpolator_passband(self):
        wide = WaveformSpec(L, N, symbol_duration_s=L / FS, rolloff=0.85).build()
        with pytest.raises(ValueError):
            ChannelizerConfig(wide, P)

    def test_tables_built_once_per_config(self, wf, monkeypatch):
        # the config builds every fixed table; detectors and pushes on it
        # build none, and a stage state holds only tails and counters
        calls = {"_interp_taps": 0, "_phase_table": 0}
        for name in calls:

            def counted(*args, _name=name, _fn=getattr(channelizer, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(channelizer, name, counted)
        c = ChannelizerConfig(wf, P)
        assert max(calls.values()) <= 1
        built = dict(calls)
        x = white(3000, N0 / L, 51)
        for override in [None] * 5 + [np.full(L, N0)] * 5:
            det = CascadeDetector(c, power_override=override)
            assert det.push(x)[1].size > 0
        assert tracked_first_anchor(c) > 0
        assert calls == built
        moved = {"tail", "next_hop", "tail_hop", "z_tail", "next_frame", "next_anchor"}
        moved |= {"block", "fwd"}
        for make in (analysis_state, power_state, synthesis_state, mf_state):
            assert {f.name for f in dataclasses.fields(make(c))} <= moved

    @pytest.mark.parametrize("l,n,p", [(16, 8, 4), (64, 32, 4), (32, 8, 9), (16, 8, 15)])
    def test_tracked_first_anchor_is_first_scored(self, l, n, p):
        # p = 15 is L - 1, the branch count that waits longest for a frame
        spec = WaveformSpec(l, n, symbol_duration_s=l / FS, sign_seed=3, symbol_seed=5)
        c = ChannelizerConfig(spec.build(), p)
        first = tracked_first_anchor(c)
        x = white(first + 4 * n * l, N0 / l, 53)
        anchors, stats = CascadeDetector(c).push(x)
        assert anchors.size > 0 and anchors[0] == first and first % l == 0
        # every scored window's newest hop has an estimate
        assert np.all(stats > 0.0)


class TestInputSpan:
    """input_span against a full push, the oracle: calibrated windows read
    only the input the span names."""

    @pytest.mark.parametrize("l,n,p", [(16, 8, 4), (64, 32, 4), (32, 8, 9), (16, 8, 15)])
    def test_span_windows_equal_full_push_bitwise(self, l, n, p):
        spec = WaveformSpec(l, n, symbol_duration_s=l / FS, sign_seed=3, symbol_seed=5)
        c = ChannelizerConfig(spec.build(), p)
        override = np.full(l, N0)
        x = white((80 + 2 * n) * l, N0 / l, 57)
        full_anchors, full_stats = CascadeDetector(c, power_override=override).push(x)
        # even and odd first windows, one to three windows, and the stream start
        for first, last in [(40 * l, 40 * l), (41 * l, 43 * l), (40 * l, 42 * l), (0, l)]:
            start, stop = input_span(c, first, last)
            assert start % (2 * l) == 0 and stop < x.size
            assert (start > 0) == (first > 0)
            anchors, stats = CascadeDetector(c, power_override=override).push(x[start:stop])
            anchors = anchors + start
            keep = (anchors >= first) & (anchors <= last)
            read = (full_anchors >= first) & (full_anchors <= last)
            assert np.count_nonzero(read) == (last - first) // l + 1
            assert anchors[keep].tobytes() == full_anchors[read].tobytes()
            assert stats[keep].tobytes() == full_stats[read].tobytes()
            # tight: one sample less and the last window is never scored
            short, _ = CascadeDetector(c, power_override=override).push(x[start : stop - 1])
            assert short[-1] + start == last - l


class TestAnalysisBank:
    def test_impulse_gives_modulated_prototype_polyphase(self, wf, cfg):
        h = cfg.waveform.prototype.taps
        d = cfg.hop
        nu = wf.normalized_frequencies()
        for n1 in (700, 955):
            x = np.zeros(4000, dtype=np.complex128)
            x[n1] = 1.0
            values = afb_process(x, cfg, analysis_state(cfg))
            for m in range(values.shape[0]):
                idx = n1 - m * d
                tap = h[idx] if 0 <= idx < h.size else 0.0
                ref = tap * np.exp(-2j * np.pi * nu * n1)
                assert np.max(np.abs(values[m] - ref)) < 1e-11

    def test_tone_concentrates_in_its_band(self, wf, cfg):
        h = cfg.waveform.prototype.taps
        nu = wf.normalized_frequencies()
        j_band = 5
        n = 6000
        tone = np.exp(2j * np.pi * nu[j_band] * np.arange(n))
        values = afb_process(tone, cfg, analysis_state(cfg))
        last = (n - h.size) // cfg.hop
        mid = np.arange(2, last - 2)
        mags = np.abs(values[mid].T)
        # steady-state magnitudes are hop invariant for a pure tone
        assert np.max(mags.max(axis=1) - mags.min(axis=1)) < 1e-11
        grid = np.arange(h.size)
        closed = np.array(
            [
                np.abs(np.sum(h * np.exp(2j * np.pi * (nu[j_band] - nu[k]) * grid)))
                for k in range(L)
            ]
        )
        assert np.max(np.abs(mags[:, 0] - closed)) < 1e-12
        # adjacent-band leakage stays below the prototype stopband level
        f = np.linspace(0.0, 0.5, 2001)
        response = np.abs(
            np.array([np.sum(h * np.exp(-2j * np.pi * fi * grid)) for fi in f])
        )
        dc = np.abs(np.sum(h))
        edge = (1.0 + cfg.waveform.prototype.rolloff) / (2 * L)
        stopband = response[f >= edge].max() / dc
        leakage = closed[j_band + 1] / closed[j_band]
        assert leakage < 0.01
        assert leakage <= stopband * 1.0001

    def test_linearity(self, cfg):
        x1 = white(3000, 1.0, 11)
        x2 = white(3000, 1.0, 12)
        a, b = 2.0 - 1.0j, -0.5 + 3.0j
        f1 = afb_process(x1, cfg, analysis_state(cfg))
        f2 = afb_process(x2, cfg, analysis_state(cfg))
        f12 = afb_process(a * x1 + b * x2, cfg, analysis_state(cfg))
        assert np.max(np.abs(f12 - (a * f1 + b * f2))) < 1e-12

    def test_streaming_matches_batch_bitwise(self, cfg):
        x = white(21000, 1.0, 13)
        whole = afb_process(x, cfg, analysis_state(cfg))
        state = analysis_state(cfg)
        pieces = []
        cuts = [1, 8, 137, 0, 4096, 33, 1000, 17, 8192, 129, 7000]
        lo = 0
        for step in cuts:
            pieces.append(afb_process(x[lo : lo + step], cfg, state))
            lo += step
        pieces.append(afb_process(x[lo:], cfg, state))
        chunked = np.concatenate(pieces, axis=0)
        assert chunked.shape == whole.shape
        assert np.array_equal(chunked, whole)

    def test_push_spanning_several_blocks_matches_chunked_bitwise(self, cfg):
        x = white(1 << 17, 1.0, 19)
        hops = (x.size - cfg.waveform.prototype.taps.size) // cfg.hop + 1
        span_slots = -(-cfg.waveform.prototype.taps.size // L)
        block = _AFB_BLOCK_ELEMENTS // (span_slots * L)
        # the one-shot call folds more hops than one block holds
        assert block < hops
        # silence across the edge of its first two fold blocks: -0.0 - 0.0j,
        # then every signed-zero pair at random, so a fold sums only signed
        # zeros there, with the pad's +0.0
        edge = block * cfg.hop
        x[edge - 700 : edge + 700] = complex(-0.0, -0.0)
        signs = np.random.default_rng(20).choice([0.0, -0.0], (2, 1400))
        x[edge + 700 : edge + 2100].real, x[edge + 700 : edge + 2100].imag = signs
        whole = afb_process(x, cfg, analysis_state(cfg))
        assert whole.shape[0] == hops
        for step in (37, 5000):
            st = analysis_state(cfg)
            pieces = [
                afb_process(x[lo : lo + step], cfg, st)
                for lo in range(0, x.size, step)
            ]
            assert np.concatenate(pieces, axis=0).tobytes() == whole.tobytes()

    def test_two_dimensional_chunk_refused_before_state_moves(self, cfg):
        x = white(1000, 1.0, 67)
        state = analysis_state(cfg)
        before = afb_process(x[:500], cfg, state)
        tail, next_hop = state.tail.copy(), state.next_hop
        for shape in ((), (64, 1), (1, 64)):
            with pytest.raises(ValueError, match="one-dimensional"):
                afb_process(np.ones(shape, dtype=np.complex128), cfg, state)
        assert state.tail.tobytes() == tail.tobytes() and state.next_hop == next_hop
        after = afb_process(x[500:], cfg, state)
        whole = afb_process(x, cfg, analysis_state(cfg))
        assert np.concatenate([before, after]).tobytes() == whole.tobytes()

    def test_short_input_defers_output(self, cfg):
        state = analysis_state(cfg)
        values = afb_process(np.zeros(16, dtype=np.complex128), cfg, state)
        assert values.shape == (0, L)
        assert state.tail.size == 16


class TestBandPowerTracking:
    def test_white_noise_estimate_flat(self, cfg_big):
        # max-over-bands deviation of a 2048-sample variance estimate has
        # sigma about 2.2%, so the 5% budget needs a seed with margin
        n0 = 4.0
        l8 = 8
        rng = np.random.default_rng(5)
        cols = np.sqrt(n0 / l8 / 2) * (
            rng.standard_normal((l8, 2048)) + 1j * rng.standard_normal((l8, 2048))
        )
        # hop 2048 is estimated from the 2048 rows before it
        values = np.concatenate([cols.T, np.zeros((1, l8))])
        no_silent_hop = np.zeros(values.shape[0], dtype=bool)
        phi = track_power(values, no_silent_hop, cfg_big, power_state(cfg_big))[-1]
        assert np.max(np.abs(phi - n0)) / n0 < 0.05

    def test_strong_tone_dominates_one_band(self, wf_big, cfg_big):
        h = cfg_big.waveform.prototype.taps
        nu = wf_big.normalized_frequencies()
        j_band = 5
        rng = np.random.default_rng(4)
        ns = 2048 * cfg_big.hop + 400
        x = np.sqrt(1.0 / 8 / 2) * (
            rng.standard_normal(ns) + 1j * rng.standard_normal(ns)
        )
        amp = np.sqrt(1000.0 / 8) / np.abs(np.sum(h))
        x = x + amp * np.exp(2j * np.pi * nu[j_band] * np.arange(ns))
        phi = tracked_profiles(x, cfg_big)[-1]
        ratio = phi[j_band] / np.median(np.delete(phi, j_band))
        assert 900.0 < ratio < 1100.0

    def test_silent_input_floored_positive(self, cfg):
        # bands silent in a window whose median is positive are floored
        # at a fixed fraction of that median
        cap = cfg.fifo_capacity
        values = white(3 * cap * L, 1.0, 43).reshape(-1, L)
        silent = [0, 5, 6]
        values[:, silent] = 0.0
        no_silent_hop = np.zeros(values.shape[0], dtype=bool)
        phi = track_power(values, no_silent_hop, cfg, power_state(cfg))[cap:]
        assert np.all(phi > 0.0) and np.all(np.isfinite(phi))
        med = np.median(phi, axis=1)[:, None]
        assert np.all(phi[:, silent] == _POWER_FLOOR_RATIO * med)

    def test_silent_window_has_no_estimate(self, cfg):
        # zero median power: no profile to whiten with, like a warm-up hop
        cap = cfg.fifo_capacity
        values = np.zeros((3 * cap, L), dtype=np.complex128)
        no_silent_hop = np.zeros(3 * cap, dtype=bool)
        assert np.all(track_power(values, no_silent_hop, cfg, power_state(cfg)) == np.inf)
        # digital silence in the stream: every hop is silent
        span = cfg.waveform.prototype.taps.size
        rows = tracked_profiles(np.zeros(3 * cap * cfg.hop + span, dtype=np.complex128), cfg)
        assert rows.shape[0] > 2 * cap and np.all(rows == np.inf)

    def test_estimate_depends_only_on_trailing_window(self, cfg):
        # two streams that differ only before sample `changed` give the
        # same tracked estimate once a hop's window starts past it
        cap = cfg.fifo_capacity
        changed = 1000
        x1 = white(6000, N0 / L, 41)
        x2 = x1.copy()
        x2[:changed] = white(changed, 4.0 * N0 / L, 42)
        rows1 = tracked_profiles(x1, cfg)
        rows2 = tracked_profiles(x2, cfg)
        first_clean = -(-changed // cfg.hop) + cap
        assert cap < first_clean < rows1.shape[0]
        # hops before the first full window have no estimate
        assert np.all(rows1[:cap] == np.inf) and np.all(np.isfinite(rows1[cap:]))
        assert np.array_equal(rows1[first_clean:], rows2[first_clean:])
        assert not np.array_equal(rows1[cap], rows2[cap])

    def test_pipeline_power_trace_matches_fifo_estimates(self, cfg):
        x = white(6000, N0 / L, 15)
        rows = tracked_profiles(x, cfg)
        values = afb_process(x, cfg, analysis_state(cfg))
        cap = cfg.fifo_capacity
        assert rows.shape == (values.shape[0], L) and rows.shape[0] > cap + 10
        for hop in range(cap, rows.shape[0]):
            ref = band_power(power_of(values[hop - cap : hop].T))
            assert np.max(np.abs(rows[hop] - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("l,n", [(16, 8), (64, 32), (32, 9)])
    def test_block_sums_match_per_hop_oracle(self, l, n):
        # over 60 blocks, so drift would show; the zeroed stretch makes
        # silent hops, and the stream resumes with estimates after it
        c = ChannelizerConfig(WaveformSpec(l, n, symbol_duration_s=l / FS).build(), 4)
        cap = c.fifo_capacity
        x = white(60 * cap * c.hop + 1000, N0 / l, 61)
        gap = 30 * cap * c.hop
        x[gap : gap + 3 * l] = 0.0
        rows = tracked_profiles(x, c)
        oracle = oracle_profiles(x, c)
        # pushes of 1, 2 and 37 samples across the close of block 3: hop
        # 3*cap - 1 completes at sample (3*cap - 1)*hop + span
        close = (3 * cap - 1) * c.hop + c.waveform.prototype.taps.size
        small = tracked_profiles(x, c, [close - 100] + [1, 2, 37] * 6)
        assert small.tobytes() == rows.tobytes()
        assert rows.shape[0] >= 60 * cap
        assert cap < np.count_nonzero(np.isinf(oracle[cap:, 0])) < 3 * cap
        assert rows.shape == oracle.shape
        assert np.array_equal(np.isinf(rows), np.isinf(oracle))
        finite = np.isfinite(oracle)
        assert np.max(np.abs(rows[finite] - oracle[finite]) / oracle[finite]) <= 1e-12

    @given(
        steps=st.lists(
            st.one_of(st.sampled_from([0, 1, "block"]), st.integers(0, 3000)), max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_split_pushes_equal_bulk_push(self, cfg, steps):
        # "block" cuts the push where the last hop it completes closes a
        # block of fifo_capacity hops; the zeroed stretch makes silent hops
        cap = cfg.fifo_capacity
        span = cfg.waveform.prototype.taps.size
        x = white(12000, N0 / L, len(steps))
        x[5000:5100] = 0.0
        cuts = []
        done = 0
        for step in steps:
            if step == "block":
                # the sample count at which hop b*cap - 1 completes
                b = max(0, (done - span) // cfg.hop + 1) // cap + 1
                step = (b * cap - 1) * cfg.hop + span - done
            cuts.append(step)
            done += step
        bulk = tracked_profiles(x, cfg)
        split = tracked_profiles(x, cfg, cuts)
        assert bulk.shape[0] > 10 * cap
        assert split.tobytes() == bulk.tobytes()

    def test_median_floor_matches_every_row_oracle_bitwise(self, cfg):
        # window sums written straight into a closed block: hop cap + j of
        # a zero push sums block[j] + 0.0, so each row below is one hop's
        # unfloored phi, built to reach each branch of the floor
        cap = cfg.fifo_capacity
        rng = np.random.default_rng(91)
        big = np.finfo(np.float64).max
        noise = rng.uniform(0.5, 2.0, (cap, L))
        rows = {
            "floor binds": np.where(np.arange(L) < 3, 1e-9, noise[0]),
            "zero bands": np.where(np.arange(L) < 3, 0.0, noise[1]),
            "min is ratio times max": np.r_[_POWER_FLOOR_RATIO * 2.0, 2.0, noise[2, 2:]],
            "min is the floor": np.r_[_POWER_FLOOR_RATIO * 2.0, np.full(L - 1, 2.0)],
            "min just under the floor": np.r_[
                np.nextafter(_POWER_FLOOR_RATIO * 2.0, 0.0), np.full(L - 1, 2.0)
            ],
            "zero median": np.where(np.arange(L) < L // 2 + 1, 0.0, noise[3]),
            "all zero": np.zeros(L),
            "all +inf": np.full(L, np.inf),
            "some +inf": np.where(np.arange(L) < 3, np.inf, noise[4]),
            "middle sum overflows": rng.uniform(0.55, 0.9, L) * big,
            "max is half of DBL_MAX": np.r_[big / 2, rng.uniform(0.3, 0.5, L - 1) * big],
            "subnormal": rng.uniform(1.0, 2.0, L) * 1e-310,
        }
        block = noise.copy()
        block[: len(rows)] = list(rows.values())
        state = power_state(cfg)
        state.block[:] = block
        state.next_hop = cap
        silent = np.zeros(cap, dtype=bool)
        raw = L * (block / cap)
        # the two middle values past DBL_MAX overflow to a +inf median
        with np.errstate(over="ignore"):
            phi = track_power(np.zeros((cap, L), dtype=np.complex128), silent, cfg, state)
            oracle = floored_at_median(raw)
        for i, name in enumerate(rows):
            assert phi[i].tobytes() == oracle[i].tobytes(), name
        assert phi.tobytes() == oracle.tobytes()
        # each row reached the branch it is named for
        assert not np.any(np.all(phi[[0, 1, 4]] == raw[[0, 1, 4]], axis=1))
        assert np.all(phi[[2, 3, 8, 10, 11]] == raw[[2, 3, 8, 10, 11]])
        assert np.all(phi[[5, 6, 7, 9]] == np.inf)

    @given(
        short=st.booleans(),
        data=st.data(),
        blocks=st.integers(3, 5),
        silent=st.sets(st.integers(0, 150), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_whole_blocks_equal_hop_at_a_time(
        self, cfg, cfg_cap10, short, data, blocks, silent, seed
    ):
        # one push finishes an open block, spans whole blocks and opens a
        # partial one; pushed one hop at a time, no block is ever whole.
        # cap = 16 = L, or 10 != L, which a block sum that mixes up its
        # block and band axes cannot pass
        cfg = cfg_cap10 if short else cfg
        cap = cfg.fifo_capacity
        assert cap == (10 if short else L)
        head = data.draw(st.integers(1, cap - 1), label="head")
        tail = data.draw(st.integers(1, cap - 1), label="tail")
        lead = 2 * cap - head
        hops = lead + head + blocks * cap + tail
        values = white(hops * L, 1.0, seed).reshape(-1, L)
        values[lead + cap : lead + cap + 3, 2:5] = 0.0  # bands the floor lifts
        flags = np.zeros(hops, dtype=bool)
        flags[[i for i in silent if i < hops]] = True
        one = power_state(cfg)
        ref = [track_power(values[h : h + 1], flags[h : h + 1], cfg, one) for h in range(hops)]
        bulk = power_state(cfg)
        rows = [
            track_power(values[lo:hi], flags[lo:hi], cfg, bulk)
            for lo, hi in ((0, lead), (lead, hops))
        ]
        assert np.concatenate(rows).tobytes() == np.concatenate(ref).tobytes()
        for a, b in ((bulk.block, one.block), (bulk.fwd, one.fwd)):
            assert a.tobytes() == b.tobytes()
        assert bulk.next_hop == one.next_hop

    def test_state_does_not_grow(self, cfg):
        st_a = analysis_state(cfg)
        st_p = power_state(cfg)
        shapes = [(a.shape, a.dtype) for a in (st_p.block, st_p.fwd)]
        x = white(200 * cfg.fifo_capacity * cfg.hop, N0 / L, 63)
        for lo in range(0, x.size, 9999):
            piece = x[lo : lo + 9999]
            silent = _silent_hops(piece, cfg, st_a)
            track_power(afb_process(piece, cfg, st_a), silent, cfg, st_p)
            assert [(a.shape, a.dtype) for a in (st_p.block, st_p.fwd)] == shapes
        assert st_p.next_hop == st_a.next_hop > 190 * cfg.fifo_capacity
        assert shapes == [((cfg.fifo_capacity, L), np.float64), ((L,), np.float64)]

    def test_silent_hops_hold_an_aligned_zero_block(self, cfg):
        # hop i is silent when [i*hop, i*hop + taps.size) fully contains
        # an aligned block of hop zeros: so is every hop whose bands are
        # all zero, and a gap of hop zeros off the block grid is not one
        d = cfg.hop
        span = cfg.waveform.prototype.taps.size
        x = white(9000, N0 / L, 65)
        x[1000 + 3 : 1000 + 3 + d] = 0.0  # straddles two blocks
        x[2000 : 2000 + d] = 0.0  # one block
        x[4001 : 4001 + 2 * d - 1] = 0.0  # holds one block
        x[6000 : 6000 + 2 * span] = 0.0  # whole windows
        silent = _silent_hops(x, cfg, analysis_state(cfg))
        values = afb_process(x, cfg, analysis_state(cfg))
        assert silent.shape == (values.shape[0],)
        zero_block = [not np.any(x[j * d : (j + 1) * d]) for j in range(x.size // d)]
        for i in range(silent.size):
            assert silent[i] == any(zero_block[i : i + span // d])
        assert np.all(silent[~np.any(values, axis=1)])
        assert not np.any(silent[: 2000 // d - span // d + 1])
        assert np.count_nonzero(silent[: 3000 // d]) == span // d
        # any cuts give the same flags
        st_a = analysis_state(cfg)
        pieces = []
        for lo in range(0, x.size, 37):
            pieces.append(_silent_hops(x[lo : lo + 37], cfg, st_a))
            afb_process(x[lo : lo + 37], cfg, st_a)
        assert np.array_equal(np.concatenate(pieces), silent)


class DirectFormSynthesis:
    """The tap-by-tap synthesis the polyphase form replaced, as an oracle.

    Every call loops over all interpolator taps x r, the r = L / hop
    analysis outputs per symbol, and adds each tap's contributions in
    ascending tap order, as the streaming code once did.  It returns the
    interpolated stream u at full rate, before the ramp that makes it y'
    (full_rate applies that ramp).
    """

    def __init__(self, cfg, r):
        self.cfg = cfg
        self.r = r
        self.taps = _interp_taps(cfg)
        self.delay = (self.taps.size - 1) // 2
        self.lag = (self.taps.size - 1) // cfg.hop + 1
        self.z_tail = np.zeros((self.lag - 1, cfg.num_subbands), dtype=np.complex128)
        self.tail_hop = -(self.lag - 1)
        self.next_out = 0

    def __call__(self, z_new):
        l = self.cfg.num_subbands
        d = self.cfg.hop
        r = self.r
        taps, delay, lag = self.taps, self.delay, self.lag
        z = np.concatenate([self.z_tail, z_new], axis=0)
        base_hop = self.tail_hop
        end_hop = base_hop + z.shape[0]
        m_stop = end_hop * d - delay
        m_start = self.next_out
        self.z_tail = z[-(lag - 1) :] if lag > 1 else z[:0]
        self.tail_hop = end_hop - (lag - 1)
        if m_stop <= m_start:
            return np.zeros(0, dtype=np.complex128)
        out = np.zeros(m_stop - m_start, dtype=np.complex128)
        for t in range(taps.size):
            coeff = taps[t]
            # hops i contribute to m = i*hop + t - delay
            i_lo = max(-(-(m_start + delay - t) // d), base_hop)
            i_hi = min(end_hop, (m_stop - 1 + delay - t) // d + 1)
            if i_hi <= i_lo:
                continue
            for residue in range(r):
                i0 = i_lo + ((residue - i_lo) % r)
                if i0 >= i_hi:
                    continue
                m0 = i0 * d + t - delay
                rows = z[i0 - base_hop : i_hi - base_hop : r, m0 % l]
                out[m0 - m_start : m0 - m_start + rows.size * l : l] += coeff * rows
        self.next_out = m_stop
        return out


def synthesized(values, phi, cfg):
    """u for one analysis block at full rate: whitening, then the oracle."""
    return DirectFormSynthesis(cfg, 2)(_whitened_residues(values, phi, cfg))


def full_rate(values, phi, cfg):
    """y'[m] = u[m] conj(phase[m mod 2L]), the matched-filter output."""
    u = synthesized(values, phi, cfg)
    ramp = _phase_table(cfg.num_subbands)[np.arange(u.size) % (2 * cfg.num_subbands)]
    return written_out_product(u, ramp.real, -ramp.imag)


def residue_block(y, p):
    """The rows l < p of y frame by frame: row l, column f is y[fL + l].

    Only frames whose p residues all lie in y are cut, which is the block
    _synthesize emits (of u) and matched_filter_bank reads.
    """
    frames = max(0, (y.size - p) // L + 1)
    return np.stack([y[l::L][:frames] for l in range(p)])


def twiddle(p, frames):
    """(-1)^f c_l for l < p, f < frames, c_l = phase[l]: phase[(fL + l) mod 2L].

    The factor between u, the stream _synthesize cuts its block from,
    and y'; the comb folds the (-1)^f into its odd symbols, so branch l
    of window j is (-1)^j c_l times the inner product with y'.
    """
    signs = np.where(np.arange(frames) % 2 == 1, -1.0, 1.0)
    return _phase_table(L)[:p, None] * signs


class TestSynthesis:
    # the cascade runs r = 2 analysis outputs per symbol
    @pytest.mark.parametrize("r", [2])
    def test_polyphase_matches_direct_form_bitwise(self, wf, cfg, r):
        # the residue block is u at m mod L < p bit for bit, and each call
        # emits exactly the frames whose p residues u holds so far; short
        # pushes hold frames back over several calls
        assert cfg.hop * r == L
        x = white(64000, 1.0, 21)
        # silent stretches give hops of exact (signed) zeros
        x[1000:1600] = 0.0
        x[3000:3600] = complex(-0.0, -0.0)
        x[9000:9600] = complex(0.0, -0.0)
        phi = np.linspace(0.5, 2.0, L)
        cuts = ([x.size], [0, 1, 37, 1, 0, 500, 37, 2000, 37, x.size], [0, 1] + [37] * 80)
        for steps in cuts:
            # whitening and the full-rate oracle do not depend on p
            st_a = analysis_state(cfg)
            oracle = DirectFormSynthesis(cfg, r)
            zs, ys = [], []
            lo = 0
            for step in steps:
                zs.append(_whitened_residues(afb_process(x[lo : lo + step], cfg, st_a), phi, cfg))
                ys.append(oracle(zs[-1]))
                lo += step
            for p in (1, P, L - 1):
                c = ChannelizerConfig(wf, p)
                st_s = synthesis_state(c)
                blocks = [_synthesize(z, c, st_s) for z in zs]
                for i in range(len(steps)):
                    y = np.concatenate(ys[: i + 1])
                    block = np.concatenate(blocks[: i + 1], axis=1)
                    assert block.tobytes() == residue_block(y, p).tobytes()
                    assert block.shape == (p, max(0, (y.size - p) // L + 1))
                assert block.shape[1] > 100
                if len(steps) == 1:
                    # the one-shot push spans at least 3 reduction blocks
                    per_block = max(1, _SYNTH_BLOCK_ELEMENTS // (2 * c.lag_hops * p))
                    assert block.shape[1] >= 3 * per_block

    @pytest.mark.parametrize("l", [16, 24])
    def test_whitening_matches_complex_gain_form_bitwise(self, l):
        # the samples times the gains w/phi, written out, then ifft times
        # L; L = 24 is not a power of two
        c = ChannelizerConfig(WaveformSpec(l, 8, symbol_duration_s=l / FS).build(), 4)
        values = white(40 * l, 1.0, 81).reshape(-1, l)
        values[3] = complex(-0.0, -0.0)
        values[4, ::2] = complex(0.0, -0.0)
        rng = np.random.default_rng(82)
        per_hop = rng.uniform(0.5, 2.0, values.shape)
        per_hop[5:9] = np.inf
        per_hop[10, :3] = np.inf
        for phi in (rng.uniform(0.5, 2.0, l), per_hop):
            scaled = written_out_product(values, c.weights.real / phi, c.weights.imag / phi)
            ref = np.fft.ifft(scaled, axis=1) * l
            assert _whitened_residues(values, phi, c).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("r", [2])
    def test_polyphase_table_is_interpolator_in_tap_order(self, cfg, r):
        taps = _interp_taps(cfg)
        assert cfg.coeffs.shape == (L // r, cfg.lag_hops)
        # coeffs[phase, k] is tap phase + k*hop
        in_tap_order = cfg.coeffs.T.ravel()
        assert 0 <= in_tap_order.size - taps.size < cfg.hop
        assert np.array_equal(in_tap_order[: taps.size], taps)
        assert not np.any(in_tap_order[taps.size :])
        assert cfg.delay == (taps.size - 1) // 2

    def test_unity_profile_reconstructs_matched_filter(self, wf, cfg):
        g = synthesize_pulse(wf).samples
        x = white(40000, 1.0, 7)
        values = afb_process(x, cfg, analysis_state(cfg))
        y = full_rate(values, np.ones(L), cfg)
        oracle = np.convolve(x, np.conj(g[::-1]))[len(g) - 1 : len(g) - 1 + y.size]
        lo, hi = 2 * len(g), y.size - 2 * len(g)
        err = np.linalg.norm(y[lo:hi] - oracle[lo:hi]) / np.linalg.norm(oracle[lo:hi])
        # measured 1.84e-3
        assert err < 0.01

    def test_delayed_pulse_lands_at_its_offset(self, wf, cfg):
        g = synthesize_pulse(wf).samples
        k0 = 777
        x = np.zeros(6000, dtype=np.complex128)
        x[k0 : k0 + g.size] = g
        values = afb_process(x, cfg, analysis_state(cfg))
        y = full_rate(values, np.ones(L), cfg)
        oracle = np.convolve(x, np.conj(g[::-1]))[g.size - 1 : g.size - 1 + y.size]
        err = np.linalg.norm(y - oracle) / np.linalg.norm(oracle)
        assert err < 0.01
        peak = int(np.argmax(np.abs(y)))
        assert peak == k0
        energy = float(np.sum(np.abs(g) ** 2))
        assert abs(y[peak]) == pytest.approx(energy, rel=0.01)

    def test_whitened_noise_spectrum_flat(self, cfg):
        x = white(1 << 19, 1.0, 3)
        values = afb_process(x, cfg, analysis_state(cfg))
        y = full_rate(values, np.ones(L), cfg)
        th = cfg.waveform.prototype.taps.size
        interior = y[4 * th : -(4 * th)]
        seg = 256
        frames = interior[: interior.size // seg * seg].reshape(-1, seg)
        psd = np.mean(np.abs(np.fft.fft(frames, axis=1)) ** 2, axis=0) / seg
        freqs = np.fft.fftfreq(seg)
        occupied = np.abs(freqs) <= (L - 2.0) / (2 * L)
        ripple = 10 * np.log10(psd[occupied].max() / psd[occupied].min())
        # measured 0.53 dB with 2047 averaged segments
        assert ripple < 1.0

    def test_strong_interferer_band_suppressed(self, wf, cfg):
        # an on-grid FFT line against summed quiet-band bins separates the
        # interferer from the skirts of its neighbours; band-meter readings
        # saturate near -8 dB because adjacent bands legitimately occupy
        # part of the notched slot through the rolloff transition
        h = cfg.waveform.prototype.taps
        th = h.size
        nu = wf.normalized_frequencies()
        j_band = 9
        n0 = 1.0
        ns = (1 << 17) + 8 * th
        x = white(ns, n0 / L, 6)
        amp = np.sqrt(1e4 * n0 / L) / np.abs(np.sum(h))
        x = x + amp * np.exp(2j * np.pi * nu[j_band] * np.arange(ns))
        profile = np.full(L, n0)
        profile[j_band] = n0 * (1.0 + 1e4)

        def line_over_quiet_db(phi):
            values = afb_process(x, cfg, analysis_state(cfg))
            y = full_rate(values, phi, cfg)
            nfft = 1 << 17
            spec = np.abs(np.fft.fft(y[2 * th : 2 * th + nfft])) ** 2
            freqs = np.fft.fftfreq(nfft)
            line = spec[round(nu[j_band] * nfft) % nfft]
            quiet = []
            for k in range(2, L - 2):
                if abs(k - j_band) <= 1:
                    continue
                band = np.abs(freqs - nu[k]) <= 1.0 / (2 * L)
                quiet.append(np.sum(spec[band]))
            return 10 * np.log10(line / np.median(quiet))

        unity = line_over_quiet_db(np.full(L, n0))
        whitened = line_over_quiet_db(profile)
        assert 39.0 < unity < 41.0
        assert -43.0 < whitened < -37.0

    def test_streaming_matches_batch_bitwise(self, cfg):
        x = white(30000, 1.0, 17)
        phi = np.full(L, 1.5)
        whole = residue_block(synthesized(afb_process(x, cfg, analysis_state(cfg)), phi, cfg), P)
        st_a = analysis_state(cfg)
        st_s = synthesis_state(cfg)
        pieces = []
        lo = 0
        for step in (100, 1, 5000, 0, 12345, 77, 3000, x.size):
            values = afb_process(x[lo : lo + step], cfg, st_a)
            pieces.append(_synthesize(_whitened_residues(values, phi, cfg), cfg, st_s))
            lo += step
        chunked = np.concatenate(pieces, axis=1)
        assert chunked.shape == whole.shape
        assert np.array_equal(chunked, whole)


class DirectFormComb:
    """The comb the per-symbol product table replaced, as an oracle.

    Every window multiplies its own N residues by the conjugate symbols,
    those of odd n negated, and sums them, as the streaming code once did.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.conj = np.conj(cfg.waveform.preamble_symbols)
        self.conj[1::2] = -self.conj[1::2]
        self.tail = np.zeros((cfg.branch_count, 0), dtype=np.complex128)

    def __call__(self, block):
        n = self.conj.size
        data = np.concatenate([self.tail, block], axis=1)
        n_windows = max(0, data.shape[1] - n + 1)
        out = np.empty((self.cfg.branch_count, n_windows), dtype=np.complex128)
        step = max(1, _MF_BLOCK_ELEMENTS // n)
        for lo in range(0, n_windows, step):
            windows = sliding_window_view(data[:, lo : lo + step + n - 1], n, axis=1)
            for branch, win in enumerate(windows):
                products = written_out_product(win, self.conj.real, self.conj.imag)
                out[branch, lo : lo + step] = products.sum(axis=1)
        self.tail = data[:, n_windows:].copy()
        return out


def comb_alphabets():
    """Preambles of 64 symbols over alphabets of 1, 2, 4, 4 and 64 values."""
    rng = np.random.default_rng(29)
    n = 64
    zeros = [complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0)]
    return {
        "qpsk": make_preamble_symbols(n, 7),
        "bpsk": rng.choice([1.0, -1.0], n).astype(np.complex128),
        "one": np.full(n, 0.6 - 0.8j),
        # equal by value in pairs, distinct by their signed zeros; each at
        # an even and an odd n, so the folded alphabet keeps all four
        "signed_zeros": np.array([z for z in zeros for _ in range(2)] * (n // 8)),
        "distinct": np.exp(2j * np.pi * rng.random(n)),
    }


def signed_zero_block(p, frames, seed):
    """A (p, frames) residue block of noise with silent +-0.0 stretches.

    Each stretch is longer than a 64-symbol window, so some windows sum
    nothing but signed zeros: one of -0.0 - 0.0j, one of +0.0 - 0.0j, and
    one mixing all four signed-zero pairs.
    """
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((p, frames)) + 1j * rng.standard_normal((p, frames))
    block[:, 100:180] = complex(-0.0, -0.0)
    block[:, 300:380] = complex(0.0, -0.0)
    signs = rng.choice([0.0, -0.0], (2, p, 80))
    block[:, 500:580].real, block[:, 500:580].imag = signs
    return block


class TestMatchedFilterBank:
    @pytest.mark.parametrize("alphabet", sorted(comb_alphabets()))
    def test_table_matches_direct_form_bitwise(self, wf, alphabet):
        # the table gathers the products the direct form computes and sums
        # them in its order, for any alphabet, whole or cut into frames
        symbols = comb_alphabets()[alphabet]
        # p = L - 1 cuts the branches into several groups, the last one short
        for p in (P, L - 1):
            c = ChannelizerConfig(dataclasses.replace(wf, preamble_symbols=symbols), p)
            # the alphabet of conj(s[n]), odd n negated, by bit pattern: -1 - 0j
            # is not -(1 - 0j), and the QPSK points are not antipodal to the bit
            sizes = {"one": 2, "bpsk": 4, "qpsk": 8, "signed_zeros": 4, "distinct": 64}
            assert c.symbol_values.size == sizes[alphabet]
            comb = DirectFormComb(c)
            assert c.symbol_values[c.symbol_index].tobytes() == comb.conj.tobytes()
            # three comb blocks of windows: the silent stretches fall in the first,
            # in the second and across the edge of the second and third
            frames = symbols.size - 1 + 3 * max(1, _MF_BLOCK_ELEMENTS // symbols.size)
            block = signed_zero_block(p, frames, 41)
            oracle = comb(block).tobytes()
            assert matched_filter_bank(block, c, mf_state(c)).tobytes() == oracle
            # calls of 8, 1 and 100 windows take the branches in groups:
            # all p, all p and 2 of them with the small alphabets, 3, 4 and
            # 1 with the 64-value one, so some last groups are short
            state = mf_state(c)
            pieces = []
            lo = 0
            for step in (0, 1, 3, 37, 30, 1, 100, frames):
                pieces.append(matched_filter_bank(block[:, lo : lo + step], c, state))
                lo += step
            assert np.concatenate(pieces, axis=1).tobytes() == oracle

    def test_peak_memory_is_one_branch_table(self, wf):
        # per-branch tables hold D*frames products at a time; one table for
        # all p branches would hold p times as many
        p, n, frames = 15, 64, 4000
        symbols = comb_alphabets()["distinct"]
        c = ChannelizerConfig(dataclasses.replace(wf, preamble_symbols=symbols), p)
        assert c.symbol_values.size == n
        block = signed_zero_block(p, frames, 43)
        tracemalloc.start()
        try:
            matched_filter_bank(block, c, mf_state(c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n * frames * 16

    def test_dense_columns_hit_single_branches(self, wf, cfg):
        dense = build_data_matrix(wf.preamble_symbols, L, P)
        for col in range(P):
            window = np.zeros(N * L + 4 * L, dtype=np.complex128)
            window[: N * L] = dense[:, col]
            block = residue_block(window, P)
            tw = twiddle(P, block.shape[1])
            branches = matched_filter_bank(block * tw, cfg, mf_state(cfg))
            assert branches[col, 0] == pytest.approx(N * tw[col, 0], abs=1e-9)
            others = np.delete(branches[:, 0], col)
            assert np.max(np.abs(others)) < 1e-9

    def test_matches_dense_inner_products(self, wf, cfg):
        dense = build_data_matrix(wf.preamble_symbols, L, P)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((N + 6) * L) + 1j * rng.standard_normal((N + 6) * L)
        block = residue_block(y, P)
        tw = twiddle(P, block.shape[1])
        branches = matched_filter_bank(block * tw, cfg, mf_state(cfg))
        for j in range(branches.shape[1]):
            ref = tw[:, j] * (dense.conj().T @ y[j * L : j * L + N * L])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(branches[:, j] - ref)) / scale < 1e-9

    def test_zero_input_zero_output(self, cfg):
        branches = matched_filter_bank(
            residue_block(np.zeros(3 * N * L, dtype=np.complex128), P), cfg, mf_state(cfg)
        )
        assert branches.shape[0] == P
        assert np.all(branches == 0.0)

    def test_streaming_matches_batch_bitwise(self, cfg):
        block = residue_block(white(9000, 1.0, 19), P)
        whole = matched_filter_bank(block, cfg, mf_state(cfg))
        state = mf_state(cfg)
        pieces = []
        lo = 0
        # frames: fewer than one window, none, then several windows at once
        for step in (3, 31, 0, 128, 1, 250):
            pieces.append(matched_filter_bank(block[:, lo : lo + step], cfg, state))
            lo += step
        pieces.append(matched_filter_bank(block[:, lo:], cfg, state))
        chunked = np.concatenate(pieces, axis=1)
        assert np.array_equal(chunked, whole)

    def test_score_is_scaled_branch_energy(self, cfg):
        # push is the stage chain: analysis, whitening and synthesis,
        # matched filter, then 2 * energy / beta, bit for bit
        x = white(6000, N0 / L, 23)
        phi = np.full(L, 1.5 * N0)
        anchors, stats = CascadeDetector(cfg, power_override=phi).push(x)
        values = afb_process(x, cfg, analysis_state(cfg))
        block = residue_block(synthesized(values, phi, cfg), P)
        branches = matched_filter_bank(block, cfg, mf_state(cfg))
        energies = (branches.real**2 + branches.imag**2).sum(axis=0)
        assert np.array_equal(anchors, np.arange(branches.shape[1]) * L)
        assert np.array_equal(stats, 2.0 * energies / compute_beta(phi, N, L))

    def test_score_input_validation(self, cfg):
        # the score divides by beta, so a pinned profile that would make
        # beta nonpositive or non-finite is refused up front
        for bad in (np.zeros(L), np.full(L, -1.0), np.full(L, np.nan)):
            with pytest.raises(ValueError):
                CascadeDetector(cfg, power_override=bad)


@pytest.fixture(scope="module")
def null_scores(cfg):
    # disjoint windows: anchors advance by L, windows span N*L
    n_win = 10_000
    need = ((n_win + 8) * N + 8 * N) * L
    x = white(need, N0 / L, 17)
    det = CascadeDetector(cfg, power_override=np.full(L, N0))
    anchors, stats = det.push(x)
    keep = stats[anchors >= 4 * N * L][::N][:n_win]
    assert keep.size == n_win
    return keep


@pytest.fixture(scope="module")
def dense(wf):
    return build_data_matrix(wf.preamble_symbols, L, P)


class TestNullCalibration:
    def test_noise_only_scores_follow_chi_squared(self, null_scores):
        # measured KS p = 0.54, mean 7.95 against chi-squared with 2p dof
        result = sps.kstest(null_scores, sps.chi2(2 * P).cdf)
        assert result.pvalue > 0.01
        assert abs(float(np.mean(null_scores)) - 2 * P) < 0.3

    def test_false_alarm_rate_within_binomial_interval(self, null_scores):
        p_fa = 1e-2
        rate = float(np.mean(null_scores > threshold(p_fa, P)))
        sigma = np.sqrt(p_fa * (1 - p_fa) / null_scores.size)
        assert abs(rate - p_fa) < 3 * sigma


class TestStatisticEquivalence:
    def gaps_against_reference(self, cfg, dense, phi):
        x = white(30000, N0 / L, 23)
        values = afb_process(x, cfg, analysis_state(cfg))
        scored = residue_block(synthesized(values, phi, cfg), P)
        plain = full_rate(values, np.ones(L), cfg)
        beta = compute_beta(phi, N, L)
        branches = matched_filter_bank(scored, cfg, mf_state(cfg))
        scores = 2.0 / beta * (branches.real**2 + branches.imag**2).sum(axis=0)
        gaps = []
        for j in range(60, scores.size - 60):
            ref = rao_low_complexity(plain[j * L : j * L + N * L], dense, phi, beta)
            gaps.append(abs(scores[j] - ref) / ref)
        return np.array(gaps)

    def test_white_profile_matches_reference(self, cfg, dense):
        gaps = self.gaps_against_reference(cfg, dense, np.full(L, N0))
        # flat whitening commutes through the bank exactly; measured 1.5e-15
        assert gaps.max() < 1e-9

    def test_colored_profile_gap_quantified(self, cfg, dense):
        # the reference whitens the finite window circulantly with brick
        # wall band edges, the bank whitens the running stream through the
        # prototype skirts, so they part ways near large power steps;
        # measured on a 350x two-band step: median 0.082, max 1.03
        phi = np.full(L, N0)
        phi[4] = 60.0
        phi[11] = 700.0
        gaps = self.gaps_against_reference(cfg, dense, phi)
        assert np.median(gaps) < 0.2
        assert gaps.max() < 2.0
        # milder coloring shrinks it: measured median 0.032, max 0.31
        mild = N0 * (1.0 + 0.4 * np.cos(2 * np.pi * np.arange(L) / L))
        mild_gaps = self.gaps_against_reference(cfg, dense, mild)
        assert np.median(mild_gaps) < 0.1
        assert np.median(mild_gaps) < np.median(gaps)


class TestDetection:
    def embedded_preamble(self, wf, amp, lead, trail, seed):
        g = generate_preamble(wf, synthesize_pulse(wf))
        sig = ComplexSignal(g.samples * amp, g.sample_rate_hz)
        return assemble_stream(sig, lead, trail, N0 / L, seed=seed)

    def test_tracked_mode_pins_preamble_start(self, wf, cfg):
        stream = self.embedded_preamble(wf, 0.4, 1600, 1500, 9)
        anchors, stats = CascadeDetector(cfg).push(stream.samples)
        assert anchors[np.argmax(stats)] == 1600
        assert stats.max() > threshold(1e-3, P)

    def test_calibrated_mode_pins_preamble_start(self, wf, cfg):
        stream = self.embedded_preamble(wf, 0.4, 1600, 1500, 9)
        det = CascadeDetector(cfg, power_override=np.full(L, N0))
        anchors, stats = det.push(stream.samples)
        assert anchors[np.argmax(stats)] == 1600
        assert np.count_nonzero(stats > threshold(1e-3, P)) == 3

    def test_weak_preamble_stays_quiet(self, wf, cfg):
        stream = self.embedded_preamble(wf, 0.15, 1600, 1500, 9)
        det = CascadeDetector(cfg, power_override=np.full(L, N0))
        _, stats = det.push(stream.samples)
        assert stats.size > 0
        assert not np.any(stats > threshold(1e-3, P))

    def test_empty_and_short_streams(self, cfg):
        det = CascadeDetector(cfg)
        for x in (np.zeros(0, dtype=np.complex128), np.zeros(3 * L, dtype=np.complex128)):
            anchors, stats = det.push(x)
            assert anchors.size == 0 and anchors.dtype == np.int64
            assert stats.size == 0 and stats.dtype == np.float64

    def test_override_length_mismatch_rejected(self, cfg):
        with pytest.raises(ValueError):
            CascadeDetector(cfg, power_override=np.ones(L + 1))

    def test_tracked_scores_invariant_to_input_scale(self, cfg):
        # beta and the branch energies rescale identically under x -> 4x,
        # and power-of-two factors round to nothing, so scores match bitwise
        x = white(20000, N0 / L, 29)
        a_anchors, a_stats = CascadeDetector(cfg).push(x)
        b_anchors, b_stats = CascadeDetector(cfg).push(4.0 * x)
        assert np.array_equal(a_anchors, b_anchors)
        assert np.array_equal(a_stats, b_stats)

    def test_chunked_equals_one_shot_bitwise(self, cfg):
        x = white(24000, N0 / L, 31)
        whole_anchors, whole_stats = CascadeDetector(cfg).push(x)
        det = CascadeDetector(cfg)
        anchors, stats = [], []
        lo = 0
        for step in (7, 1290, 0, 5000, 63, 9000, 1):
            a, s = det.push(x[lo : lo + step])
            anchors.append(a)
            stats.append(s)
            lo += step
        a, s = det.push(x[lo:])
        anchors.append(a)
        stats.append(s)
        assert np.array_equal(np.concatenate(anchors), whole_anchors)
        assert np.array_equal(np.concatenate(stats), whole_stats)
        assert whole_stats.size > 0 and np.all(np.isfinite(whole_stats))

    @pytest.mark.parametrize("tracked", [False, True], ids=["calibrated", "tracked"])
    def test_single_window_pushes_equal_one_shot_bitwise(self, wf, tracked):
        # with p >= 8 branches, a push that completes one window must add
        # the branch energies in the order a many-window push does
        c = ChannelizerConfig(wf, 8)
        x = white(6000, N0 / L, 47)
        override = None if tracked else np.full(L, N0)
        whole_anchors, whole_stats = CascadeDetector(c, power_override=override).push(x)
        det = CascadeDetector(c, power_override=override)
        pieces = [det.push(x[lo : lo + 7]) for lo in range(0, x.size, 7)]
        assert whole_stats.size > 100
        assert np.concatenate([a for a, _ in pieces]).tobytes() == whole_anchors.tobytes()
        assert np.concatenate([s for _, s in pieces]).tobytes() == whole_stats.tobytes()

    @pytest.mark.parametrize("tracked", [False, True], ids=["calibrated", "tracked"])
    def test_most_branches_chunked_equals_one_shot_bitwise(self, wf, tracked):
        # with p = L - 1 a frame waits for its newest residue longer than
        # any other p, so short pushes hold the most frames back
        c = ChannelizerConfig(wf, L - 1)
        x = white(8000, N0 / L, 49)
        override = None if tracked else np.full(L, N0)
        whole_anchors, whole_stats = CascadeDetector(c, power_override=override).push(x)
        det = CascadeDetector(c, power_override=override)
        steps = [0, 1, 37, 1, 0, 37] + [37] * 60 + [x.size]
        pieces = []
        lo = 0
        for step in steps:
            pieces.append(det.push(x[lo : lo + step]))
            lo += step
        assert whole_stats.size > 100
        assert np.concatenate([a for a, _ in pieces]).tobytes() == whole_anchors.tobytes()
        assert np.concatenate([s for _, s in pieces]).tobytes() == whole_stats.tobytes()

    @pytest.mark.parametrize("first", [7, 1000])
    @pytest.mark.parametrize("tracked", [False, True], ids=["calibrated", "tracked"])
    def test_refilled_buffer_equals_copies_bitwise(self, cfg, tracked, first):
        # a reader that refills one array between pushes gets the scores
        # of fresh arrays: no stage state may be a view of its input (a
        # first push shorter than the prototype is kept whole)
        sizes = [first] + [1000] * 9
        x = white(sum(sizes), N0 / L, 37)
        override = None if tracked else np.full(L, N0)
        fresh = CascadeDetector(cfg, power_override=override)
        reused = CascadeDetector(cfg, power_override=override)
        buf = np.empty(1000, dtype=np.complex128)
        lo = 0
        for n in sizes:
            a, s = fresh.push(x[lo : lo + n].copy())
            buf[:n] = x[lo : lo + n]
            b, t = reused.push(buf[:n])
            buf[:] = np.nan
            assert np.array_equal(a, b) and np.array_equal(s, t)
            lo += n
        assert s.size > 0

    @pytest.mark.parametrize("tracked", [False, True], ids=["calibrated", "tracked"])
    def test_non_finite_push_refused_before_any_state_moves(self, cfg, tracked):
        x = white(12000, N0 / L, 39)
        pieces = [x[:5000], x[5000:6000], x[6000:]]
        override = None if tracked else np.full(L, N0)
        ref = CascadeDetector(cfg, power_override=override)
        want = [ref.push(piece) for piece in pieces]
        det = CascadeDetector(cfg, power_override=override)
        got = [det.push(pieces[0])]
        for value in (np.nan, np.inf, complex(0.0, -np.inf)):
            bad = pieces[1].copy()
            bad[400] = value
            with pytest.raises(ValueError, match="finite"):
                det.push(bad)
        # a scalar or a column or row matrix is refused too, not broadcast
        for shape in ((), (64, 1), (1, 64)):
            with pytest.raises(ValueError, match="one-dimensional"):
                det.push(np.ones(shape, dtype=np.complex128))
        got += [det.push(piece) for piece in pieces[1:]]
        assert want[-1][1].size > 0
        for (a, s), (b, t) in zip(want, got):
            assert a.tobytes() == b.tobytes() and s.tobytes() == t.tobytes()

    @pytest.mark.parametrize("gap", [1000, 5000])
    def test_digital_silence_scores_finite(self, cfg, gap):
        # hops whose power window holds a silent hop have no estimate:
        # they whiten to zero, and windows whose beta hop is one of them
        # score 0.0; the anchor grid stays regular
        x = white(40000, N0 / L, 45)
        x[20000 : 20000 + gap] = 0.0
        anchors, stats = CascadeDetector(cfg).push(x)
        assert np.all(np.isfinite(stats))
        # nor is the filter transient after the gap taken for the noise
        # level: the scores stay at the clean stream's (measured 35.8)
        assert stats.max() < threshold(1e-6, P)
        assert np.array_equal(anchors, anchors[0] + L * np.arange(anchors.size))
        assert np.count_nonzero(stats == 0.0) > 0
        # streams are causal, so the windows before the gap keep their bytes
        clean_anchors, clean_stats = CascadeDetector(cfg).push(x[:20000])
        assert clean_stats.tobytes() == stats[: clean_stats.size].tobytes()
        assert clean_anchors.tobytes() == anchors[: clean_anchors.size].tobytes()

    def test_short_digital_silence_stays_below_threshold(self, cfg):
        # a gap shorter than the analysis prototype still holds aligned
        # blocks of hop zeros, so the hops that see it are silent and the
        # filter transient after it is not taken for the noise level;
        # measured 35.8, as without the gap
        x = white(40000, N0 / L, 45)
        x[20000:20100] = 0.0
        _, stats = CascadeDetector(cfg).push(x)
        assert stats.max() < threshold(1e-6, P)

    def test_tracked_scoring_waits_for_estimator_fill(self, cfg):
        x = white(8000, N0 / L, 33)
        tracked_anchors, _ = CascadeDetector(cfg).push(x)
        calibrated_anchors, _ = CascadeDetector(
            cfg, power_override=np.full(L, N0)
        ).push(x)
        assert calibrated_anchors[0] == 0
        # warmup spans the estimator fill plus the interpolator delay
        assert tracked_anchors[0] == 336
        assert tracked_anchors[0] % L == 0


class TestToneInOneBand:
    """A strong narrowband interferer through the whole desk cascade: the
    tracked whitener holds the statistic's null mean, a white calibration
    lets the tone through."""

    @pytest.fixture(scope="class")
    def desk(self):
        sc = preset("desk")
        return ChannelizerConfig(sc.waveform.build(), sc.detector.p)

    @staticmethod
    def mean_over_2p(x, cfg, override=None):
        _, stats = CascadeDetector(cfg, power_override=override).push(x)
        return float(np.mean(stats)) / (2 * cfg.branch_count)

    @pytest.mark.parametrize("tone_db", [20.0, 40.0])
    def test_tracked_mean_stays_at_its_tone_free_level(self, desk, tone_db):
        l = desk.num_subbands
        n = 400_000
        # N0 = 1 at the matched-filter plane: variance 1/(2L) per component
        noise = white(n, 1.0 / l, 3)
        # tone power tone_db over the stream's noise power, 0.1 of a band
        # spacing off band 20's center
        nu = desk.waveform.normalized_frequencies()[20] + 0.1 / l
        tone = np.sqrt(10 ** (tone_db / 10) / l) * np.exp(2j * np.pi * nu * np.arange(n))
        white_phi = np.ones(l)
        tracked_free = self.mean_over_2p(noise, desk)
        calibrated_free = self.mean_over_2p(noise, desk, white_phi)
        tracked = self.mean_over_2p(noise + tone, desk)
        calibrated = self.mean_over_2p(noise + tone, desk, white_phi)
        # measured over seeds 0-11: tone-free tracked 1.038-1.060 (its
        # estimator's bias) and calibrated 0.99-1.02.  Over 22 seed runs
        # at this offset and at 0.13, the tone moved tracked by at most
        # 0.69% of its tone-free mean (seed 3 here: -0.42% at +20 dB,
        # -0.66% at +40 dB); 3% keeps four times that.  Calibrated read
        # 91 and 9,037.
        assert abs(calibrated_free - 1.0) < 0.05
        assert abs(tracked / tracked_free - 1.0) < 0.03
        assert calibrated > 0.5 * 10 ** (tone_db / 10)


def direct_pass(x, cfg, phi):
    """Calibrated statistics of one pass of each stage over all of x."""
    values = afb_process(x, cfg, analysis_state(cfg))
    z = _whitened_residues(values, phi, cfg)
    branches = matched_filter_bank(_synthesize(z, cfg, synthesis_state(cfg)), cfg, mf_state(cfg))
    energies = np.zeros(branches.shape[1])
    for row in branches:
        energies += row.real**2 + row.imag**2
    return 2.0 * energies / compute_beta(phi, cfg.preamble_length, cfg.num_subbands)


# (preset, samples, sha256 prefix of a tracked push of pinned_stream)
TRACKED_DIGESTS = [
    ("desk", 600_000, "c51849db260a9a69"),
    ("narrowband", 2_500_000, "e2561afdcd615e21"),
    ("wideband_short", 600_000, "967366f3e51e25de"),
]


def pinned_stream(n, hop):
    """Unit-power noise with zeros over [200000, +3*hop + 7), -0.0 over
    [400000, +40*hop) and zeros over [500000, +hop - 1)."""
    rng = np.random.default_rng(7)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    x[200_000 : 200_000 + 3 * hop + 7] = 0.0
    x[400_000 : 400_000 + 40 * hop] = -0.0
    x[500_000 : 500_000 + hop - 1] = 0.0
    return x


def push_peaks(cfg, override):
    """tracemalloc peaks of one push of 2^19 and of 2^21 samples."""
    x = white(1 << 21, 1.0, 73)
    peaks = []
    for n in (1 << 19, 1 << 21):
        det = CascadeDetector(cfg, power_override=override)
        tracemalloc.start()
        try:
            det.push(x[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestBoundedPush:
    """A long push runs the stage chain in slices of _PUSH_SAMPLES."""

    @pytest.fixture(scope="class")
    def stream(self):
        # two and a half slices and a ragged end, with silence across the
        # first slice edge: -0.0 - 0.0j, then every signed-zero pair at random
        x = white(5 * _PUSH_SAMPLES // 2 + 37, N0 / L, 71)
        edge = _PUSH_SAMPLES
        x[edge - 700 : edge + 700] = complex(-0.0, -0.0)
        signs = np.random.default_rng(72).choice([0.0, -0.0], (2, 1400))
        x[edge + 700 : edge + 2100].real, x[edge + 700 : edge + 2100].imag = signs
        return x

    def test_calibrated_push_equals_one_stage_pass_bitwise(self, cfg, stream):
        phi = np.full(L, N0)
        anchors, stats = CascadeDetector(cfg, power_override=phi).push(stream)
        direct = direct_pass(stream, cfg, phi)
        assert stats.tobytes() == direct.tobytes()
        assert np.array_equal(anchors, L * np.arange(direct.size))

    @pytest.mark.parametrize("tracked", [False, True], ids=["calibrated", "tracked"])
    def test_push_equals_chunked_bitwise(self, cfg, stream, tracked):
        override = None if tracked else np.full(L, N0)
        whole = CascadeDetector(cfg, power_override=override).push(stream)
        det = CascadeDetector(cfg, power_override=override)
        step = 37 * 1001
        parts = [det.push(stream[lo : lo + step]) for lo in range(0, stream.size, step)]
        for k in range(2):
            assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes()
        assert whole[1].size > 2 * _PUSH_SAMPLES // L
        # an empty push mid-stream still returns the two empty arrays
        anchors, stats = det.push(np.zeros(0, dtype=np.complex128))
        assert anchors.size == 0 and anchors.dtype == np.int64
        assert stats.size == 0 and stats.dtype == np.float64

    @pytest.mark.parametrize("tracked", [False, True], ids=["calibrated", "tracked"])
    def test_non_finite_in_last_slice_refused_before_any_state_moves(self, cfg, stream, tracked):
        override = None if tracked else np.full(L, N0)
        whole = CascadeDetector(cfg, power_override=override).push(stream)
        det = CascadeDetector(cfg, power_override=override)
        head = det.push(stream[:1000])
        bad = stream[1000:].copy()
        bad[-5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            det.push(bad)
        rest = det.push(stream[1000:])
        for k in range(2):
            assert np.concatenate([head[k], rest[k]]).tobytes() == whole[k].tobytes()

    @pytest.fixture(scope="class")
    def narrowband(self):
        # L = 1024, N = 977, p = 40 over about 2.5 M samples: each slice of
        # a one-shot push spans several analysis fold blocks and comb
        # blocks, which no config above (L <= 64) does
        sc = preset("narrowband")
        rng = np.random.default_rng(1)
        x = (rng.standard_normal(2_500_000) + 1j * rng.standard_normal(2_500_000)) / np.sqrt(2)
        return ChannelizerConfig(sc.waveform.build(), sc.detector.p), x

    @pytest.mark.parametrize("tracked", [False, True], ids=["calibrated", "tracked"])
    def test_narrowband_push_equals_chunked_and_one_stage_pass(self, narrowband, tracked):
        cfg, x = narrowband
        phi = np.ones(cfg.num_subbands)
        override = None if tracked else phi
        whole = CascadeDetector(cfg, power_override=override).push(x)
        det = CascadeDetector(cfg, power_override=override)
        step = 37 * 1001
        parts = [det.push(x[lo : lo + step]) for lo in range(0, x.size, step)]
        for k in range(2):
            assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes()
        assert whole[1].size > 0
        if not tracked:
            assert whole[1].tobytes() == direct_pass(x, cfg, phi).tobytes()

    @pytest.mark.parametrize(
        "name,n,digest", TRACKED_DIGESTS, ids=["desk", "narrowband", "wideband_short_radio0"]
    )
    def test_tracked_bytes_pinned(self, request, name, n, digest):
        # tracked anchors and statistics, one-shot and in 37,037-sample
        # pushes, over noise with zeroed and -0.0 stretches
        if name == "narrowband":
            cfg = request.getfixturevalue("narrowband")[0]
        elif name == "wideband_short":
            # radio 0 of 8: K = 512, p = 13, cap = 126, 8 whole blocks a pass
            cfg = harness._bundle(preset(name)).cfg
        else:
            sc = preset(name)
            cfg = ChannelizerConfig(sc.waveform.build(), sc.detector.p)
        x = pinned_stream(n, cfg.hop)
        det = CascadeDetector(cfg)
        step = 37 * 1001
        parts = [det.push(x[lo : lo + step]) for lo in range(0, n, step)]
        chunked = [np.concatenate([part[k] for part in parts]) for k in range(2)]
        for anchors, stats in (CascadeDetector(cfg).push(x), chunked):
            assert hashlib.sha256(anchors.tobytes() + stats.tobytes()).hexdigest()[:16] == digest

    def test_peak_memory_does_not_grow_with_push_length(self):
        # L = 4096, p = 104: one stage pass over 2^21 samples held four
        # (hops, L) blocks of 64 MiB each
        cfg = ChannelizerConfig(preset("wideband").waveform.build(), 104)
        peaks = push_peaks(cfg, np.ones(cfg.num_subbands))
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("name", ["desk", "wideband"])
    def test_tracked_peak_memory_does_not_grow_with_push_length(self, name):
        # desk (cap = 64 hops of 32) sums 128 whole blocks per pass as one
        # (blocks, cap, L) array; wideband (L = 4096, cap = 1250) none
        sc = preset(name)
        cfg = ChannelizerConfig(sc.waveform.build(), sc.detector.p)
        peaks = push_peaks(cfg, None)
        assert peaks[1] <= 1.25 * peaks[0]
