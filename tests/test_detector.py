"""Decision-layer tests.

Expected values come from three independent routes: closed forms (the
dof-2 threshold, the white-noise statistic reduction, the Sidak grid
target), the frozen chi-squared oracles validated in test_numerics, and
the exact circulant factorization of the per-band Fisher information
(off-diagonal (l,m) entry = A(l-m) * B(l-m) / L with A the symbol-DFT
moment and B the DFT of the inverse band profile), which this file
recomputes from scratch.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fbmcss import detector
from fbmcss.detector import (
    DetectionConfig,
    cfo_grid,
    compute_beta,
    eta_for_pd,
    fim_approx_report,
    fim_matrix,
    ideal_band_split,
    mrb_fim_report,
    noncentrality_at_eta,
    rao_exact,
    rao_low_complexity,
    theory_pd,
    threshold,
)
from fbmcss.numerics import chi2_tail
from fbmcss.waveform import build_data_matrix, make_preamble_symbols

# Frozen in test_numerics against scipy and a 40-digit mpmath sweep.
THRESH_P4_PFA1E3 = 26.124481558376143


@functools.cache
def tone_block(band: int, preamble_length: int, num_subbands: int) -> int:
    """Locate a band's DFT-bin block by placing a tone at its center.

    One FFT of N*L points per call, and the FIM tests ask for the same
    bands many times, so each answer is kept.
    """
    nl = preamble_length * num_subbands
    nu = (2 * band - num_subbands - 1) / (2 * num_subbands)
    tone = np.exp(2j * np.pi * nu * np.arange(nl))
    return int(np.argmax(np.abs(np.fft.fft(tone)))) // preamble_length


def per_bin_psd(phi: np.ndarray, preamble_length: int) -> np.ndarray:
    """Expand per-band PSD values onto the fine DFT grid."""
    num_subbands = phi.size
    out = np.empty(preamble_length * num_subbands)
    for band in range(num_subbands):
        blk = tone_block(band, preamble_length, num_subbands)
        out[blk * preamble_length : (blk + 1) * preamble_length] = phi[band]
    return out


def circulant_covariance(per_bin: np.ndarray) -> np.ndarray:
    nl = per_bin.size
    col = np.fft.ifft(per_bin.astype(np.complex128))
    idx = (np.arange(nl)[:, None] - np.arange(nl)[None, :]) % nl
    return col[idx]


def colored_noise(rng: np.random.Generator, per_bin: np.ndarray) -> np.ndarray:
    white = (rng.standard_normal(per_bin.size) + 1j * rng.standard_normal(per_bin.size))
    return np.fft.ifft(np.fft.fft(white / np.sqrt(2.0), norm="ortho") * np.sqrt(per_bin), norm="ortho")


def model(preamble_length: int, num_subbands: int, taps: int, seed: int = 2):
    s = make_preamble_symbols(preamble_length, symbol_seed=seed)
    h = build_data_matrix(s, num_subbands, taps)
    return s, h


class TestDetectionConfig:
    def test_taps_per_radio(self):
        cfg = DetectionConfig(p=8, p_fa=1e-3, radios=4)
        assert cfg.taps_per_radio == 2

    def test_indivisible_taps_rejected(self):
        with pytest.raises(ValueError):
            DetectionConfig(p=6, p_fa=1e-3, radios=4)

    def test_ranges(self):
        for bad in (dict(p=0, p_fa=0.5), dict(p=1, p_fa=0.0), dict(p=1, p_fa=1.0),
                    dict(p=1, p_fa=0.5, radios=0)):
            with pytest.raises(ValueError):
                DetectionConfig(**bad)


class TestComputeBeta:
    def test_white_noise(self):
        n0 = 15.625
        beta = compute_beta(np.full(64, n0), 32, 64)
        assert beta == pytest.approx(32 / n0, rel=1e-12)

    def test_arithmetic(self):
        assert compute_beta(np.array([1.0, 1.0, 2.0, 2.0]), 32, 4) == pytest.approx(24.0, rel=1e-12)

    def test_interfered_band_drops_out(self):
        base = np.ones(4)
        hot = base.copy()
        hot[3] = 1e15
        # an unusable band only costs its 1/L share of the sum
        assert compute_beta(hot, 32, 4) == pytest.approx(32 / 4 * 3.0, rel=1e-9)

    def test_rows_give_one_beta_each(self):
        # a (rows, L) block gives each row's beta bit for bit, and a band
        # with no estimate (+inf) adds nothing, so such a row gives 0.0
        rng = np.random.default_rng(2)
        rows = rng.uniform(0.5, 4.0, size=(5, 64))
        rows[3] = np.inf
        rows[4, :7] = np.inf
        betas = compute_beta(rows, 32, 64)
        assert betas.shape == (5,)
        assert betas.tolist() == [compute_beta(row, 32, 64) for row in rows]
        assert betas[3] == 0.0
        assert betas[4] == pytest.approx(32 / 64 * np.sum(1.0 / rows[4, 7:]), rel=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_beta(np.array([1.0, -1.0]), 4, 2)
        with pytest.raises(ValueError):
            compute_beta(np.array([1.0, 0.0]), 4, 2)
        with pytest.raises(ValueError):
            compute_beta(np.ones(3), 4, 2)
        with pytest.raises(ValueError):
            compute_beta(np.ones(2), 0, 2)


class TestThreshold:
    def test_dof2_closed_form(self):
        assert threshold(1e-3, 1, 1) == pytest.approx(-2.0 * math.log(1e-3), rel=1e-12)

    def test_p4_frozen(self):
        assert threshold(1e-3, 4, 1) == pytest.approx(THRESH_P4_PFA1E3, rel=1e-12)

    def test_grid_forms_agree_at_small_pfa(self):
        # per-candidate tail against 1 - (1 - P_FA)^(1/J) to 50 digits;
        # P_FA/J is 4.9e-9 relative off it at P_FA = 1e-8, J = 79
        p = 4
        for p_fa in (1e-2, 1e-3, 1e-8):
            for j in (2, 79):
                with localcontext() as ctx:
                    ctx.prec = 50
                    sidak = float(1 - (1 - Decimal(p_fa)) ** (Decimal(1) / j))
                tail = chi2_tail(2 * p, threshold(p_fa, p, j))
                assert abs(tail - sidak) <= 1e-9 * sidak

    def test_grid_raises_threshold(self):
        assert threshold(1e-2, 4, 10) > threshold(1e-2, 4, 1)

    def test_round_trip(self):
        for p_fa in (0.5, 1e-2, 1e-6):
            gamma = threshold(p_fa, 4, 1)
            assert chi2_tail(8, gamma) == pytest.approx(p_fa, rel=1e-9)

    @given(st.floats(min_value=1e-9, max_value=0.5), st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_pfa(self, p_fa, p):
        assert threshold(p_fa, p, 1) >= threshold(min(2 * p_fa, 0.9), p, 1)

    def test_rejects_invalid(self):
        for args in ((0.0, 1, 1), (1.0, 1, 1), (1e-3, 0, 1), (1e-3, 1, 0)):
            with pytest.raises(ValueError):
                threshold(*args)


class TestRaoExact:
    def test_white_column_closed_form(self):
        # u = H^H y / n0 = (N c / n0) e_l and M = (N/n0) I, so
        # T = 2 u^H M^-1 u = 2 N |c|^2 / n0.
        rng = np.random.default_rng(4)
        preamble_length, num_subbands, taps = 8, 16, 4
        _, h = model(preamble_length, num_subbands, taps)
        n0 = 0.7
        c_w = n0 * np.eye(preamble_length * num_subbands)
        scale = 1.3 - 0.4j
        for col in range(taps):
            value = rao_exact(scale * h[:, col], h, c_w)
            assert value == pytest.approx(2 * preamble_length * abs(scale) ** 2 / n0, rel=1e-9)

    def test_zero_input(self):
        _, h = model(4, 8, 2)
        assert rao_exact(np.zeros(32), h, np.eye(32)) == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        _, h = model(4, 8, 2)
        y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        c_w = np.diag(rng.uniform(0.5, 2.0, 32))
        base = rao_exact(y, h, c_w)
        assert rao_exact(2.5j * y, h, c_w) == pytest.approx(2.5**2 * base, rel=1e-10)

    def test_singular_covariance_raises(self):
        _, h = model(4, 8, 2)
        with pytest.raises(np.linalg.LinAlgError):
            rao_exact(np.ones(32), h, np.zeros((32, 32)))

    def test_dimension_mismatch(self):
        _, h = model(4, 8, 2)
        with pytest.raises(ValueError):
            rao_exact(np.ones(16), h, np.eye(16))


class TestRaoLowComplexity:
    def test_white_matches_exact(self):
        rng = np.random.default_rng(6)
        preamble_length, num_subbands, taps = 8, 64, 4  # NL = 512
        _, h = model(preamble_length, num_subbands, taps)
        n0 = 0.8
        c_w = n0 * np.eye(preamble_length * num_subbands)
        phi = np.full(num_subbands, n0)
        beta = compute_beta(phi, preamble_length, num_subbands)
        for _ in range(10):
            y = colored_noise(rng, np.full(512, n0))
            exact = rao_exact(y, h, c_w)
            fast = rao_low_complexity(y, h, phi, beta)
            assert fast == pytest.approx(exact, rel=1e-6)

    def test_colored_within_two_percent(self):
        # Single narrowband interferer at 10x: the beta*I replacement of
        # the information matrix is an approximation here, not an identity.
        rng = np.random.default_rng(7)
        preamble_length, num_subbands, taps = 4, 256, 8
        _, h = model(preamble_length, num_subbands, taps)
        phi = np.ones(num_subbands)
        phi[100] = 10.0
        per_bin = per_bin_psd(phi, preamble_length)
        c_w = circulant_covariance(per_bin)
        beta = compute_beta(phi, preamble_length, num_subbands)
        gaps = []
        for _ in range(6):
            y = colored_noise(rng, per_bin)
            exact = rao_exact(y, h, c_w)
            gaps.append(abs(rao_low_complexity(y, h, phi, beta) - exact) / exact)
        assert max(gaps) < 0.02
        assert max(gaps) > 1e-8  # the approximation is genuinely inexact

    def test_zero_input(self):
        _, h = model(4, 8, 2)
        assert rao_low_complexity(np.zeros(32), h, np.ones(8), 4.0) == 0.0

    def test_boosted_band_suppression(self):
        # an interferer confined to one band scales as 1/phi_k^2 inside
        # the statistic and only costs beta its 1/L share, so marking
        # the band at 100x knocks the response down by ~1e4
        rng = np.random.default_rng(8)
        preamble_length, num_subbands = 8, 64
        _, h = model(preamble_length, num_subbands, 4)
        nl = preamble_length * num_subbands
        band = 20
        blk = tone_block(band, preamble_length, num_subbands)
        spectrum = np.zeros(nl, dtype=complex)
        spectrum[blk * preamble_length : (blk + 1) * preamble_length] = rng.standard_normal(
            preamble_length
        ) + 1j * rng.standard_normal(preamble_length)
        interferer = np.fft.ifft(spectrum, norm="ortho")
        flat = np.ones(num_subbands)
        boosted = flat.copy()
        boosted[band] = 100.0
        t_flat = rao_low_complexity(
            interferer, h, flat, compute_beta(flat, preamble_length, num_subbands)
        )
        t_boost = rao_low_complexity(
            interferer, h, boosted, compute_beta(boosted, preamble_length, num_subbands)
        )
        expected = 100.0**2 * (num_subbands - 1 + 0.01) / num_subbands
        assert t_flat / t_boost == pytest.approx(expected, rel=1e-9)
        assert 9.0e3 < t_flat / t_boost < 1.05e4

    def test_rejects_bad_inputs(self):
        _, h = model(4, 8, 2)
        with pytest.raises(ValueError):
            rao_low_complexity(np.ones(32), h, np.ones(8), 0.0)
        with pytest.raises(ValueError):
            rao_low_complexity(np.ones(30), h, np.ones(8), 1.0)


class TestMrbCombine:
    def test_split_preserves_energy(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        parts = ideal_band_split(y, 16, 4)
        assert sum(float(np.sum(np.abs(p) ** 2)) for p in parts) == pytest.approx(
            float(np.sum(np.abs(y) ** 2)), rel=1e-12
        )

    @pytest.mark.parametrize("num_subbands,radios", [(64, 2), (64, 4), (4096, 8), (16, 16)])
    def test_split_equals_per_band_copies_bitwise(self, num_subbands, radios):
        # the oracle moves each band's n bins with its own slice copy
        rng = np.random.default_rng(12)
        l, k, n = num_subbands, num_subbands // radios, 3
        y = rng.standard_normal(n * l) + 1j * rng.standard_normal(n * l)
        spectrum = np.fft.fft(y, norm="ortho")
        src_block = (np.arange(l) - l // 2 - 1) % l
        dst_block = (np.arange(k) - k // 2 - 1) % k
        for m, part in enumerate(ideal_band_split(y, l, radios)):
            sub = np.zeros(n * k, dtype=np.complex128)
            for j in range(k):
                src, dst = src_block[m * k + j] * n, dst_block[j] * n
                sub[dst : dst + n] = spectrum[src : src + n]
            assert part.tobytes() == np.fft.ifft(sub, norm="ortho").tobytes()

    def test_null_law_matches_srb(self):
        # MRB recombines the same information non-coherently: the per-
        # realization value differs from SRB, the chi-squared null law
        # (2p dof) does not.
        rng = np.random.default_rng(10)
        preamble_length, num_subbands, radios, taps = 4, 16, 4, 4
        bands_per_radio = num_subbands // radios
        taps_per_radio = taps // radios
        _, h = model(preamble_length, num_subbands, taps)
        _, h_radio = model(preamble_length, bands_per_radio, taps_per_radio)
        srb, mrb = [], []
        for _ in range(4000):
            y = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / np.sqrt(2)
            srb.append(2.0 / preamble_length * np.sum(np.abs(h.conj().T @ y) ** 2))
            parts = ideal_band_split(y, num_subbands, radios)
            mrb.append(
                sum(
                    2.0 / preamble_length * np.sum(np.abs(h_radio.conj().T @ part) ** 2)
                    for part in parts
                )
            )
        for sample in (srb, mrb):
            assert np.mean(sample) == pytest.approx(2 * taps, abs=0.3)
            assert stats.kstest(sample, stats.chi2(df=2 * taps).cdf).pvalue > 0.01

    @pytest.mark.xfail(
        strict=True,
        reason="per-radio windows carry q = p/M reduced-rate taps, so the "
        "combined statistic is a different projection of the same window; "
        "it matches the SRB statistic in law (and in lambda), not pointwise "
        "(measured median gap ~27% at L=64, M=4)",
    )
    def test_pointwise_srb_equality(self):
        rng = np.random.default_rng(11)
        preamble_length, num_subbands, radios, taps = 32, 64, 4, 4
        _, h = model(preamble_length, num_subbands, taps)
        _, h_radio = model(preamble_length, num_subbands // radios, taps // radios)
        y = (rng.standard_normal(2048) + 1j * rng.standard_normal(2048)) / np.sqrt(2)
        srb = 2.0 / preamble_length * np.sum(np.abs(h.conj().T @ y) ** 2)
        mrb = sum(
            2.0 / preamble_length * np.sum(np.abs(h_radio.conj().T @ part) ** 2)
            for part in ideal_band_split(y, num_subbands, radios)
        )
        assert mrb == pytest.approx(srb, rel=1e-6)


def noncentrality(thetas, phis, preamble_length: int, bands_per_radio: int) -> float:
    """lambda = sum over radios of 2 theta_m^H theta_m beta_m."""
    return sum(
        2.0 * float(np.sum(np.abs(t) ** 2)) * compute_beta(phi, preamble_length, bands_per_radio)
        for t, phi in zip(thetas, phis)
    )


def deflection_pd(p_fa: float, d2: float) -> float:
    """Gaussian-approximation P_D = Q(Q^-1(P_FA) - sqrt(d2))."""
    return float(stats.norm.sf(stats.norm.isf(p_fa) - math.sqrt(d2)))


class TestNoncentrality:
    def test_desk_value(self):
        # eta = 0.01 with unit noise PSD and L = 64 means theta energy 0.64
        theta = np.zeros(4, dtype=complex)
        theta[0] = math.sqrt(0.64) * 1j
        lam = noncentrality([theta], [np.ones(64)], 32, 64)
        assert lam == pytest.approx(40.96, rel=1e-12)

    def test_white_mrb_equals_srb(self):
        rng = np.random.default_rng(12)
        theta = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        n0 = 2.5
        srb = noncentrality([theta], [np.full(64, n0)], 32, 64)
        mrb = noncentrality(
            [theta[2 * m : 2 * (m + 1)] for m in range(4)],
            [np.full(16, n0)] * 4,
            32,
            16,
        )
        assert mrb == pytest.approx(srb, rel=1e-12)

    def test_equal_energy_partition_any_profile(self):
        rng = np.random.default_rng(13)
        phi = rng.uniform(0.5, 5.0, 64)
        energy = 1.7
        theta_m = []
        for m in range(4):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            theta_m.append(v * math.sqrt(energy / 4 / np.sum(np.abs(v) ** 2)))
        theta = np.zeros(8, dtype=complex)
        theta[0] = math.sqrt(energy)
        srb = noncentrality([theta], [phi], 32, 64)
        mrb = noncentrality(theta_m, [phi[16 * m : 16 * (m + 1)] for m in range(4)], 32, 16)
        assert mrb == pytest.approx(srb, rel=1e-12)

    def test_single_radio_identity(self):
        # one radio: lambda = (2N/L) theta^H theta sum_k 1/Phi[k]
        rng = np.random.default_rng(14)
        theta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = rng.uniform(0.5, 2.0, 16)
        closed = 2.0 * 32 / 16 * np.vdot(theta, theta).real * np.sum(1.0 / phi)
        assert noncentrality([theta], [phi], 32, 16) == pytest.approx(closed, rel=1e-15)


class TestTheoryPd:
    def test_null_reduces_to_pfa(self):
        for p_fa in (1e-2, 1e-3, 1e-8):
            assert theory_pd(p_fa, 4, 0.0) == pytest.approx(p_fa, rel=1e-9)

    def test_strong_signal_limit(self):
        assert theory_pd(1e-3, 4, 1e4) > 1.0 - 1e-9

    def test_monotone_in_noncentrality(self):
        values = [theory_pd(1e-3, 4, lam) for lam in (0.0, 5.0, 20.0, 40.96, 100.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_deep_tail_point_against_monte_carlo(self):
        # p = 40, P_FA = 1e-8: place lambda at the P_D = 0.5 knee by
        # bisection, then check 1e4 direct noncentral draws agree.
        p, p_fa = 40, 1e-8
        lo, hi = 1.0, 1000.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if theory_pd(p_fa, p, mid) < 0.5:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        assert lam == pytest.approx(93.247, abs=0.5)
        rng = np.random.default_rng(15)
        mean = math.sqrt(lam / (2 * p))
        draws = rng.standard_normal((10_000, 2 * p)) + mean
        empirical = float(np.mean(np.sum(draws * draws, axis=1) > threshold(p_fa, p, 1)))
        assert abs(empirical - 0.5) <= 0.03

    def test_noncentrality_at_eta_feeds_theory_pd(self):
        # exact: p_d_theory is written to curve CSVs by repr, so the
        # rounding of lambda = 2 N L eta must not move
        values = []
        for eta_db in (-22.0, -20.0, -18.0):
            lam = noncentrality_at_eta(eta_db, 32, 64)
            assert lam == 2.0 * 32 * 64 * 10.0 ** (eta_db / 10.0)
            values.append(theory_pd(1e-3, 4, lam))
        assert values[0] < values[1] < values[2]
        # white noise at eta = 0.01: TestNoncentrality's desk value
        assert noncentrality_at_eta(-20.0, 32, 64) == pytest.approx(40.96, rel=1e-12)

    def test_rejects_negative_noncentrality(self):
        with pytest.raises(ValueError):
            theory_pd(1e-3, 4, -1.0)


# (p_fa, p, N, L) of the desk, narrowband and wideband presets
PRESET_SHAPES = [(1e-2, 4, 32, 64), (1e-8, 40, 977, 1024), (1e-8, 104, 625, 4096)]


class TestEtaForPd:
    @pytest.mark.parametrize("shape", PRESET_SHAPES, ids=["desk", "narrowband", "wideband"])
    def test_inverts_theory_pd(self, shape):
        p_fa, p, n, l = shape
        for target in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            eta_db = eta_for_pd(p_fa, p, target, n, l)
            assert abs(theory_pd(p_fa, p, noncentrality_at_eta(eta_db, n, l)) - target) <= 1e-9

    def test_rejects_targets_outside_pfa_to_one(self, monkeypatch):
        # refused before any noncentral tail is evaluated
        def no_tail(*args):
            raise AssertionError("tail evaluated")

        monkeypatch.setattr(detector, "noncentral_chi2_tail", no_tail)
        for target in (0.0, 1e-3, 1e-2, 1.0, 1.5):
            with pytest.raises(ValueError):
                eta_for_pd(1e-2, 4, target, 32, 64)

    def test_unreachable_target_gives_up(self, monkeypatch):
        # a law that saturates below the target: one evaluation per
        # doubling of the upper end, then placement gives up
        calls = []

        def saturating(dof, noncentrality, x):
            calls.append(noncentrality)
            return 0.5

        monkeypatch.setattr(detector, "noncentral_chi2_tail", saturating)
        with pytest.raises(ValueError, match="out of reach"):
            eta_for_pd(1e-2, 4, 0.9, 32, 64)
        assert 0 < len(calls) <= detector._MAX_DOUBLINGS


def bisect_200(below, lo: float, hi: float) -> float:
    """The 200-halving bisection, without an early return: the oracle."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBisect:
    def test_early_return_gives_the_same_double(self):
        target = 10.0 ** (-1.0 / 20.0)
        gamma = threshold(1e-8, 40)
        cases = [
            # _cfo_spacing_hz's predicate and bracket
            (lambda u: math.sin(u) / u > target, 0.0, math.pi),
            # eta_for_pd's, at narrowband's P_D = 0.5 knee
            (lambda lam: detector.noncentral_chi2_tail(80, lam, gamma) < 0.5, 0.0, 128.0),
            (lambda x: x * x < 2.0, 0.0, 2.0),
            (lambda x: math.exp(x) < 0.5, -10.0, 10.0),
            (lambda x: x < 1e-310, 0.0, 1.0),
            (lambda x: True, 1.0, 2.0),
            (lambda x: False, -3.0, 5.0),
            (lambda x: x < 3.0, 3.0, 3.0),
        ]
        for below, lo, hi in cases:
            assert detector._bisect(below, lo, hi) == bisect_200(below, lo, hi)


class TestDeflection:
    def test_matched_filter_bound_dominates(self):
        # the clairvoyant matched filter (d^2 = lambda) upper-bounds the
        # exact chi-squared law of the score test at every SNR
        grid = np.concatenate([np.linspace(0.01, 16, 25), np.linspace(20, 300, 15)])
        for p in (1, 4, 40):
            for p_fa in (1e-2, 1e-8):
                for lam in grid:
                    assert deflection_pd(p_fa, lam) + 1e-9 >= theory_pd(p_fa, p, float(lam))

    def test_rao_deflection_below_matched_filter_at_low_snr(self):
        # d2_rao = (NL eta)^2 / p = lambda^2 / (4p): the score test pays
        # the noncoherent-combining penalty in the operating regime
        p, p_fa = 4, 1e-3
        for lam in np.linspace(0.1, 2 * p, 12):
            assert deflection_pd(p_fa, lam**2 / (4 * p)) <= deflection_pd(p_fa, float(lam)) + 1e-12


class TestCfoGrid:
    def test_spacing_constant(self):
        duration = 2.0009e-3
        spacing = detector._cfo_spacing_hz(duration)
        assert 0.50 < spacing * duration < 0.53

    def test_worst_case_loss_is_budget(self):
        duration = 1e-3
        spacing = detector._cfo_spacing_hz(duration)
        u = math.pi * (spacing / 2.0) * duration
        loss_db = -20.0 * math.log10(math.sin(u) / u)
        assert loss_db == pytest.approx(1.0, abs=1e-6)

    def test_published_grid_meets_budget(self):
        # 79 points over +-7 kHz with a ~2 ms preamble: straddle loss
        # well inside the 1 dB budget
        spacing = 14e3 / 78
        duration = 977 * (1024 / 500e6)
        u = math.pi * (spacing / 2.0) * duration
        loss_db = -20.0 * math.log10(math.sin(u) / u)
        assert loss_db < 1.0

    def test_grid_shape(self):
        grid = cfo_grid(7e3, 2e-3)
        assert grid[0] == -7e3 and grid[-1] == 7e3
        assert len(grid) >= 2 * 7e3 / detector._cfo_spacing_hz(2e-3)
        assert np.all(np.diff(grid) > 0)
        assert np.array_equal(cfo_grid(0.0, 2e-3), np.zeros(1))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            detector._cfo_spacing_hz(0.0)
        with pytest.raises(ValueError):
            cfo_grid(-1.0, 1e-3)


def factored_offdiag_ratio(symbols, phi, preamble_length, taps):
    """Independent route to max |I_lm|/beta for circulant per-band noise.

    I_lm = A(d) B(d) / L with A(d) = sum_r |S[r]|^2 e^{2 pi i r d/(NL)}
    over the unitary symbol DFT and B(d) the DFT of 1/phi per block.
    """
    num_subbands = phi.size
    spectrum = np.abs(np.fft.fft(symbols, norm="ortho")) ** 2
    inv_profile = np.empty(num_subbands)
    for band in range(num_subbands):
        inv_profile[tone_block(band, preamble_length, num_subbands)] = 1.0 / phi[band]
    worst = 0.0
    for delta in range(1, taps):
        a = np.sum(
            spectrum * np.exp(2j * np.pi * np.arange(preamble_length) * delta
                              / (preamble_length * num_subbands))
        )
        b = np.sum(inv_profile * np.exp(2j * np.pi * np.arange(num_subbands) * delta / num_subbands))
        worst = max(worst, abs(a) / preamble_length * abs(b) / np.sum(inv_profile))
    return worst


class TestFim:
    def test_white_noise_exact(self):
        _, h = model(32, 32, 4)
        n0 = 1.6
        fim = fim_matrix(h, n0 * np.eye(1024))
        assert np.allclose(fim, (32 / n0) * np.eye(4), atol=1e-10)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(16)
        _, h = model(4, 8, 3)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        c_w = a @ a.conj().T + 32 * np.eye(32)
        fim = fim_matrix(h, c_w)
        assert np.allclose(fim, fim.conj().T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(fim)) > -1e-10

    def test_banded_profile_off_diagonal_small(self):
        # One band interfered at 10x, N = 64, L = 64, p = 8; the dense
        # FIM is cross-checked against the circulant factorization.
        preamble_length, num_subbands, taps = 64, 64, 8
        symbols, h = model(preamble_length, num_subbands, taps, seed=9)
        phi = np.ones(num_subbands)
        phi[11] = 10.0
        per_bin = per_bin_psd(phi, preamble_length)
        fim = fim_matrix(h, circulant_covariance(per_bin))
        beta = compute_beta(phi, preamble_length, num_subbands)
        off = np.abs(fim - np.diag(np.diag(fim))).max() / beta
        assert off < 0.05
        assert off == pytest.approx(
            factored_offdiag_ratio(symbols, phi, preamble_length, taps), rel=1e-6
        )
        assert np.abs(np.real(np.diag(fim)) - beta).max() / beta < 1e-10

    def test_report_white(self):
        _, h = model(32, 16, 4)
        report = fim_approx_report(h, 0.5 * np.eye(512), 32, 16)
        assert report.beta == pytest.approx(compute_beta(np.full(16, 0.5), 32, 16), rel=1e-9)
        assert report.max_diag_deviation < 1e-10
        assert report.max_offdiag_ratio < 1e-10

    def test_report_colored(self):
        preamble_length, num_subbands = 32, 64
        _, h = model(preamble_length, num_subbands, 8, seed=9)
        phi = np.ones(num_subbands)
        phi[40] = 100.0  # 20 dB spread
        per_bin = per_bin_psd(phi, preamble_length)
        report = fim_approx_report(h, circulant_covariance(per_bin), preamble_length, num_subbands)
        assert report.beta == pytest.approx(
            compute_beta(phi, preamble_length, num_subbands), rel=1e-6
        )
        assert report.max_diag_deviation < 0.05
        assert 0.0 < report.max_offdiag_ratio < 0.05

    def test_many_band_random_profiles(self):
        # The statistical flatness argument needs many bands: at L = 1024
        # an unstructured 10 dB-spread profile stays inside the bound.
        rng = np.random.default_rng(18)
        symbols = make_preamble_symbols(32, symbol_seed=3)
        for _ in range(5):
            phi = 10.0 ** rng.uniform(0.0, 1.0, 1024)
            assert factored_offdiag_ratio(symbols, phi, 32, 8) < 0.05

    def test_mrb_block_structure(self):
        # Four radios at different noise floors, one hot band each: the
        # joint inverse must equal the per-block inverses exactly, and
        # each block must sit close to beta_m I.
        rng = np.random.default_rng(19)
        preamble_length, bands_per_radio, taps_per_radio = 32, 16, 2
        _, h_radio = model(preamble_length, bands_per_radio, taps_per_radio)
        h_blocks, c_blocks = [], []
        for m in range(4):
            phi = np.full(bands_per_radio, 0.5 + 0.5 * m)
            phi[rng.integers(bands_per_radio)] *= 10.0
            c_blocks.append(circulant_covariance(per_bin_psd(phi, preamble_length)))
            h_blocks.append(h_radio)
        report = mrb_fim_report(h_blocks, c_blocks, preamble_length, bands_per_radio)
        assert report.block_inverse_max_dev < 1e-9
        assert report.max_diag_deviation < 1e-10
        # a lone 10x band out of 16 leaves ~6% off-diagonal per block
        assert 0.0 < report.max_offdiag_ratio < 0.1
