"""Statistical decision layer for the score-test packet detector.

Under the null the scaled statistic follows a central chi-squared law
with 2p degrees of freedom; under a packet with effective channel taps
theta it is noncentral with lambda = 2*beta*theta^H theta.  Everything
here is pure computation on small dense objects: thresholds, the exact
statistic (oracle), the banded low-complexity form, the multi-radio
band split, theory P_D with its inverse eta_for_pd (the SNR where the
exact law reaches a P_D target), and Fisher-information checks that
justify the beta*I approximation the fast path rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import chi2_tail_inv, noncentral_chi2_tail

__all__ = [
    "DetectionConfig",
    "FimReport",
    "compute_beta",
    "threshold",
    "rao_exact",
    "rao_low_complexity",
    "noncentrality_at_eta",
    "theory_pd",
    "eta_for_pd",
    "cfo_grid",
    "fim_matrix",
    "fim_approx_report",
    "mrb_fim_report",
    "ideal_band_split",
]


@dataclass(frozen=True)
class DetectionConfig:
    """Decision-layer shape: taps p, false-alarm target and radio count.

    radios = 1 is the single-radio (SRB) receiver; radios = M > 1 splits
    the band over M radios (MRB) with p/M taps each.  The CFO candidate
    count is not set here: it follows from the scenario's CFO range.
    """

    p: int
    p_fa: float
    radios: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must be in (0, 1)")
        if self.radios < 1:
            raise ValueError("radios must be >= 1")
        if self.radios > 1 and self.p % self.radios != 0:
            raise ValueError("p must be divisible by the radio count")

    @property
    def taps_per_radio(self) -> int:
        return self.p // self.radios


@dataclass(frozen=True)
class FimReport:
    beta: float
    max_diag_deviation: float
    max_offdiag_ratio: float
    block_inverse_max_dev: float = 0.0


def _phi_array(phi) -> np.ndarray:
    """Band PSDs as float64 along the last axis; +inf is a band with no estimate."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim == 0 or phi.shape[-1] == 0:
        raise ValueError("phi must be nonempty")
    if not (phi > 0.0).all():
        raise ValueError("phi entries must be positive")
    return phi


def compute_beta(phi, preamble_length: int, num_subbands: int) -> float | np.ndarray:
    """beta = (N/L) * sum_k 1/Phi[k]; the statistic's scale constant.

    A band with huge Phi contributes nearly nothing: interference in
    that band costs its share of processing gain and nothing else, and
    a band with Phi = +inf contributes exactly nothing.  phi is one (L,)
    profile, giving a float, or (rows, L), giving one beta per row.
    """
    phi = _phi_array(phi)
    if phi.ndim > 2 or phi.shape[-1] != num_subbands:
        raise ValueError("phi must be (num_subbands,) or (rows, num_subbands)")
    if preamble_length < 1:
        raise ValueError("preamble_length must be >= 1")
    beta = preamble_length / num_subbands * np.add.reduce(1.0 / phi, axis=-1)
    return float(beta) if phi.ndim == 1 else beta


def threshold(p_fa: float, p: int, j_grid: int = 1) -> float:
    """Detection threshold for the 2p-degree chi-squared null law.

    With a J-point CFO grid the per-candidate false-alarm target shrinks
    so the max over J independent candidates meets the overall target:
    the Sidak form 1-(1-P_FA)^(1/J), through log1p and expm1 so it keeps
    full relative precision at any P_FA.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must be in (0, 1)")
    if p < 1:
        raise ValueError("p must be >= 1")
    if j_grid < 1:
        raise ValueError("j_grid must be >= 1")
    per_bin = p_fa if j_grid == 1 else -math.expm1(math.log1p(-p_fa) / j_grid)
    return chi2_tail_inv(2 * p, per_bin)


def rao_exact(y: np.ndarray, h: np.ndarray, c_w: np.ndarray) -> float:
    """Dense oracle: T = 2 y^H C^-1 H (H^H C^-1 H)^-1 H^H C^-1 y.

    Desk-scale use only; raises on singular covariance.
    """
    y = np.asarray(y, dtype=np.complex128).ravel()
    h = np.asarray(h, dtype=np.complex128)
    c_w = np.asarray(c_w, dtype=np.complex128)
    if h.shape[0] != y.size or c_w.shape != (y.size, y.size):
        raise ValueError("inconsistent dimensions")
    ci_y = np.linalg.solve(c_w, y)
    ci_h = np.linalg.solve(c_w, h)
    u = h.conj().T @ ci_y
    m = h.conj().T @ ci_h
    v = np.linalg.solve(m, u)
    return float(2.0 * np.real(np.vdot(u, v)))


def _band_of_block(num_subbands: int) -> np.ndarray:
    """Which analysis band owns DFT-bin block m (blocks of N bins).

    Band k is centered at (2k - L - 1)/(2L) cycles/sample, so its
    support is exactly bins [mN, (m+1)N) with k = (m + L/2 + 1) mod L.
    """
    l = num_subbands
    return (np.arange(l) + l // 2 + 1) % l


def rao_low_complexity(y: np.ndarray, h: np.ndarray, phi_hat, beta: float) -> float:
    """Banded-whitening reference: T = (2/beta) ||H^H C^-1 y||^2.

    The inverse covariance is applied in the frequency domain as a
    per-band division: DFT, divide each bin by its band's Phi, inverse
    DFT.  Exact for circulant per-band-flat covariances; for white
    noise it reduces to the exact statistic.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    y = np.asarray(y, dtype=np.complex128).ravel()
    phi = _phi_array(phi_hat)
    l = phi.size
    if y.size % l != 0:
        raise ValueError("window length must be a multiple of the band count")
    n = y.size // l
    spectrum = np.fft.fft(y, norm="ortho")
    per_bin = np.repeat(phi[_band_of_block(l)], n)
    whitened = np.fft.ifft(spectrum / per_bin, norm="ortho")
    u = np.asarray(h, dtype=np.complex128).conj().T @ whitened
    return float(2.0 / beta * np.sum(np.abs(u) ** 2))


def noncentrality_at_eta(eta_db: float, preamble_length: int, num_subbands: int) -> float:
    """White-noise lambda = 2 N L eta at chip SNR eta_db."""
    return 2.0 * preamble_length * num_subbands * 10.0 ** (eta_db / 10.0)


def theory_pd(p_fa: float, p: int, noncentrality: float, j_grid: int = 1) -> float:
    """Detection probability of the 2p-dof noncentral chi-squared law."""
    if noncentrality < 0.0:
        raise ValueError("noncentrality must be >= 0")
    gamma = threshold(p_fa, p, j_grid)
    return noncentral_chi2_tail(2 * p, noncentrality, gamma)


def _bisect(below, lo: float, hi: float) -> float:
    """Midpoint of [lo, hi] after 200 halvings; below(x) says the root lies above x.

    Returns early once the midpoint no longer splits the bracket: no
    later halving can change the answer, so it is the same double.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# eta_for_pd doubles its upper end from lambda = 1 at most this often,
# so an unreachable target gives up after probing lambda = 2^29, far
# past the 2.5 to 215 the presets place
_MAX_DOUBLINGS = 30


def eta_for_pd(
    p_fa: float,
    p: int,
    target_pd: float,
    preamble_length: int,
    num_subbands: int,
) -> float:
    """Chip SNR in dB where theory_pd (j = 1) reaches target_pd.

    Bisection in lambda on the exact noncentral law, so placements like
    "the point where P_D = 0.5" land on the same curve run_point reports
    as p_d_theory.  P_D at lambda = 0 is p_fa, below the target, so the
    upper end starts at lambda = 1 and doubles until P_D reaches the
    target: no probe lands past twice the answer.  Raises ValueError
    unless p_fa < target_pd < 1, or when _MAX_DOUBLINGS doublings still
    miss the target.
    """
    gamma = threshold(p_fa, p)
    if not p_fa < target_pd < 1.0:
        raise ValueError("target_pd must lie in (p_fa, 1)")

    def below(lam: float) -> bool:
        return noncentral_chi2_tail(2 * p, lam, gamma) < target_pd

    hi = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if not below(hi):
            break
        hi *= 2.0
    else:
        raise ValueError("target_pd out of reach for this configuration")
    lam = _bisect(below, 0.0, hi)
    return 10.0 * math.log10(lam / (2.0 * preamble_length * num_subbands))


def fim_matrix(h: np.ndarray, c_w: np.ndarray) -> np.ndarray:
    """Exact Fisher information H^H C^-1 H for the linear model."""
    h = np.asarray(h, dtype=np.complex128)
    c_w = np.asarray(c_w, dtype=np.complex128)
    return h.conj().T @ np.linalg.solve(c_w, h)


def _band_psd_from_cov(c_w: np.ndarray, num_subbands: int) -> np.ndarray:
    """Per-band PSD read off the covariance's DFT-domain diagonal."""
    nl = c_w.shape[0]
    n = nl // num_subbands
    f = np.fft.fft(np.eye(nl), axis=0, norm="ortho")
    diag = np.real(np.diag(f @ c_w @ f.conj().T))
    blocks = diag.reshape(num_subbands, n).mean(axis=1)
    phi = np.empty(num_subbands)
    phi[_band_of_block(num_subbands)] = blocks
    return phi


def fim_approx_report(
    h: np.ndarray,
    c_w: np.ndarray,
    preamble_length: int,
    num_subbands: int,
) -> FimReport:
    """Measure how close the exact FIM is to beta * I_p.

    beta comes from the per-band PSD implied by the covariance, so the
    report answers: how much does replacing the exact information
    matrix by the scalar beta cost for this noise?
    """
    fim = fim_matrix(h, c_w)
    phi = _band_psd_from_cov(np.asarray(c_w), num_subbands)
    beta = compute_beta(phi, preamble_length, num_subbands)
    diag = np.diag(fim)
    return FimReport(
        beta=beta,
        max_diag_deviation=float(np.max(np.abs(np.real(diag) - beta)) / beta),
        max_offdiag_ratio=float(np.max(np.abs(fim - np.diag(diag))) / beta),
    )


def mrb_fim_report(
    h_blocks,
    c_blocks,
    preamble_length: int,
    bands_per_radio: int,
) -> FimReport:
    """Joint-FIM check for independent radio observations.

    The stacked model has block-diagonal H and covariance, so the joint
    FIM and its inverse are block diagonal.  block_inverse_max_dev is
    the worst per-entry gap between the inverse of the assembled joint
    FIM and the block diagonal of per-block inverses (a structural
    identity, so it should sit at rounding level); beta, diag and
    off-diag figures are each block's fim_approx_report, against its
    own beta_m: the mean beta and the worst deviations.
    """
    hs = list(h_blocks)
    cs = list(c_blocks)
    if len(hs) != len(cs) or not hs:
        raise ValueError("need matching nonempty block lists")
    reports = [fim_approx_report(h, c, preamble_length, bands_per_radio) for h, c in zip(hs, cs)]
    betas = [r.beta for r in reports]
    fims = [fim_matrix(h, c) for h, c in zip(hs, cs)]
    sizes = [f.shape[0] for f in fims]
    joint = np.zeros((sum(sizes),) * 2, dtype=np.complex128)
    per_block_inv = np.zeros_like(joint)
    for f, end in zip(fims, np.cumsum(sizes)):
        sl = slice(end - f.shape[0], end)
        joint[sl, sl] = f
        per_block_inv[sl, sl] = np.linalg.inv(f)
    inv = np.linalg.inv(joint)
    scale = np.repeat(1.0 / np.asarray(betas), sizes)
    return FimReport(
        beta=float(np.mean(betas)),
        max_diag_deviation=max(r.max_diag_deviation for r in reports),
        max_offdiag_ratio=max(r.max_offdiag_ratio for r in reports),
        block_inverse_max_dev=float(np.max(np.abs(inv - per_block_inv) / scale[:, None])),
    )


def ideal_band_split(y: np.ndarray, num_subbands: int, radios: int) -> list[np.ndarray]:
    """Partition a window into per-radio reduced-rate windows, losslessly.

    Radio m owns the K = L/M consecutive bands starting at m*K.  Bins
    are moved so each band lands where a K-band analysis expects it;
    total energy is preserved exactly.  This is the dense stand-in for
    a perfect mix/filter/decimate radio front end.
    """
    y = np.asarray(y, dtype=np.complex128).ravel()
    l = num_subbands
    if l % radios != 0:
        raise ValueError("num_subbands must be divisible by the radio count")
    if y.size % l != 0:
        raise ValueError("window length must be a multiple of the band count")
    n = y.size // l
    k = l // radios
    # row b holds the n bins of block b; block r of radio m holds its
    # band _band_of_block(k)[r], the full band's band m*k + that
    spectrum = np.fft.fft(y, norm="ortho").reshape(l, n)
    block_of_band = np.argsort(_band_of_block(l))
    return [
        np.fft.ifft(spectrum[block_of_band[m * k + _band_of_block(k)]].ravel(), norm="ortho")
        for m in range(radios)
    ]


# worst-case coherent-correlation straddle loss the CFO grid allows
_CFO_MAX_LOSS_DB = 1.0


def _cfo_spacing_hz(preamble_duration_s: float) -> float:
    """Grid spacing for a worst-case straddle loss of _CFO_MAX_LOSS_DB.

    An offset df sustained over the whole preamble scales the coherent
    sum by |sinc-like Dirichlet factor|; solving for the offset that
    costs 1 dB and doubling it (worst case is mid-bin) gives the
    spacing, about 0.5124/preamble_duration.
    """
    if preamble_duration_s <= 0.0:
        raise ValueError("preamble duration must be positive")
    target = 10.0 ** (-_CFO_MAX_LOSS_DB / 20.0)
    # u = pi * (df/2) * duration, the half-offset phase across the
    # preamble at the worst-case half-spacing offset; no midpoint is 0
    u = _bisect(lambda u: math.sin(u) / u > target, 0.0, math.pi)
    return 2.0 * u / (math.pi * preamble_duration_s)


def cfo_grid(range_hz: float, preamble_duration_s: float) -> np.ndarray:
    """Uniform candidate offsets covering [-range, +range]."""
    if range_hz < 0.0:
        raise ValueError("range_hz must be >= 0")
    if range_hz == 0.0:
        return np.zeros(1)
    spacing = _cfo_spacing_hz(preamble_duration_s)
    count = max(2, int(math.ceil(2.0 * range_hz / spacing)) + 1)
    return np.linspace(-range_hz, range_hz, count)
