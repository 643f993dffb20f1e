"""Complex signal buffers and chi-squared tail functions.

Everything downstream (waveform synthesis, whitening, detection theory)
builds on the primitives here.  The central and noncentral chi-squared
tails and the central inverse are self-contained (math module only) so
that threshold computations do not silently depend on the habits of any
particular external library.  Accuracy targets are modest and explicit:
absolute tail values to ~1e-12, the inverse iterated until the forward
map reproduces the requested probability to 1e-9 relative or better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ComplexSignal",
    "chi2_tail",
    "chi2_tail_inv",
    "noncentral_chi2_tail",
]


@dataclass(frozen=True)
class ComplexSignal:
    """A complex baseband sample stream tagged with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise ValueError("sample_rate_hz must be positive and finite")

    def __len__(self) -> int:
        return len(self.samples)


def chi2_tail(dof: int, x: float) -> float:
    """Upper-tail probability of a central chi-squared distribution.

    Q(a, x/2) at a = dof/2, the regularized upper incomplete gamma: the
    series for P = 1 - Q below x/2 = a + 1, a Lentz continued fraction
    above; accurate to ~1e-14 for a up to a few hundred.

    Args:
        dof: degrees of freedom, integer >= 1.
        x: evaluation point, >= 0.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    a, x = 0.5 * dof, 0.5 * x
    if x == 0.0:
        return 1.0
    lga = math.lgamma(a)
    if x < a + 1.0:
        # series for P(a,x); Q = 1 - P
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(10000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p_val = total * math.exp(-x + a * math.log(x) - lga)
        return max(0.0, min(1.0, 1.0 - p_val))
    # modified Lentz continued fraction for Q(a,x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return max(0.0, min(1.0, h * math.exp(-x + a * math.log(x) - lga)))


def chi2_tail_inv(dof: int, p: float) -> float:
    """Inverse upper-tail of the central chi-squared distribution.

    Bracketing plus a guarded Newton iteration (bisection fallback when a
    Newton step leaves the bracket).  Called once per scenario, so the
    loop favors robustness over speed.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValueError(f"tail probability must be in (0,1), got {p}")
    # bracket the root: mean + widening steps upward, zero below
    lo, hi = 0.0, float(dof)
    while chi2_tail(dof, hi) > p:
        lo = hi
        hi *= 2.0
        if hi > 1e8:
            break
    x = 0.5 * (lo + hi)
    a, lga = 0.5 * dof, math.lgamma(0.5 * dof)
    for _ in range(200):
        q = chi2_tail(dof, x)
        if q > p:
            lo = x
        else:
            hi = x
        # the density; x > 0, as the bracket (lo, hi) with lo >= 0 holds it
        pdf = 0.5 * math.exp((a - 1.0) * math.log(0.5 * x) - 0.5 * x - lga)
        if pdf > 0.0:
            step = (q - p) / pdf
            xn = x + step
        else:
            xn = 0.5 * (lo + hi)
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(q - p) <= 1e-12 * p:
            break
        x = xn
    return x


def noncentral_chi2_tail(dof: int, noncentrality: float, x: float) -> float:
    """Upper tail of the noncentral chi-squared distribution.

    Poisson-weighted mixture of central tails,

        Q'(x; dof, lam) = sum_k  Pois(lam/2; k) * Q_chi2(dof + 2k, x),

    summed outward from the Poisson mode so the large-lambda case (up to
    lam ~ 1e4) neither underflows nor truncates early.  Terms stop once
    they fall below 1e-14 of the running sum on a decaying weight tail,
    or once that weight underflows to zero.

    Args:
        dof: degrees of freedom of the central part, >= 1.
        noncentrality: lam >= 0.
        x: evaluation point, >= 0.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if noncentrality < 0:
        raise ValueError("noncentrality must be >= 0")
    if x < 0:
        raise ValueError("x must be >= 0")
    lam = float(noncentrality)
    half = 0.5 * lam
    if half == 0.0:  # includes lam so small that lam/2 underflows
        return chi2_tail(dof, x)
    if 0.5 * x == 0.0:  # includes x so small that x/2 underflows
        return 1.0
    k0 = int(half)  # Poisson mode
    log_w0 = -half + k0 * math.log(half) - math.lgamma(k0 + 1)
    w0 = math.exp(log_w0)
    a0 = 0.5 * dof + k0
    # t_k = central chi2 density mass term linking Q(dof+2k) to Q(dof+2k+2)
    log_t0 = a0 * math.log(0.5 * x) - 0.5 * x - math.lgamma(a0 + 1.0)
    t0 = math.exp(log_t0)
    q0 = chi2_tail(dof + 2 * k0, x)

    total = w0 * q0
    # upward sweep: w_{k+1} = w_k * half/(k+1); Q_{k+1} = Q_k + t_k
    w, q, t = w0, q0, t0
    k = k0
    while True:
        w *= half / (k + 1)
        q = min(1.0, q + t)
        t *= (0.5 * x) / (a0 + (k - k0) + 1.0)
        k += 1
        term = w * q
        total += term
        # a tail that underflows to zero never meets the relative rule,
        # and once w underflows every later term is exactly zero
        if (term < 1e-14 * total or w == 0.0) and k > half:
            break
        if k - k0 > 2_000_000:
            break
    # downward sweep: w_{k-1} = w_k * k/half; Q_{k-1} = Q_k - t_{k-1}
    w, q, t = w0, q0, t0
    k = k0
    while k > 0:
        w *= k / half
        # multiply before dividing: keeps t finite when x is denormal-small
        t = t * (a0 + (k - k0)) / (0.5 * x)
        q = max(0.0, q - t)
        k -= 1
        term = w * q
        total += term
        if term < 1e-14 * total:
            break
    return max(0.0, min(1.0, total))
