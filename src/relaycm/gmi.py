"""Achievable-rate estimation from soft demapper output.

The figure of merit is the generalized mutual information of the bit
metric decoder, in bits per symbol:

    G = sum_i ( 1 - E[ log2(1 + exp(-(-1)^{b_i} L_i)) ] )

alongside a 95% confidence halfwidth from the per-symbol loss variance.
This module also hosts the rule that pairs each relay variant with its
destination demapper (relay_llrs), the common-random-number link
evaluator used by the sweep and bisection drivers, and the scalar LLR
rescaling that a mismatched (relay-blind) demapper needs to stop its
rate estimate from collapsing: the multiplier that minimizes the convex
loss, found by a safeguarded Newton solve (optimal_llr_scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    AwgnSegment,
    DmcMatrix,
    RelayFunction,
    complex_noise_unit,
    derived_rng,
    nearest_index,
    power_normalizing_eta,
    scale_relay_equivalent_snr,
    transition_matrix,
    transmit,
)
from .constellation import Constellation, indices_for_bits
from .demapper import Demapper
from .errors import ConfigError

_LN2 = np.log(2.0)
# softplus(-x) is exactly 0.0 in float64 once exp(-x) underflows (x > 745)
_SEPARATED = 800.0
# a cap only: solves on demapper output take a handful of steps
_MAX_STEPS = 200

HD_MATCHED = "hd_matched"
HD_LEGACY_SOPT = "hd_legacy_sopt"
SCALE_RELAY = "scale"
VARIANTS = (HD_MATCHED, HD_LEGACY_SOPT, SCALE_RELAY)


@dataclass(frozen=True)
class GmiEstimate:
    """Sample estimate of the bit-metric rate.

    value is clamped at zero; ci95 is the plain normal-approximation
    halfwidth of the unclamped mean over symbols.
    """

    value: float
    ci95: float
    per_level: np.ndarray
    n_symbols: int


@dataclass(frozen=True)
class ScaleResult:
    scale: float
    loss: float                  # bits/symbol at the optimum
    degenerate: bool = False


def _bit_losses(llrs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    z = (1.0 - 2.0 * np.asarray(bits, dtype=np.float64)) * np.asarray(llrs)
    return np.logaddexp(0.0, -z) / _LN2


def gmi_from_llrs(llrs: np.ndarray, bits: np.ndarray) -> GmiEstimate:
    """Estimate the rate from paired (llrs, sent bits), both (n, m)."""
    llrs = np.atleast_2d(llrs)
    bits = np.atleast_2d(bits)
    if llrs.shape != bits.shape:
        raise ConfigError("llrs and bits shapes differ")
    n, m = llrs.shape
    loss = _bit_losses(llrs, bits)
    per_symbol = loss.sum(axis=1)
    value = m - float(per_symbol.mean())
    ci = 1.96 * float(per_symbol.std(ddof=1)) / np.sqrt(n) if n > 1 else np.inf
    return GmiEstimate(
        value=max(value, 0.0),
        ci95=ci,
        per_level=1.0 - loss.mean(axis=0),
        n_symbols=n,
    )


def optimal_llr_scale(llrs: np.ndarray, bits: np.ndarray, tol: float = 1e-6) -> ScaleResult:
    """Scalar multiplier minimizing the decoding loss of the given LLRs.

    With z = (1 - 2b) * llr over all n entries, the loss
    L(s) = mean softplus(-s z) is convex in s, with

        L'(s)  = -mean(z sigmoid(-s z))
        L''(s) =  mean(z^2 sigmoid(s z) sigmoid(-s z)).

    Write n L'(s) = W - phi(s), where W is the total |z| of the
    wrong-signed metrics (z < 0) and phi(s) = sum |z| sigmoid(-s |z|)
    falls from sum|z| / 2 towards 0, with phi'(s) = -n L''(s).  The
    optimum is the root of log phi(s) = log W, found by Newton steps on
    that equation: one exp(-s|z|) pass per step gives phi and phi'.
    Near the root the step is the plain Newton step -L'/L''; far from it
    the logarithm keeps steps from stalling in the flat sigmoid tails.
    A bracket kept from the sign of L' is the safeguard: a step that
    leaves it, or that L'' underflows, falls back to bisection, or to
    doubling while no upper end is known.  The solve runs in units of
    the largest |z| and starts from the minimizer of the quadratic model
    of L at 0, so the answer scales with 1/|llr| however small or large
    the LLRs are.  It stops once a step moves the scale by at most tol,
    or by tol relative to the scale when that exceeds 1.

    Metrics that are identically zero carry no information: scale 0,
    flagged degenerate.  Metrics wrong at least as much as right on
    average (L'(0) >= 0) give scale 0 and the loss there.  Metrics never
    wrong (no z < 0) have no finite minimizer; they give the finite
    scale at which every nonzero-metric term of the loss underflows to 0.
    """
    llrs = np.atleast_2d(llrs)
    bits = np.atleast_2d(bits)
    m = llrs.shape[1]
    z = ((1.0 - 2.0 * bits.astype(np.float64)) * llrs).ravel()

    def f(zeta):
        return float(np.logaddexp(0.0, -zeta * z).mean()) * m / _LN2

    unit = float(np.abs(z).max())
    if unit == 0.0:
        return ScaleResult(scale=0.0, loss=f(0.0), degenerate=True)
    u = z / unit
    w = np.abs(u)
    wrong = -float(np.minimum(u, 0.0).sum())
    if wrong == 0.0:
        zeta = _SEPARATED / (unit * float(w[w > 0.0].min()))
        return ScaleResult(scale=zeta, loss=f(zeta), degenerate=False)
    half = 0.5 * float(w.sum())
    if half <= wrong:
        return ScaleResult(scale=0.0, loss=f(0.0), degenerate=False)

    lo, hi = 0.0, np.inf
    t = (half - wrong) / (0.25 * float(w @ w))
    for _ in range(_MAX_STEPS):
        e = np.exp(w * -t)
        d = 1.0 + e
        r = e / d
        phi = float(w @ r)
        if phi > wrong:
            lo = t
        elif phi < wrong:
            hi = t
        else:
            break
        dphi = float((w * r) @ (w / d))
        step = phi * np.log(phi / wrong) / dphi if phi > 0.0 and dphi > 0.0 else np.nan
        nxt = t + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * t
        done = abs(nxt - t) <= tol * max(unit, nxt)
        t = nxt
        if done:
            break
    s = t / unit
    return ScaleResult(scale=s, loss=f(s), degenerate=False)


def relay_llrs(c: Constellation, y2: np.ndarray, snr1: float, snr2: float, variant: str,
               dmc: DmcMatrix | None = None) -> np.ndarray:
    """Destination LLRs of two-hop traffic received as y2, from the
    demapper that the relay variant pairs with.

    A scaling relay is demapped conventionally at the composite snr,
    after undoing its gain; a matched hard-decision receiver uses the
    equivalent demapper over the relay's transition matrix dmc; the
    relay-blind legacy receiver demaps conventionally at snr2 alone.
    """
    if variant == SCALE_RELAY:
        eta = power_normalizing_eta(snr1)
        dem = Demapper.conventional(c, scale_relay_equivalent_snr(snr1, snr2))
        return dem.llrs(y2 / eta)
    if variant == HD_MATCHED:
        return Demapper.equivalent(c, snr2, dmc).llrs(y2)
    return Demapper.conventional(c, snr2).llrs(y2)


def gmi_with_optimal_scale(llrs: np.ndarray, bits: np.ndarray):
    """Rate after per-batch scalar rescaling; returns (estimate, scaling)."""
    res = optimal_llr_scale(llrs, bits)
    est = gmi_from_llrs(res.scale * np.atleast_2d(llrs), bits)
    return est, res


class RelayGmiEvaluator:
    """Fixed-noise evaluator of link rates as the second hop snr varies.

    Source bits, first-hop noise, and unit-variance second-hop noise are
    drawn once; each query rescales the stored noise.  Rate estimates are
    then continuous and monotone in snr2, which keeps bisection results
    deterministic.  A separate stream with its own noise supports the
    single-hop (relay-injected traffic) rate at the same snr2.
    """

    def __init__(
        self,
        c: Constellation,
        snr1: float,
        variant: str,
        n_symbols: int,
        seed: int,
        dmc_method: str = "analytic",
        dmc_samples: int = 200_000,
    ):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown link variant {variant!r}")
        if n_symbols < 2:
            raise ConfigError("need at least two symbols")
        self.c = c
        self.snr1 = float(snr1)
        self.variant = variant
        self.n_symbols = int(n_symbols)
        m = c.bits_per_symbol

        bits = derived_rng(seed, 0).integers(0, 2, size=self.n_symbols * m, dtype=np.uint8)
        self.bits = bits.reshape(self.n_symbols, m)
        x = c.symbols[indices_for_bits(c, bits)]
        y1 = transmit(x, AwgnSegment(snr=self.snr1), derived_rng(seed, 1))
        self._unit_noise2 = complex_noise_unit(derived_rng(seed, 2), self.n_symbols)

        if variant == SCALE_RELAY:
            self._relay_out = power_normalizing_eta(self.snr1) * y1
            self.dmc = None
        else:
            self._relay_out = c.symbols[nearest_index(y1, c.symbols)]
            if variant == HD_MATCHED:
                self.dmc = transition_matrix(
                    c,
                    self.snr1,
                    RelayFunction.hard_decision(),
                    method=dmc_method,
                    mc_samples=dmc_samples,
                    seed=int(derived_rng(seed, 3).integers(0, 2 ** 31)),
                )
            else:
                self.dmc = None

        bits_s = derived_rng(seed, 4).integers(0, 2, size=self.n_symbols * m, dtype=np.uint8)
        self._bits_single = bits_s.reshape(self.n_symbols, m)
        self._x_single = c.symbols[indices_for_bits(c, bits_s)]
        self._unit_noise_single = complex_noise_unit(derived_rng(seed, 5), self.n_symbols)

    def _receive(self, snr2: float) -> np.ndarray:
        return self._relay_out + np.sqrt(1.0 / snr2) * self._unit_noise2

    def two_hop_gmi(self, snr2: float) -> GmiEstimate:
        """Rate of traffic that crosses both hops, under this variant."""
        llrs = relay_llrs(self.c, self._receive(snr2), self.snr1, snr2, self.variant, self.dmc)
        if self.variant == HD_LEGACY_SOPT:
            return gmi_with_optimal_scale(llrs, self.bits)[0]
        return gmi_from_llrs(llrs, self.bits)

    def single_hop_gmi(self, snr2: float) -> GmiEstimate:
        """Rate of traffic injected at the relay, seeing only hop 2."""
        y = self._x_single + np.sqrt(1.0 / snr2) * self._unit_noise_single
        dem = Demapper.conventional(self.c, snr2)
        return gmi_from_llrs(dem.llrs(y), self._bits_single)

    def mixture_rate(self, snr2: float, relay_fraction: float, rate: float) -> tuple:
        """Rate (value, ci95) of a codeword whose info positions are
        split between relay-injected and source traffic.

        A fraction relay_fraction of the info bits rides only hop 2; the
        rest of the codeword (source info and all parity) crosses both
        hops.  The rate is the share-weighted mean of the two rates, and
        the half-width combines theirs in quadrature."""
        if not 0.0 <= relay_fraction <= 1.0:
            raise ConfigError("relay fraction must lie in [0, 1]")
        if not 0.0 < rate <= 1.0:
            raise ConfigError("code rate must lie in (0, 1]")
        e2 = self.two_hop_gmi(snr2)
        share = relay_fraction * rate
        if share == 0.0:
            return e2.value, e2.ci95
        e1 = self.single_hop_gmi(snr2)
        return (share * e1.value + (1.0 - share) * e2.value,
                math.hypot(share * e1.ci95, (1.0 - share) * e2.ci95))

    def mixture_margin(self, snr2: float, relay_fraction: float, rate: float) -> float:
        """Decodability margin of the mixed codeword of mixture_rate:
        positive means the mixed word is inside the rate region."""
        value, _ = self.mixture_rate(snr2, relay_fraction, rate)
        return value - self.c.bits_per_symbol * rate


def single_hop_gmi(c: Constellation, snr: float, n_symbols: int, seed: int) -> GmiEstimate:
    """One-shot rate estimate of a plain AWGN link at linear snr."""
    m = c.bits_per_symbol
    bits = derived_rng(seed, 0).integers(0, 2, size=int(n_symbols) * m, dtype=np.uint8)
    x = c.symbols[indices_for_bits(c, bits)]
    y = transmit(x, AwgnSegment(snr=snr), derived_rng(seed, 1))
    dem = Demapper.conventional(c, snr)
    return gmi_from_llrs(dem.llrs(y), bits.reshape(-1, m))


def required_snr2_db(
    margin_fn,
    lo_db: float = -2.0,
    hi_db: float = 30.0,
    tol_db: float = 0.05,
) -> float:
    """Smallest second-hop snr (dB) with nonnegative margin.

    margin_fn maps snr2 in dB to a margin that is monotone nondecreasing
    in snr2.  Returns lo_db when already satisfied there, inf when not
    satisfiable at hi_db, otherwise the high side of a bisection bracket
    no wider than tol_db.
    """
    if margin_fn(hi_db) < 0.0:
        return np.inf
    if margin_fn(lo_db) >= 0.0:
        return lo_db
    lo, hi = lo_db, hi_db
    while hi - lo > tol_db:
        mid = (lo + hi) / 2.0
        if margin_fn(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi
