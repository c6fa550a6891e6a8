"""Achievable-rate estimation from soft demapper output.

The figure of merit is the generalized mutual information of the bit
metric decoder, in bits per symbol:

    G = sum_i ( 1 - E[ log2(1 + exp(-(-1)^{b_i} L_i)) ] )

alongside a 95% confidence halfwidth from the per-symbol loss variance.
This module also hosts the fixed-noise two-hop link (RelayLink) that the
rate evaluator and the coded error-rate loop share, with the demapper
each relay variant pairs with, and the scalar LLR rescaling that a
mismatched (relay-blind) demapper needs to stop its rate estimate from
collapsing: the multiplier that minimizes the convex loss, found by a
safeguarded Newton solve (optimal_llr_scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import (
    ANALYTIC,
    DmcMatrix,
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
_SCALE_TOL = 1e-6

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
    bit_losses: np.ndarray = field(repr=False, compare=False)   # (n, m), bits
    degenerate: bool = False


def _estimate(loss: np.ndarray) -> GmiEstimate:
    """Rate estimate from the (n, m) per-bit losses in bits."""
    n, m = loss.shape
    per_symbol = loss.sum(axis=1)
    value = m - float(per_symbol.mean())
    ci = 1.96 * float(per_symbol.std(ddof=1)) / np.sqrt(n) if n > 1 else np.inf
    return GmiEstimate(
        value=max(value, 0.0),
        ci95=ci,
        per_level=1.0 - loss.mean(axis=0),
        n_symbols=n,
    )


def _signed_metrics(llrs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """z = (1 - 2b) * llr, built in one float64 array of the bits' shape."""
    z = np.multiply(bits, -2.0, dtype=np.float64)
    z += 1.0
    return np.multiply(z, llrs, out=z)


def gmi_from_llrs(llrs: np.ndarray, bits: np.ndarray) -> GmiEstimate:
    """Estimate the rate from paired (llrs, sent bits), both (n, m)."""
    llrs = np.atleast_2d(llrs)
    bits = np.atleast_2d(bits)
    if llrs.shape != bits.shape:
        raise ConfigError("llrs and bits shapes differ")
    z = _signed_metrics(llrs, bits)
    np.logaddexp(0.0, np.negative(z, out=z), out=z)
    return _estimate(np.divide(z, _LN2, out=z))


def optimal_llr_scale(llrs: np.ndarray, bits: np.ndarray) -> ScaleResult:
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
    the LLRs are.  It stops once a step moves the scale by at most
    _SCALE_TOL, or by _SCALE_TOL relative to the scale when that exceeds 1.

    Metrics that are identically zero carry no information: scale 0,
    flagged degenerate.  Metrics wrong at least as much as right on
    average (L'(0) >= 0) give scale 0 and the loss there.  Metrics never
    wrong (no z < 0) have no finite minimizer; they give the finite
    scale at which every nonzero-metric term of the loss underflows to 0.
    The result also carries the per-bit losses at the scale it returns.
    The solve holds three arrays of the input's size, w (z divided in
    place) and two Newton work arrays, and drops them before the losses,
    which rebuild z from (llrs, bits).
    """
    llrs = np.atleast_2d(llrs)
    bits = np.atleast_2d(bits)
    m = llrs.shape[1]

    def result(zeta, degenerate=False):
        loss = _signed_metrics(llrs, bits)
        np.logaddexp(0.0, np.multiply(loss, -zeta, out=loss), out=loss)
        total = float(loss.mean()) * m / _LN2
        return ScaleResult(scale=zeta, loss=total, degenerate=degenerate,
                           bit_losses=np.divide(loss, _LN2, out=loss).reshape(llrs.shape))

    w = _signed_metrics(llrs, bits).ravel()
    unit = float(np.abs(w).max())
    if unit == 0.0:
        return result(0.0, degenerate=True)
    w /= unit
    wrong = -float(np.minimum(w, 0.0).sum())
    np.abs(w, out=w)
    if wrong == 0.0:
        return result(_SEPARATED / (unit * float(w[w > 0.0].min())))
    half = 0.5 * float(w.sum())
    if half <= wrong:
        return result(0.0)

    lo, hi = 0.0, np.inf
    t = (half - wrong) / (0.25 * float(w @ w))
    e = np.empty_like(w)  # exp(-t w), then r = e / (1 + e), then w r
    d = np.empty_like(w)  # 1 + e, then w / (1 + e)
    for _ in range(_MAX_STEPS):
        np.exp(np.multiply(w, -t, out=e), out=e)
        np.add(e, 1.0, out=d)
        e /= d
        phi = float(w @ e)
        if phi > wrong:
            lo = t
        elif phi < wrong:
            hi = t
        else:
            break
        dphi = float(np.multiply(e, w, out=e) @ np.divide(w, d, out=d))
        step = phi * np.log(phi / wrong) / dphi if phi > 0.0 and dphi > 0.0 else np.nan
        nxt = t + step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < np.inf else 2.0 * t
        done = abs(nxt - t) <= _SCALE_TOL * max(unit, nxt)
        t = nxt
        if done:
            break
    del w, e, d
    return result(t / unit)


def _draw_symbols(c: Constellation, n: int, seed: int, key: int) -> tuple:
    """n symbols' source bits from derived_rng(seed, key), shaped (n, m),
    and their symbols."""
    m = c.bits_per_symbol
    bits = derived_rng(seed, key).integers(0, 2, size=n * m, dtype=np.uint8)
    return bits.reshape(n, m), c.symbols[indices_for_bits(c, bits)]


class RelayLink:
    """Symbols x sent over hop 1 at snr1, forwarded by the relay variant,
    and received over hop 2 at fixed noise.

    Hop-1 noise comes from derived_rng(*key, 1).  Unit-variance hop-2
    noise comes from derived_rng(*key, 2), and receive(snr2) rescales it,
    so every query sees the same draws whatever its snr2.

    A scaling relay restores unit power; the hard-decision variants
    re-decide every symbol to the nearest point.  splice, when given, maps
    the decided indices to the indices sent on, such as a codeword with
    the relay's own traffic spliced in.  dmc is the relay's transition
    matrix, which the matched hard-decision receiver needs to demap.
    """

    def __init__(self, c: Constellation, x: np.ndarray, snr1: float, variant: str, key: tuple,
                 dmc: DmcMatrix | None = None, splice=None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown link variant {variant!r}")
        self.c = c
        self.snr1 = float(snr1)
        self.variant = variant
        self.dmc = dmc
        y1 = transmit(x, self.snr1, complex_noise_unit(derived_rng(*key, 1), len(x)))
        if variant == SCALE_RELAY:
            self.sent = power_normalizing_eta(self.snr1) * y1
        else:
            idx = nearest_index(y1, c.symbols)
            self.sent = c.symbols[idx if splice is None else splice(idx)]
        self.unit_noise = complex_noise_unit(derived_rng(*key, 2), len(x))

    def receive(self, snr2: float) -> np.ndarray:
        """Hop-2 output at snr2."""
        return transmit(self.sent, snr2, self.unit_noise)

    def llrs(self, y2: np.ndarray, snr2: float) -> np.ndarray:
        """Destination LLRs of two-hop traffic received as y2 at snr2.

        A scaling relay is demapped conventionally at the composite snr,
        after undoing its gain; a matched hard-decision receiver uses the
        equivalent demapper over dmc; the relay-blind legacy receiver
        demaps conventionally at snr2 alone.
        """
        if self.variant == SCALE_RELAY:
            eta = power_normalizing_eta(self.snr1)
            dem = Demapper.conventional(self.c, scale_relay_equivalent_snr(self.snr1, snr2))
            return dem.llrs(y2 / eta)
        if self.variant == HD_MATCHED:
            if self.dmc is None:
                raise ConfigError("the matched receiver needs the relay's transition matrix")
            return Demapper.equivalent(self.c, snr2, self.dmc).llrs(y2)
        return Demapper.conventional(self.c, snr2).llrs(y2)


def decodability_margin(c: Constellation, value: float, rate: float) -> float:
    """Rate value (bits per symbol) minus what a code of the given rate
    carries on c: positive means the codeword is inside the rate region."""
    return value - c.bits_per_symbol * rate


class RelayGmiEvaluator:
    """Fixed-noise evaluator of link rates as the second hop snr varies.

    Source bits are drawn once and sent over one RelayLink keyed (seed,),
    whose stored hop-2 noise each query rescales.  Rate estimates are
    then continuous and monotone in snr2, which keeps bisection results
    deterministic.  A separate stream with its own noise, drawn on first
    use, supports the single-hop (relay-injected traffic) rate at the
    same snr2.
    """

    def __init__(
        self,
        c: Constellation,
        snr1: float,
        variant: str,
        n_symbols: int,
        seed: int,
        dmc_method: str = ANALYTIC,
        dmc_samples: int = 200_000,
    ):
        if n_symbols < 2:
            raise ConfigError("need at least two symbols")
        self.c = c
        self.n_symbols = int(n_symbols)
        self._seed = seed
        self.bits, x = _draw_symbols(c, self.n_symbols, seed, 0)
        dmc = None if variant != HD_MATCHED else transition_matrix(
            c, float(snr1), method=dmc_method, mc_samples=dmc_samples,
            seed=int(derived_rng(seed, 3).integers(0, 2 ** 31)))
        self.link = RelayLink(c, x, snr1, variant, (seed,), dmc)

    @cached_property
    def _single_stream(self) -> tuple:
        """Bits, symbols and unit noise of the single-hop stream."""
        return (*_draw_symbols(self.c, self.n_symbols, self._seed, 4),
                complex_noise_unit(derived_rng(self._seed, 5), self.n_symbols))

    def two_hop_gmi(self, snr2: float) -> GmiEstimate:
        """Rate of traffic that crosses both hops, under this variant."""
        link = self.link
        llrs = link.llrs(link.receive(snr2), snr2)
        if link.variant == HD_LEGACY_SOPT:
            # the relay-blind receiver's rate after its best scalar rescaling
            return _estimate(optimal_llr_scale(llrs, self.bits).bit_losses)
        return gmi_from_llrs(llrs, self.bits)

    def single_hop_gmi(self, snr2: float) -> GmiEstimate:
        """Rate of traffic injected at the relay, seeing only hop 2."""
        bits, x, unit_noise = self._single_stream
        y = transmit(x, snr2, unit_noise)
        return gmi_from_llrs(Demapper.conventional(self.c, snr2).llrs(y), bits)

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
        return decodability_margin(self.c, value, rate)


def single_hop_gmi(c: Constellation, snr: float, n_symbols: int, seed: int) -> GmiEstimate:
    """One-shot rate estimate of a plain AWGN link at linear snr."""
    bits, x = _draw_symbols(c, int(n_symbols), seed, 0)
    y = transmit(x, snr, complex_noise_unit(derived_rng(seed, 1), len(x)))
    dem = Demapper.conventional(c, snr)
    return gmi_from_llrs(dem.llrs(y), bits)


def required_snr2_db(
    margin_fn,
    lo_db: float = -2.0,
    hi_db: float = 30.0,
    tol_db: float = 0.05,
    *,
    continuous: bool = False,
) -> float:
    """Smallest second-hop snr (dB) with nonnegative margin.

    margin_fn maps snr2 in dB to a margin that is monotone nondecreasing
    in snr2.  Returns lo_db when already satisfied there, inf when not
    satisfiable at hi_db, otherwise the high side of a bisection bracket
    no wider than tol_db.

    By default this is plain bisection: margin_fn(hi_db), margin_fn(lo_db),
    then the midpoints.  continuous=True states that the margin's size,
    not only its sign, says where the boundary lies, as for a rate from a
    fixed-noise evaluator.  The search then probes estimates of the zero,
    snapped to the brackets bisection could end in (_grid_search): on any
    monotone margin it returns the same float as bisection, with no more
    probes when the answer lies above lo_db, at most three when lo_db
    passes and at most two when hi_db fails.  A bracket that is empty or
    has an infinite end, or a tolerance that is not positive, raises
    ConfigError: the search could not narrow it.
    """
    if not (math.isfinite(lo_db) and math.isfinite(hi_db) and hi_db > lo_db):
        raise ConfigError(f"bad snr2 search bracket [{lo_db!r}, {hi_db!r}]")
    if not tol_db > 0:
        raise ConfigError(f"bisection tolerance must be positive, got {tol_db!r}")
    if continuous:
        return _grid_search(margin_fn, lo_db, hi_db, tol_db)
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


def _descend(lo, hi, tol, a, b):
    """Walk bisection's tree from [lo, hi] with its own float operations,
    taking every mid >= b as passing and every mid <= a as failing.

    Stops at the first bracket whose mid lies strictly inside (a, b), or
    at a final bracket (width <= tol); returns that bracket and the number
    of halvings down to it.  With a == b == x, the final bracket (lo, hi]
    that holds x.
    """
    depth = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid >= b:
            hi = mid
        elif mid <= a:
            lo = mid
        else:
            break
        depth += 1
    return lo, hi, depth


def _zero_estimate(pts):
    """snr2 at zero margin by inverse interpolation: the polynomial in
    the margin through the (snr2, margin) pairs pts, whose margins must
    differ, evaluated at zero."""
    x0 = 0.0
    for i, (xi, yi) in enumerate(pts):
        for j, (_, yj) in enumerate(pts):
            if j != i:
                xi *= yj / (yj - yi)
        x0 += xi
    return x0


def _grid_search(margin_fn, lo_db, hi_db, tol_db):
    """Bisection's answer on a margin with continuous values, in fewer probes.

    Bisection returns lo_db or the upper end of one of its final brackets;
    call these the candidates.  Adjacent final brackets share their ends,
    so on a monotone margin it returns the smallest passing candidate,
    and so does this search.  It keeps candidates a below the answer and
    b at or above it, probes only candidates strictly between them, and
    stops when they bound one final bracket.  lo_db and hi_db count as a
    and b before they are probed; a probe inside settles one of them.

    A passing first mid is followed by the next mid below it and then,
    if that passes too, by lo_db; a failing one by hi_db.  After that,
    each probe is the candidate nearest an estimate of the zero (from
    the three probes nearest it, or regula falsi on a and b), or else
    bisection's next undecided mid.  Bisection makes two end probes and
    one per mid down to its final bracket; a mid probe decides at least
    one mid, an estimate may decide none, so estimates are taken only
    while probes <= decided mids + 1.
    """
    a, b, fa, fb = lo_db, hi_db, None, None
    probes = []
    while True:
        lo, hi, depth = _descend(lo_db, hi_db, tol_db, a, b)
        final = not hi - lo > tol_db
        if fa is None and (final or len(probes) >= 2):
            x = a
        elif fb is None and (final or fa is not None):
            x = b
        elif final:
            return b
        else:
            x = (lo + hi) / 2.0
            if fa is not None and fb is not None and len(probes) <= depth + 1:
                near = sorted(probes, key=lambda p: abs(p[1]))[:3]
                guess = _zero_estimate(near) if len({m for _, m in near}) == 3 else None
                if guess is None or not a < guess < b:
                    guess = b - fb * (b - a) / (fb - fa)
                l, h, _ = _descend(lo_db, hi_db, tol_db, guess, guess)
                inside = [v for v in (l, h) if a < v < b]
                if inside:
                    x = min(inside, key=lambda v: abs(v - guess))
        m = margin_fn(x)
        probes.append((x, m))
        if m >= 0.0:
            if x == lo_db:
                return lo_db
            b, fb = x, m
        elif x == hi_db:
            return np.inf
        else:
            a, fa = x, m
