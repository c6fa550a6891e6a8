"""Memoryless channel segments, relay regeneration, and discrete equivalents.

SNR is defined per complex symbol: an AWGN segment at linear snr adds
circular noise of total variance 1/snr (1/(2 snr) per real dimension).
Above NOISELESS_SNR the segment is treated as exactly transparent.

A hard-decision relay collapses a hop into a discrete memoryless channel.
Its transition matrix is column stochastic with W[i, j] = P(decide symbol
i | sent symbol j); chaining hops multiplies matrices in traversal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .errors import ConfigError, UnsupportedMethodError

NOISELESS_SNR = 1e30          # linear; ~300 dB
SNR_CAP_DB = 300.0
COLUMN_SUM_TOL = 1e-9
_MC_CHUNK = 200_000           # fixed chunk size keeps draws reproducible

HARD_DECISION = "hard_decision"
SCALE = "scale"
ANALYTIC = "analytic"
MONTE_CARLO = "mc"


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key).

    All simulation code derives per-point and per-chunk streams this way,
    so results do not depend on evaluation order or worker count.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def complex_noise_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-variance circular complex Gaussian samples."""
    z = rng.standard_normal((2, n))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


@dataclass(frozen=True)
class AwgnSegment:
    """One additive white Gaussian noise hop at a fixed linear snr."""

    snr: float

    def __post_init__(self):
        if not self.snr > 0:
            raise ConfigError(f"snr must be positive, got {self.snr!r}")

    @classmethod
    def from_db(cls, snr_db: float) -> "AwgnSegment":
        return cls(snr=10.0 ** (min(snr_db, SNR_CAP_DB) / 10.0))

    @property
    def noise_var(self) -> float:
        """Total complex noise variance; exactly 0 above the noiseless cap."""
        return 0.0 if self.snr >= NOISELESS_SNR else 1.0 / self.snr


@dataclass(frozen=True)
class RelayFunction:
    """Per-symbol regeneration rule applied at the relay."""

    kind: str
    eta: float = 1.0

    def __post_init__(self):
        if self.kind not in (HARD_DECISION, SCALE):
            raise ConfigError(f"unknown relay kind {self.kind!r}")
        if self.kind == SCALE and not self.eta > 0:
            raise ConfigError("scale factor must be positive")

    @classmethod
    def hard_decision(cls) -> "RelayFunction":
        return cls(kind=HARD_DECISION)

    @classmethod
    def scale(cls, eta: float) -> "RelayFunction":
        return cls(kind=SCALE, eta=eta)


@dataclass(eq=False)
class DmcMatrix:
    """Column-stochastic transition matrix between constellation indices."""

    probs: np.ndarray
    snr_db: float | None = None
    method: str = ANALYTIC
    seed: int | None = None

    @property
    def order(self) -> int:
        return self.probs.shape[0]

    def validate(self) -> None:
        p = self.probs
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ConfigError("transition matrix must be square")
        if np.any(p < 0):
            raise ConfigError("transition probabilities must be nonnegative")
        err = np.max(np.abs(p.sum(axis=0) - 1.0))
        if err > COLUMN_SUM_TOL:
            raise ConfigError(f"columns deviate from unit sum by {err:.3e}")

    def to_csv(self, path) -> None:
        """Row-major CSV dump with a metadata header."""
        with open(path, "w") as fh:
            fh.write(f"# M={self.order}\n")
            fh.write(f"# snr_db={'' if self.snr_db is None else repr(float(self.snr_db))}\n")
            fh.write(f"# method={self.method}\n")
            fh.write(f"# seed={'' if self.seed is None else self.seed}\n")
            for row in self.probs:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "DmcMatrix":
        meta = {}
        rows = []
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, val = line[1:].partition("=")
                    meta[key.strip()] = val.strip()
                    continue
                rows.append([float(v) for v in line.split(",")])
        probs = np.array(rows)
        m = cls(
            probs=probs,
            snr_db=float(meta["snr_db"]) if meta.get("snr_db") else None,
            method=meta.get("method", ANALYTIC),
            seed=int(meta["seed"]) if meta.get("seed") else None,
        )
        if int(meta.get("M", probs.shape[0])) != probs.shape[0]:
            raise ConfigError("header order does not match matrix shape")
        m.validate()
        return m


@dataclass(frozen=True)
class LinkModel:
    """Span-based link budget: snr_ref_db is the single-span snr and every
    further span divides it; a traversed relay charges relay_penalty_db on
    the hop it feeds."""

    snr_ref_db: float
    span_length_km: float = 80.0
    relay_penalty_db: float = 0.0
    spans_hop1: int = 0
    spans_hop2: int = 1

    def __post_init__(self):
        if self.relay_penalty_db < 0:
            raise ConfigError("relay penalty must be >= 0")
        if self.spans_hop1 < 0 or self.spans_hop2 < 1:
            raise ConfigError("hop 1 needs at least 0 spans and hop 2 at least 1")

    def hop1_snr_db(self) -> float | None:
        """Hop-1 snr in dB; None when no relay is deployed."""
        if self.spans_hop1 == 0:
            return None
        return self.snr_ref_db - 10.0 * math.log10(self.spans_hop1)

    def hop_snrs(self) -> tuple:
        """Linear snr of both hops; hop 1 is None when no relay is deployed."""
        s1 = None if self.spans_hop1 == 0 else snr_for_hop(self, self.spans_hop1)
        s2_db = self.snr_ref_db - 10.0 * math.log10(self.spans_hop2)
        if self.spans_hop1 > 0:
            s2_db -= self.relay_penalty_db
        return s1, 10.0 ** (s2_db / 10.0)

    def max_spans_hop2(self, snr2_db: float) -> int:
        """Most hop-2 spans that still deliver snr2_db, after the relay
        penalty when a relay feeds hop 2; below 1 when none do."""
        avail_db = self.snr_ref_db - (self.relay_penalty_db if self.spans_hop1 > 0 else 0.0)
        return math.floor(10.0 ** ((avail_db - snr2_db) / 10.0) + 1e-9)


def snr_for_hop(link: LinkModel, spans: int) -> float:
    """Linear snr after the given number of spans, before any relay penalty."""
    if spans < 1:
        raise ConfigError("a hop needs at least one span")
    return 10.0 ** ((link.snr_ref_db - 10.0 * math.log10(spans)) / 10.0)


def power_normalizing_eta(snr1: float) -> float:
    """Gain that returns a unit-power signal after the first hop.

    The relay input x + n1 has power 1 + 1/snr1, so eta^2 = snr1/(snr1+1).
    """
    if not snr1 > 0:
        raise ConfigError("snr1 must be positive")
    return float(np.sqrt(snr1 / (snr1 + 1.0)))


def scale_relay_equivalent_snr(snr1: float, snr2: float) -> float:
    """Effective single-hop snr of two AWGN hops joined by a power
    normalizing scaling relay: snr1*snr2/(snr1+snr2+1)."""
    if not (snr1 > 0 and snr2 > 0):
        raise ConfigError("hop snrs must be positive")
    return snr1 * snr2 / (snr1 + snr2 + 1.0)


def transmit(symbols: np.ndarray, seg: AwgnSegment, seed) -> np.ndarray:
    """Pass symbols through one AWGN segment.

    seed is anything np.random.default_rng accepts, including an existing
    Generator to draw from in place.
    """
    var = seg.noise_var
    if var == 0.0:
        return np.array(symbols, copy=True)
    rng = np.random.default_rng(seed)
    return symbols + np.sqrt(var) * complex_noise_unit(rng, len(symbols))


def nearest_index(y, points: np.ndarray):
    """Index of the closest point in Euclidean distance; ties take the
    lowest index (np.argmin first-hit order)."""
    y = np.asarray(y)
    if y.ndim == 0:
        return int(np.argmin(np.abs(y - points)))
    return np.argmin(np.abs(y[..., None] - points[None, :]), axis=-1)


def hd_decide(y, c: Constellation):
    """Hard decision to the nearest constellation index (scalar or vector)."""
    return nearest_index(y, c.symbols)


def apply_relay(y: np.ndarray, f: RelayFunction, c: Constellation) -> np.ndarray:
    if f.kind == SCALE:
        return f.eta * np.asarray(y)
    idx = nearest_index(np.asarray(y), c.symbols)
    return c.symbols[idx]


def _rect_grid(c: Constellation):
    """Per-dimension level decomposition, or None if the constellation is
    not a full rectangular grid."""
    re = np.unique(c.symbols.real)
    im = np.unique(c.symbols.imag)
    if len(re) * len(im) != c.order:
        return None
    col = np.searchsorted(re, c.symbols.real)
    row = np.searchsorted(im, c.symbols.imag)
    if len(np.unique(row * len(re) + col)) != c.order:
        return None
    return re, im, col, row


def _levels_transition(levels: np.ndarray, sigma_dim: float) -> np.ndarray:
    """P(decide level a | sent level b) for 1-D nearest-level slicing."""
    from scipy.special import ndtr  # deferred: scipy.special is slow to import

    mids = (levels[:-1] + levels[1:]) / 2.0
    hi = np.append(mids, np.inf)
    lo = np.insert(mids, 0, -np.inf)
    z_hi = (hi[:, None] - levels[None, :]) / sigma_dim
    z_lo = (lo[:, None] - levels[None, :]) / sigma_dim
    return ndtr(z_hi) - ndtr(z_lo)


def transition_matrix(
    c: Constellation,
    snr: float,
    relay: RelayFunction,
    method: str = ANALYTIC,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> DmcMatrix:
    """Transition matrix of one AWGN hop followed by the relay decision.

    The analytic path slices the plane into per-dimension intervals and is
    only valid for full rectangular grids (16QAM, not the 32 cross); Monte
    Carlo works for any constellation.  mc_samples counts draws per sent
    symbol.  Scaling relays do not induce a discrete channel.
    """
    if relay.kind != HARD_DECISION:
        raise UnsupportedMethodError(
            "only a hard-decision relay induces a discrete channel; "
            "model a scaling relay through its equivalent continuous snr"
        )
    seg = AwgnSegment(snr=snr)
    snr_db = 10.0 * np.log10(snr)
    if method == ANALYTIC:
        grid = _rect_grid(c)
        if grid is None:
            raise UnsupportedMethodError(
                "analytic transition probabilities need a rectangular grid; "
                "use the Monte Carlo method for cross constellations"
            )
        re, im, col, row = grid
        sigma_dim = np.sqrt(seg.noise_var / 2.0) if seg.noise_var > 0 else 0.0
        if sigma_dim == 0.0:
            probs = np.eye(c.order)
        else:
            p_re = _levels_transition(re, sigma_dim)
            p_im = _levels_transition(im, sigma_dim)
            probs = p_re[np.ix_(col, col)] * p_im[np.ix_(row, row)]
        m = DmcMatrix(probs=probs, snr_db=snr_db, method=ANALYTIC, seed=None)
    elif method == MONTE_CARLO:
        if mc_samples < 1:
            raise ConfigError("mc_samples must be positive")
        counts = np.zeros((c.order, c.order), dtype=np.int64)
        var = seg.noise_var
        for j in range(c.order):
            rng = derived_rng(seed, j)
            done = 0
            while done < mc_samples:
                n = min(_MC_CHUNK, mc_samples - done)
                y = c.symbols[j] + np.sqrt(var) * complex_noise_unit(rng, n)
                counts[:, j] += np.bincount(nearest_index(y, c.symbols), minlength=c.order)
                done += n
        m = DmcMatrix(probs=counts / mc_samples, snr_db=snr_db, method=MONTE_CARLO, seed=seed)
    else:
        raise ConfigError(f"unknown transition matrix method {method!r}")
    m.validate()
    return m


def compose_dmc(chain) -> DmcMatrix:
    """Compose per-hop transition matrices in traversal order.

    compose_dmc([A, B]) is the channel that applies A first, so the
    resulting matrix is B @ A.
    """
    mats = list(chain)
    if not mats:
        raise ConfigError("nothing to compose")
    probs = mats[0].probs
    for m in mats[1:]:
        if m.order != probs.shape[0]:
            raise ConfigError("transition matrix sizes differ")
        probs = m.probs @ probs
    out = DmcMatrix(probs=probs, snr_db=None, method="composed", seed=None)
    out.validate()
    return out
