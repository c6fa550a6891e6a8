"""Memoryless channel hops, link budgets, and discrete equivalents.

SNR is defined per complex symbol: an AWGN hop at linear snr adds
circular noise of total variance noise_var(snr) = 1/snr (1/(2 snr) per
real dimension).  At or above NOISELESS_SNR the hop is exactly
transparent.

A hard-decision relay collapses a hop into a discrete memoryless channel.
Its transition matrix is column stochastic with W[i, j] = P(decide symbol
i | sent symbol j); chaining hops multiplies matrices in traversal order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constellation import Constellation
from .errors import ConfigError

NOISELESS_SNR = 1e30          # linear; ~300 dB
COLUMN_SUM_TOL = 1e-9
_MC_CHUNK = 200_000           # fixed chunk size keeps draws reproducible

ANALYTIC = "analytic"
MONTE_CARLO = "mc"


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key).

    All simulation code derives per-point and per-chunk streams this way,
    so results do not depend on evaluation order or worker count.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def complex_noise_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-variance circular complex Gaussian samples: the doubles of
    (z[0] + 1j * z[1]) / np.sqrt(2.0) on normals z of shape (2, n), with no
    complex temporary.  numpy divides by sqrt(2) + 0j as (x + y * 0) * (1 /
    sqrt(2)) per part, so only an exactly zero draw could differ, in sign."""
    z = rng.standard_normal((2, n))
    z *= 1.0 / np.sqrt(2.0)
    out = np.empty(n, dtype=np.complex128)
    out.real, out.imag = z
    return out


def noise_var(snr: float) -> float:
    """Total complex noise variance of a hop at linear snr; exactly 0 at
    or above the noiseless cap."""
    if not snr > 0:
        raise ConfigError(f"snr must be positive, got {snr!r}")
    return 0.0 if snr >= NOISELESS_SNR else 1.0 / snr


def save_table(path, header, rows) -> None:
    """The CSV table of the transition-matrix and LLR files: one "# "
    line per header entry, then one row of repr(float) values per line."""
    with open(path, "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_table(path, what: str) -> tuple:
    """(meta, rows) of a save_table file: every key=value word of its "#"
    lines, other words ignored, and its rows as a float array.  A row that
    is not floats, or not as long as the others, raises ConfigError."""
    meta = {}
    rows = []
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if line.startswith("#"):
                    meta.update(w.split("=", 1) for w in line[1:].split() if "=" in w)
                elif line:
                    rows.append([float(v) for v in line.split(",")])
        return meta, np.array(rows)
    except ValueError as exc:
        raise ConfigError(f"malformed {what} file: {exc}") from exc


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
        # written so that NaN fails both tests
        if not (p >= 0).all():
            raise ConfigError("transition probabilities must be nonnegative")
        err = np.max(np.abs(p.sum(axis=0) - 1.0))
        if not err <= COLUMN_SUM_TOL:
            raise ConfigError(f"columns deviate from unit sum by {err:.3e}")

    def to_csv(self, path) -> None:
        """Row-major CSV table with a metadata header."""
        save_table(path, (f"M={self.order}",
                          f"snr_db={'' if self.snr_db is None else repr(float(self.snr_db))}",
                          f"method={self.method}",
                          f"seed={'' if self.seed is None else self.seed}"), self.probs)

    @classmethod
    def from_csv(cls, path) -> "DmcMatrix":
        meta, probs = load_table(path, "transition matrix")
        try:
            m = cls(
                probs=probs,
                snr_db=float(meta["snr_db"]) if meta.get("snr_db") else None,
                method=meta.get("method", ANALYTIC),
                seed=int(meta["seed"]) if meta.get("seed") else None,
            )
            order = int(meta.get("M", probs.shape[0]))
        except ValueError as exc:
            raise ConfigError(f"malformed transition matrix file: {exc}") from exc
        if order != probs.shape[0]:
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

    def __post_init__(self):
        # written so that NaN fails each test
        if not math.isfinite(self.snr_ref_db):
            raise ConfigError("reference snr must be finite")
        if not 0 < self.span_length_km < math.inf:
            raise ConfigError("span length must be positive and finite")
        if not 0 <= self.relay_penalty_db < math.inf:
            raise ConfigError("relay penalty must be finite and >= 0")
        if self.spans_hop1 < 0:
            raise ConfigError("hop 1 needs at least 0 spans")

    def hop1_snr_db(self) -> float | None:
        """Hop-1 snr in dB; None when no relay is deployed."""
        if self.spans_hop1 == 0:
            return None
        return self.snr_ref_db - 10.0 * math.log10(self.spans_hop1)

    def max_spans_hop2(self, snr2_db: float) -> int:
        """Most hop-2 spans that still deliver snr2_db, after the relay
        penalty when a relay feeds hop 2; below 1 when none do."""
        avail_db = self.snr_ref_db - (self.relay_penalty_db if self.spans_hop1 > 0 else 0.0)
        return math.floor(10.0 ** ((avail_db - snr2_db) / 10.0) + 1e-9)


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


def transmit(symbols: np.ndarray, snr: float, unit_noise: np.ndarray) -> np.ndarray:
    """Pass symbols through one AWGN hop at linear snr, scaling the
    unit-variance noise unit_noise (complex_noise_unit) to the hop's."""
    var = noise_var(snr)
    if var == 0.0:
        return np.array(symbols, copy=True)
    return symbols + np.sqrt(var) * unit_noise


def nearest_index(y, points: np.ndarray):
    """Index of the closest point in Euclidean distance; ties take the
    lowest index (np.argmin first-hit order).

    When the points sit on a uniform rectangular lattice, one to a cell
    (see _lattice), an array of draws is sliced by rounding each axis to
    its nearest level, clipped to the lattice: a cell that holds a point
    holds the nearest point of the whole lattice, so also of the point
    set.  A draw takes the exact path instead when it lies within
    _SLICE_GUARD spacings of a decision line on either axis, when its cell
    is empty (the corners of the 32-cross), when it lies farther than
    _SLICE_REACH spacings from the lattice, or when it is not finite.  The
    exact path keeps a running minimum over the points, so that no y.size
    by len(points) temporary is built; only a strictly closer point takes
    over.  Both paths return np.argmin's index for every draw, and a point
    set off a lattice takes the exact path for every draw.
    """
    y = np.asarray(y)
    if y.ndim == 0:
        return int(np.argmin(np.abs(y - points)))
    lat = _lattice(points)
    if lat is None:
        return _running_min_index(y, points)
    with np.errstate(invalid="ignore", over="ignore"):
        col, ok = _nearest_level(y.real, lat.re)
        row, ok_im = _nearest_level(y.imag, lat.im)
        ok &= ok_im
        row *= lat.re.levels
        row += col
        # a draw that fails a test reads the table's last entry, a -1
        cell = np.full(y.shape, lat.table.size - 1, dtype=np.intp)
        np.copyto(cell, row, casting="unsafe", where=ok)
    idx = lat.table.take(cell)
    exact = idx < 0
    if exact.any():
        idx[exact] = _running_min_index(y[exact], points)
    return idx


def _running_min_index(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    best = np.abs(y - points[0])
    idx = np.zeros(y.shape, dtype=np.intp)
    for k in range(1, len(points)):
        d = np.abs(y - points[k])
        closer = d < best
        idx[closer] = k
        np.minimum(best, d, out=best)
    return idx


# A draw within _SLICE_GUARD spacings of a decision line may round to the
# wrong side of it.  Farther than _SLICE_REACH smallest spacings from the
# lattice, the float distances that np.argmin compares can no longer tell
# apart points whose true distances differ by the guard band, so a wider
# lattice does not slice either.  A point may sit _LATTICE_TOL spacings
# from its lattice site, far inside the guard band.
_SLICE_GUARD = 1e-6
_SLICE_REACH = 256
_LATTICE_TOL = 1e-9


class _Axis(NamedTuple):
    origin: float       # the lowest level
    spacing: float
    reach: float        # _SLICE_REACH smallest spacings, in this axis's spacings
    levels: int


class _Lattice(NamedTuple):
    re: _Axis
    im: _Axis
    # point index of cell row * cols + col, -1 if empty, and a last -1
    table: np.ndarray


def _nearest_level(v, axis: _Axis):
    """Index of the nearest level of axis, as floats, and whether v is
    clear of the guard band, within reach and finite (NaN fails)."""
    u = np.subtract(v, axis.origin, dtype=np.float64)
    u /= axis.spacing
    k = np.rint(u)
    u -= k
    ok = np.abs(u, out=u) <= 0.5 - _SLICE_GUARD
    ok &= np.abs(k) <= axis.reach
    return np.clip(k, 0, axis.levels - 1, out=k), ok


def _lattice(points: np.ndarray) -> _Lattice | None:
    """The uniform rectangular lattice that holds the points, one to a
    cell, or None if there is none.  It is built once per point set."""
    return _lattice_of(np.ascontiguousarray(points, dtype=np.complex128).tobytes())


@functools.lru_cache(maxsize=16)
def _lattice_of(key: bytes) -> _Lattice | None:
    points = np.frombuffer(key, dtype=np.complex128)
    if not np.isfinite(points).all():
        return None
    cells = _cells(points)
    if cells is None:
        return None
    re, im, col, row = cells
    if len(re) < 2 or len(im) < 2:
        return None
    spacing = [np.ptp(lv) / (len(lv) - 1) for lv in (re, im)]
    s_min = min(spacing)
    axes = []
    for v, lv, k, s in zip((points.real, points.imag), (re, im), (col, row), spacing):
        if (np.abs(v - (lv[0] + k * s)) > _LATTICE_TOL * s).any():
            return None
        if (len(lv) - 1) * s > _SLICE_REACH * s_min:
            return None
        axes.append(_Axis(float(lv[0]), float(s), _SLICE_REACH * s_min / s, len(lv)))
    table = np.full(len(re) * len(im) + 1, -1, dtype=np.intp)
    table[row * len(re) + col] = np.arange(len(points))
    return _Lattice(*axes, table)


def _axis_levels(v: np.ndarray, tol: float):
    """Ascending levels of the values v, each value within tol of the one
    below it joining that value's level, and every value's level index."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    step = np.diff(sv) > tol
    rank = np.empty(len(v), dtype=np.intp)
    rank[order] = np.concatenate(([0], np.cumsum(step)))
    return sv[np.concatenate(([True], step))], rank


def _cells(points: np.ndarray):
    """Level decomposition of a point set: the real and imaginary levels
    and every point's (col, row) cell, or None if two points share a cell."""
    # a lattice that holds M points has spacings of at least span/(M - 1),
    # so values this close are float noise on one level
    tol = _LATTICE_TOL * max(np.ptp(points.real), np.ptp(points.imag)) / len(points)
    re, col = _axis_levels(points.real, tol)
    im, row = _axis_levels(points.imag, tol)
    # a set, not numpy's unique, which imports numpy.ma
    if len(set((row * len(re) + col).tolist())) != len(points):
        return None
    return re, im, col, row


_SQRT1_2 = math.sqrt(0.5)


def _levels_transition(levels: np.ndarray, sigma_dim: float) -> np.ndarray:
    """P(decide level a | sent level b) for 1-D nearest-level slicing."""
    mids = (levels[:-1] + levels[1:]) / 2.0
    hi = np.append(mids, np.inf)
    lo = np.insert(mids, 0, -np.inf)
    z_hi = (hi[:, None] - levels[None, :]) / sigma_dim
    z_lo = (lo[:, None] - levels[None, :]) / sigma_dim
    return _ndtr_grid(z_hi) - _ndtr_grid(z_lo)


def _ndtr_grid(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of every entry, from math.erfc, which spares
    importing scipy.special; at most 6 x 6 entries, so scalar math costs
    nothing here."""
    return np.array([0.5 * math.erfc(-v * _SQRT1_2)
                     for v in z.ravel().tolist()]).reshape(z.shape)


def transition_matrix(
    c: Constellation,
    snr: float,
    *,
    method: str = ANALYTIC,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> DmcMatrix:
    """Transition matrix of one AWGN hop followed by a hard decision.

    A noiseless hop is the identity under either method.  Otherwise the
    analytic path slices the plane into per-dimension intervals, on full
    rectangular grids only (16QAM, not the 32 cross), and Monte Carlo draws
    mc_samples per sent symbol on any constellation.  A scaling relay has
    no discrete channel; the demapper models its equivalent continuous snr.
    """
    var = noise_var(snr)
    snr_db = 10.0 * np.log10(snr)
    if method not in (ANALYTIC, MONTE_CARLO):
        raise ConfigError(f"unknown transition matrix method {method!r}")
    if method == MONTE_CARLO and mc_samples < 1:
        raise ConfigError("mc_samples must be positive")
    if var == 0.0:
        # without noise every draw lands on its own symbol
        probs = np.eye(c.order)
    elif method == ANALYTIC:
        cells = _cells(c.symbols)
        if cells is None or len(cells[0]) * len(cells[1]) != c.order:
            raise ConfigError(
                "analytic transition probabilities need a rectangular grid; "
                "use the Monte Carlo method for cross constellations"
            )
        re, im, col, row = cells
        sigma_dim = np.sqrt(var / 2.0)
        p_re = _levels_transition(re, sigma_dim)
        p_im = _levels_transition(im, sigma_dim)
        probs = p_re[np.ix_(col, col)] * p_im[np.ix_(row, row)]
    else:
        counts = np.zeros((c.order, c.order), dtype=np.int64)
        for j in range(c.order):
            rng = derived_rng(seed, j)
            for done in range(0, mc_samples, _MC_CHUNK):
                y = complex_noise_unit(rng, min(_MC_CHUNK, mc_samples - done))
                y *= np.sqrt(var)
                y += c.symbols[j]
                counts[:, j] += np.bincount(nearest_index(y, c.symbols), minlength=c.order)
        probs = counts / mc_samples
    m = DmcMatrix(probs=probs, snr_db=snr_db, method=method,
                  seed=seed if method == MONTE_CARLO else None)
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
