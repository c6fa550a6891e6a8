"""Memoryless channel segments, link budgets, and discrete equivalents.

SNR is defined per complex symbol: an AWGN segment at linear snr adds
circular noise of total variance 1/snr (1/(2 snr) per real dimension).
Above NOISELESS_SNR the segment is treated as exactly transparent.

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


@dataclass(frozen=True)
class AwgnSegment:
    """One additive white Gaussian noise hop at a fixed linear snr."""

    snr: float

    def __post_init__(self):
        if not self.snr > 0:
            raise ConfigError(f"snr must be positive, got {self.snr!r}")

    @property
    def noise_var(self) -> float:
        """Total complex noise variance; exactly 0 above the noiseless cap."""
        return 0.0 if self.snr >= NOISELESS_SNR else 1.0 / self.snr


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
        try:
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
        if self.relay_penalty_db < 0:
            raise ConfigError("relay penalty must be >= 0")
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
    # a lattice that holds M points has spacings of at least span/(M - 1),
    # so values this close are float noise on one level
    tol = _LATTICE_TOL * max(np.ptp(points.real), np.ptp(points.imag)) / len(points)
    cells = _cells(points, tol)
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


def _cells(points: np.ndarray, tol: float = 0.0):
    """Level decomposition of a point set: the real and imaginary levels
    and every point's (col, row) cell, or None if two points share a cell."""
    re, col = _axis_levels(points.real, tol)
    im, row = _axis_levels(points.imag, tol)
    # a set, not numpy's unique, which imports numpy.ma
    if len(set((row * len(re) + col).tolist())) != len(points):
        return None
    return re, im, col, row


def _rect_grid(c: Constellation):
    """Per-dimension level decomposition, or None if the constellation is
    not a full rectangular grid."""
    grid = _cells(c.symbols)
    if grid is None or len(grid[0]) * len(grid[1]) != c.order:
        return None
    return grid


# Rational approximations of the Cephes ndtr.c that scipy.special.ndtr
# runs, highest degree first; _ndtr repeats its branches and Horner order
# so that it returns the same doubles without importing scipy.special.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """_polevl with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes erf, for |x| < 1."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x):
    """Cephes erfc, for x > 0."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0      # underflow
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    return math.exp(z) * p / q


def _ndtr(a: float) -> float:
    """Standard normal CDF, equal bit for bit to scipy.special.ndtr."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _levels_transition(levels: np.ndarray, sigma_dim: float) -> np.ndarray:
    """P(decide level a | sent level b) for 1-D nearest-level slicing."""
    mids = (levels[:-1] + levels[1:]) / 2.0
    hi = np.append(mids, np.inf)
    lo = np.insert(mids, 0, -np.inf)
    z_hi = (hi[:, None] - levels[None, :]) / sigma_dim
    z_lo = (lo[:, None] - levels[None, :]) / sigma_dim
    return _ndtr_grid(z_hi) - _ndtr_grid(z_lo)


def _ndtr_grid(z: np.ndarray) -> np.ndarray:
    # at most 6 x 6 entries, so scalar math costs nothing here
    return np.array([_ndtr(v) for v in z.ravel().tolist()]).reshape(z.shape)


def transition_matrix(
    c: Constellation,
    snr: float,
    *,
    method: str = ANALYTIC,
    mc_samples: int = 100_000,
    seed: int = 0,
) -> DmcMatrix:
    """Transition matrix of one AWGN hop followed by a hard decision.

    The analytic path slices the plane into per-dimension intervals and is
    only valid for full rectangular grids (16QAM, not the 32 cross); Monte
    Carlo works for any constellation.  mc_samples counts draws per sent
    symbol.  A scaling relay induces no discrete channel; the demapper
    models it through its equivalent continuous snr.
    """
    seg = AwgnSegment(snr=snr)
    snr_db = 10.0 * np.log10(snr)
    if method == ANALYTIC:
        grid = _rect_grid(c)
        if grid is None:
            raise ConfigError(
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
        var = seg.noise_var
        if var == 0.0:
            # without noise every draw lands on its own symbol
            counts = np.eye(c.order, dtype=np.int64) * mc_samples
        else:
            counts = np.zeros((c.order, c.order), dtype=np.int64)
            for j in range(c.order):
                rng = derived_rng(seed, j)
                done = 0
                while done < mc_samples:
                    n = min(_MC_CHUNK, mc_samples - done)
                    y = complex_noise_unit(rng, n)
                    y *= np.sqrt(var)
                    y += c.symbols[j]
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
