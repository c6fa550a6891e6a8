"""Per-bit soft demapping for direct and relayed links.

LLR sign convention: positive values favor bit 0.  Outputs are clipped to
+-LLR_CLIP, and noise variances passed here are per real dimension (half
the total complex variance of the segment feeding the receiver).

The equivalent demapper folds a discrete relay channel into the metric:
the likelihood of a sent index q is the mixture over relay outputs j of
W[j, q] times the Gaussian likelihood of receiving y from symbol j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DmcMatrix, nearest_index
from .constellation import Constellation
from .errors import ConfigError, NumericalDegeneracyError

LLR_CLIP = 50.0
_BIN_MAGIC = b"LLRB"
# rows demapped at a time; a qam32 block's complex distances take 1 MB
_BLOCK_ROWS = 2048


@dataclass(eq=False)
class Demapper:
    """Maximum a posteriori bit metric calculator for one receiver.

    transition=None gives the conventional memoryless AWGN metric; with a
    transition matrix the metric marginalizes over relay decisions.
    """

    constellation: Constellation
    noise_var: float
    transition: DmcMatrix | None = None

    def __post_init__(self):
        if not self.noise_var > 0:
            raise ConfigError("per-dimension noise variance must be positive")
        if self.transition is not None and self.transition.order != self.constellation.order:
            raise ConfigError("transition matrix order does not match constellation")

    @classmethod
    def conventional(cls, c: Constellation, snr: float) -> "Demapper":
        """Single-hop demapper for an AWGN segment at linear snr."""
        return cls(constellation=c, noise_var=0.5 / snr)

    @classmethod
    def equivalent(cls, c: Constellation, snr2: float, dmc: DmcMatrix) -> "Demapper":
        """Two-hop demapper: discrete relay stage dmc, then AWGN at snr2."""
        return cls(constellation=c, noise_var=0.5 / snr2, transition=dmc)

    def llrs(self, y) -> np.ndarray:
        """Per-bit LLRs, shape (n, bits_per_symbol).

        Samples are demapped _BLOCK_ROWS at a time into the output, so
        working memory does not grow with n.  Each row's likelihoods are
        shifted by their maximum, read at the slicer's nearest symbol,
        before one exp, so that symbol weighs exactly 1 and, without a
        relay stage, the bit set holding it sums to at least 1.  The other
        set underflows to 0 only past |LLR| ~ 745, far beyond the clip.
        A sample that is inf or NaN, or has zero likelihood under every
        hypothesis, raises NumericalDegeneracyError.
        """
        c = self.constellation
        y = np.atleast_1d(np.asarray(y, dtype=np.complex128))
        ones = c.labels.astype(np.float64)
        out = np.empty((len(y), c.bits_per_symbol))
        for i in range(0, len(y), _BLOCK_ROWS):
            yb = y[i:i + _BLOCK_ROWS]
            a = np.abs(yb[:, None] - c.symbols[None, :]) ** 2
            a /= -2.0 * self.noise_var
            amax = np.take_along_axis(a, nearest_index(yb, c.symbols)[:, None], axis=1)
            with np.errstate(invalid="ignore"):  # non-finite rows are rejected below
                a -= amax
            p = np.exp(a, out=a)
            if self.transition is not None:
                p = p @ self.transition.probs
            p0 = p @ (1.0 - ones)
            p1 = p @ ones
            if np.any((p0 == 0.0) & (p1 == 0.0)) or not np.isfinite(amax).all():
                raise NumericalDegeneracyError("sample is not finite or has zero "
                                               "likelihood under every symbol hypothesis")
            with np.errstate(divide="ignore"):
                np.subtract(np.log(p0), np.log(p1), out=out[i:i + _BLOCK_ROWS])
        return np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)


def save_llrs_csv(path, llrs: np.ndarray) -> None:
    """One sample per line, bit LLRs comma separated, repr precision."""
    llrs = np.atleast_2d(llrs)
    with open(path, "w") as fh:
        fh.write(f"# rows={llrs.shape[0]} bits={llrs.shape[1]}\n")
        for row in llrs:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_llrs_csv(path) -> np.ndarray:
    rows = []
    shape = None
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    fields = dict(kv.split("=") for kv in line[1:].split())
                    shape = (int(fields["rows"]), int(fields["bits"]))
                    continue
                rows.append([float(v) for v in line.split(",")])
        out = np.array(rows)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed LLR file: {exc}") from exc
    if shape is not None and out.shape != shape:
        raise ConfigError("LLR file header does not match its body")
    return out


def save_llrs_bin(path, llrs: np.ndarray) -> None:
    """Binary dump: 4-byte magic, two little-endian uint32 (rows, bits),
    then row-major little-endian float64 values."""
    llrs = np.ascontiguousarray(np.atleast_2d(llrs), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(np.array(llrs.shape, dtype="<u4").tobytes())
        fh.write(llrs.tobytes())


def load_llrs_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BIN_MAGIC:
            raise ConfigError("not an LLR binary file")
        try:
            n, m = np.frombuffer(fh.read(8), dtype="<u4")
            data = np.frombuffer(fh.read(int(n) * int(m) * 8), dtype="<f8")
        except ValueError as exc:
            raise ConfigError(f"LLR binary file is truncated: {exc}") from exc
    if data.size != int(n) * int(m):
        raise ConfigError("LLR binary file is truncated")
    return data.reshape(int(n), int(m)).astype(np.float64)


@dataclass(eq=False)
class PiecewiseLinearFit:
    """Continuous piecewise-linear approximant with fixed knot abscissae.

    ``max_error`` is the largest absolute residual over the fitting grid,
    so a brute-force rescan of the same grid reproduces it exactly.
    """

    knots_x: np.ndarray
    knots_y: np.ndarray
    max_error: float
    grid: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.knots_x, self.knots_y)


def _hat_matrix(grid, knots_x):
    # segment index in [0, n_knots-2]; the right endpoint folds into the last
    seg = np.clip(np.searchsorted(knots_x, grid, side="right") - 1, 0, knots_x.size - 2)
    t = (grid - knots_x[seg]) / (knots_x[seg + 1] - knots_x[seg])
    a = np.zeros((grid.size, knots_x.size))
    rows = np.arange(grid.size)
    a[rows, seg] = 1.0 - t
    a[rows, seg + 1] = t
    return a


def piecewise_linear_fit(fn, knots, lo=-4.0, hi=4.0, grid_points=801):
    """Least-max-error continuous piecewise-linear fit of a scalar map.

    Knot abscissae are spaced evenly over [lo, hi]; knot ordinates minimize
    the worst absolute error over an evenly spaced evaluation grid of
    ``grid_points`` samples on the same interval (a small Chebyshev linear
    program).  Useful for compressing demapping tables into a few segments.
    """
    knots = int(knots)
    if knots < 2:
        raise ConfigError("need at least 2 knots")
    if not hi > lo:
        raise ConfigError("empty fit interval")
    if int(grid_points) < knots:
        raise ConfigError("grid coarser than knot set")
    grid = np.linspace(lo, hi, int(grid_points))
    f = np.asarray(fn(grid), dtype=float).ravel()
    if f.size != grid.size:
        raise ConfigError("fitted function must map the grid pointwise")
    if not np.all(np.isfinite(f)):
        raise NumericalDegeneracyError("non-finite samples on the fit grid")

    from scipy.optimize import linprog  # deferred: scipy.optimize is slow to import

    kx = np.linspace(lo, hi, knots)
    a = _hat_matrix(grid, kx)
    # minimize t subject to |A v - f| <= t
    n = knots
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * grid.size, n + 1))
    a_ub[: grid.size, :n] = a
    a_ub[: grid.size, -1] = -1.0
    a_ub[grid.size :, :n] = -a
    a_ub[grid.size :, -1] = -1.0
    b_ub = np.concatenate([f, -f])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * n + [(0.0, None)], method="highs")
    if not res.success:
        raise RuntimeError(f"minimax fit did not converge: {res.message}")
    ky = res.x[:n]
    err = float(np.max(np.abs(a @ ky - f)))
    return PiecewiseLinearFit(knots_x=kx, knots_y=ky, max_error=err, grid=grid)
