"""QAM constellations and their bit labelings.

Each supported constellation is defined by the plain-text table shipped
in ``relaycm.data``; build_constellation reads it.  Symbol indexing is
row-major over the I/Q grid: the imaginary level sweeps slowest from
most negative upward, the real level fastest.  Labels are bit vectors
with bit level 1 as the most significant bit.

The 16QAM table (qam16_gray.txt) applies an independent Gray code on
each axis (amplitude levels -3,-1,+1,+3 map to 00,01,11,10), so bits 1-2
select the real level and bits 3-4 the imaginary level.  Bit level 1 is
then the sign of the real part, which several tests rely on.

The 32QAM table (qam32_gmi32.txt) is the 6x6 cross with the four corners
removed.  No perfect Gray map exists for a cross; its labeling folds the
four two-point wings onto the short sides of a virtual 8x4 rectangle and
Gray-codes that rectangle per axis (3 bits horizontal, 2 bits vertical).
The result is quasi-Gray and balanced on every bit level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError

QAM16 = "qam16"
QAM32 = "qam32"

ENERGY_TOL = 1e-12

TABLES = {QAM16: "qam16_gray.txt", QAM32: "qam32_gmi32.txt"}


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Rows of an (n, m) bit array packed into intp, column 0 as the MSB."""
    out = np.zeros(len(bits), dtype=np.intp)
    for col in bits.T:
        out <<= 1
        out |= col
    return out


@dataclass(eq=False)
class Constellation:
    """A complex symbol set with a fixed bit labeling.

    Treated as immutable after construction.  ``symbols[i]`` is the point
    for integer index ``i`` and ``labels[i]`` its bit pattern, most
    significant bit first.
    """

    name: str
    symbols: np.ndarray          # (M,) complex128, unit mean energy
    labels: np.ndarray           # (M, m) uint8
    _lut: np.ndarray | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.symbols)

    @property
    def bits_per_symbol(self) -> int:
        return self.labels.shape[1]

    def label_ints(self) -> np.ndarray:
        """Labels packed into integers, bit level 1 as the MSB."""
        return _pack_rows(self.labels)

    def index_of_label(self) -> np.ndarray:
        """Lookup table from packed label to symbol index (-1 where unused)."""
        if self._lut is None:
            lut = np.full(1 << self.bits_per_symbol, -1, dtype=np.int64)
            lut[self.label_ints()] = np.arange(self.order)
            self._lut = lut
        return self._lut

    def mean_energy(self) -> float:
        return float(np.mean(np.abs(self.symbols) ** 2))

    def validate(self) -> None:
        m = self.bits_per_symbol
        if self.order != 1 << m:
            raise ConfigError(f"order {self.order} does not match {m} bits per symbol")
        if abs(self.mean_energy() - 1.0) > ENERGY_TOL:
            raise ConfigError(f"mean symbol energy {self.mean_energy()!r} is not 1")
        ints = self.label_ints()
        # a set, not numpy's unique, which imports numpy.ma
        if len(set(ints.tolist())) != self.order:
            raise ConfigError("bit labels are not distinct")

    def to_table(self) -> str:
        """Plain-text table: one row per symbol with index, Re, Im, label.

        Floats are written with repr so a parse round trip is bit exact.
        """
        m = self.bits_per_symbol
        lines = [
            f"# constellation: {self.name}",
            f"# order: {self.order}",
            "# columns: index re im label",
        ]
        for i in range(self.order):
            bits = "".join(str(b) for b in self.labels[i])
            lines.append(
                f"{i} {float(self.symbols[i].real)!r} {float(self.symbols[i].imag)!r} {bits}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_table(cls, text: str) -> "Constellation":
        name = "imported"
        rows = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# constellation:"):
                    name = line.split(":", 1)[1].strip()
                continue
            try:
                i, re, im, bits = line.split()
                rows.append((int(i), float(re), float(im), bits))
            except ValueError as exc:
                raise ConfigError(f"malformed constellation row: {raw!r}") from exc
        if not rows:
            raise ConfigError("empty constellation table")
        rows.sort(key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(len(rows))):
            raise ConfigError("constellation indices are not 0..M-1")
        bits = [r[3] for r in rows]
        if len({len(b) for b in bits}) != 1 or not set("".join(bits)) <= {"0", "1"}:
            raise ConfigError("malformed bit labels")
        symbols = np.array([complex(re, im) for _, re, im, _ in rows])
        labels = np.array([[int(ch) for ch in b] for b in bits], dtype=np.uint8)
        return cls(name=name, symbols=symbols, labels=labels)


def build_constellation(fmt: str = QAM16) -> Constellation:
    """Load a supported constellation from its shipped table: "qam16"
    (Gray) or "qam32" (the GMI-optimized 32 cross).  Names are exact and
    lower case."""
    if fmt not in TABLES:
        raise ConfigError(f"unknown constellation format {fmt!r}")
    c = Constellation.from_table(packaged_table(TABLES[fmt]))
    c.validate()
    return c


def indices_for_bits(c: Constellation, bits) -> np.ndarray:
    """Map a flat bit stream onto symbol indices, bit level 1 first.

    The stream length must be a multiple of bits_per_symbol; unused label
    patterns (possible only if the labeling is partial) are rejected.
    """
    b = np.asarray(bits, dtype=np.uint8).ravel()
    m = c.bits_per_symbol
    if len(b) % m:
        raise ConfigError(f"bit stream length {len(b)} is not a multiple of {m}")
    idx = c.index_of_label()[_pack_rows(b.reshape(-1, m))]
    if np.any(idx < 0):
        raise ConfigError("bit pattern has no symbol under this labeling")
    return idx


def bits_for_indices(c: Constellation, idx) -> np.ndarray:
    """Flatten the labels of the given symbol indices back to a bit stream."""
    return c.labels[np.asarray(idx, dtype=np.int64)].ravel()


def packaged_table(name: str) -> str:
    """Return the text of one of the constellation tables shipped in the repo."""
    return resources.files("relaycm.data").joinpath(name).read_text()
