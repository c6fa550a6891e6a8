"""Shared-codeword containers for adding relay traffic mid-link.

A container is the info payload of one codeword, split between traffic
encoded at the source and traffic the relay inserts after regenerating
the first hop.  All parity always originates at the source; the relay
keeps the word a codeword by clearing its own slots in the regenerated
word, writing its bits, and folding the parity of a relay-only encoding
on top.  Because encoding is linear, this equals re-encoding the merged
payload whenever the first hop was error free.

Slot occupancy is tracked per info bit (free, source, relay); writing a
slot twice raises CollisionError.  Loads are quantized by the placement
strategy, so the realized relay fraction stored here is what downstream
rate accounting must use, not the requested target.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CollisionError, ConfigError
from .scldpc import SpatiallyCoupledCode

FREE = 0
SOURCE = 1
RELAY = 2

BLOCKED = "blocked"
SPREAD_POSITIONS = "spread_positions"
INTERLEAVED = "interleaved"

_MAGIC = b"CONT1"


def _round_half_up(x: float) -> int:
    # round(0.5) == 0 under banker's rounding; loads round upward instead
    return int(np.floor(x + 0.5))


def _blocked_slots(code, fraction):
    return np.arange(_round_half_up(fraction * code.k), dtype=np.int64)


def _interleaved_slots(code, fraction):
    n_relay = _round_half_up(fraction * code.k)
    t = np.arange(n_relay, dtype=np.int64)
    # floor(t*k/n) is injective because consecutive steps differ by >= 1
    return (t * code.k) // max(n_relay, 1)


def _spread_position_slots(code, fraction):
    length = code.chain_len
    n_relay_pos = _round_half_up(fraction * length)
    n_src = length - n_relay_pos
    if n_src == 0 and fraction < 1.0:
        raise ConfigError(
            f"relay fraction {fraction} leaves no whole position for the "
            f"source on a chain of {length}; use a finer-grained strategy"
        )
    src_pos = {_round_half_up(t * length / n_src) for t in range(n_src)}
    pos = code.info_vars // (code.dc * code.q)
    keep = ~np.isin(pos, np.array(sorted(src_pos), dtype=np.int64))
    return np.flatnonzero(keep).astype(np.int64)


_PLANNERS = {
    BLOCKED: _blocked_slots,
    SPREAD_POSITIONS: _spread_position_slots,
    INTERLEAVED: _interleaved_slots,
}
STRATEGIES = tuple(_PLANNERS)


class Container:
    """Payload buffer of one codeword with per-slot ownership."""

    def __init__(self, code: SpatiallyCoupledCode, relay_slots: np.ndarray,
                 target_fraction: float, strategy: str):
        self.code = code
        self.relay_slots = np.asarray(relay_slots, dtype=np.int64)
        self.target_fraction = float(target_fraction)
        self.strategy = strategy
        self.occupancy = np.zeros(code.k, dtype=np.uint8)
        self.payload = np.zeros(code.k, dtype=np.uint8)
        mask = np.zeros(code.k, dtype=bool)
        mask[self.relay_slots] = True
        self.source_slots = np.flatnonzero(~mask).astype(np.int64)

    @property
    def realized_fraction(self) -> float:
        return len(self.relay_slots) / self.code.k

    def _write(self, slots, bits, owner):
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if len(bits) != len(slots):
            raise ConfigError(f"expected {len(slots)} bits, got {len(bits)}")
        taken = self.occupancy[slots] != FREE
        if np.any(taken):
            raise CollisionError(
                f"{int(taken.sum())} slots already written; first at "
                f"info index {int(slots[np.argmax(taken)])}"
            )
        self.payload[slots] = bits & 1
        self.occupancy[slots] = owner

    def write_source(self, bits) -> None:
        self._write(self.source_slots, bits, SOURCE)

    def write_relay(self, bits) -> None:
        self._write(self.relay_slots, bits, RELAY)

    def encode(self) -> np.ndarray:
        """Codeword of the current payload; unwritten slots stay zero."""
        return self.code.encode(self.payload)

    def to_bytes(self, config_hash: str = "") -> bytes:
        """Self-contained frame: header, relay mask, occupancy, payload."""
        mask = np.zeros(self.code.k, dtype=np.uint8)
        mask[self.relay_slots] = 1
        strat = self.strategy.encode()
        chash = config_hash.encode()
        head = _MAGIC + struct.pack(
            "<IdH", self.code.k, self.target_fraction, len(strat)
        ) + strat + struct.pack("<H", len(chash)) + chash
        return (head + np.packbits(mask).tobytes()
                + self.occupancy.tobytes()
                + np.packbits(self.payload).tobytes())

    @classmethod
    def from_bytes(cls, code: SpatiallyCoupledCode, data: bytes):
        """Rebuild a container; returns (container, config_hash)."""
        if data[:5] != _MAGIC:
            raise ConfigError("not a container frame")
        try:
            k, fraction, n_strat = struct.unpack_from("<IdH", data, 5)
            if k != code.k:
                raise ConfigError(f"frame is for k={k}, code has k={code.k}")
            off = 5 + struct.calcsize("<IdH")
            strategy = data[off:off + n_strat].decode()
            off += n_strat
            (n_hash,) = struct.unpack_from("<H", data, off)
            off += 2
            config_hash = data[off:off + n_hash].decode()
            off += n_hash
            n_packed = (k + 7) // 8
            mask = np.unpackbits(
                np.frombuffer(data, dtype=np.uint8, count=n_packed, offset=off)
            )[:k]
            off += n_packed
            occupancy = np.frombuffer(data, dtype=np.uint8, count=k, offset=off).copy()
            off += k
            payload = np.unpackbits(
                np.frombuffer(data, dtype=np.uint8, count=n_packed, offset=off)
            )[:k]
        except (struct.error, ValueError) as exc:
            raise ConfigError(f"container frame is truncated or corrupt: {exc}") from exc
        cont = cls(code, np.flatnonzero(mask), fraction, strategy)
        cont.occupancy = occupancy
        cont.payload = payload.astype(np.uint8)
        return cont, config_hash


def plan_container(code: SpatiallyCoupledCode, relay_fraction: float,
                   strategy: str = INTERLEAVED) -> Container:
    """Reserve relay slots for a target load fraction.

    blocked takes a leading run of info bits, interleaved spreads single
    bits evenly, spread_positions hands the relay whole chain positions
    (and therefore quantizes the load most coarsely).
    """
    if not 0.0 <= relay_fraction <= 1.0:
        raise ConfigError(f"relay fraction must lie in [0, 1], got {relay_fraction}")
    if strategy not in _PLANNERS:
        raise ConfigError(f"unknown placement strategy {strategy!r}")
    slots = _PLANNERS[strategy](code, relay_fraction)
    return Container(code, slots, relay_fraction, strategy)


def relay_add(cont: Container, hard_word, relay_bits) -> np.ndarray:
    """Insert relay traffic into a regenerated (hard-decided) codeword.

    Clears the relay-owned info region of the incoming word, writes the
    new bits there, and adds the parity of a relay-only encoding.  Any
    first-hop bit errors inside the relay region are wiped; errors
    elsewhere pass through untouched.
    """
    code = cont.code
    x = np.array(hard_word, dtype=np.uint8, copy=True)
    if len(x) != code.n:
        raise ConfigError(f"expected a length-{code.n} word")
    relay_bits = np.asarray(relay_bits, dtype=np.uint8).ravel()
    if len(relay_bits) != len(cont.relay_slots):
        raise ConfigError(
            f"expected {len(cont.relay_slots)} relay bits, got {len(relay_bits)}"
        )
    # claims the region: a second add on the same container collides
    cont.write_relay(relay_bits)
    placed = np.zeros(code.k, dtype=np.uint8)
    placed[cont.relay_slots] = relay_bits & 1
    enc = code.encode(placed)
    x[code.info_vars[cont.relay_slots]] = 0
    # enc is zero on the info bits outside the relay slots: they pass as they came
    x ^= enc
    return x


def select_llrs(cont: Container, llr_two_hop, llr_single_hop) -> np.ndarray:
    """Route per-bit metrics by slot owner.

    Relay-owned info bits never crossed the first hop, so they take the
    plain second-hop metric; everything else (source info and parity)
    uses the relay-aware two-hop metric.
    """
    out = np.array(llr_two_hop, dtype=np.float64, copy=True)
    single = np.asarray(llr_single_hop, dtype=np.float64)
    if out.shape != single.shape or len(out) != cont.code.n:
        raise ConfigError("metric streams must both cover the codeword")
    rv = cont.code.info_vars[cont.relay_slots]
    out[rv] = single[rv]
    return out

