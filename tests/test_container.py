from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from relaycm.container import (
    BLOCKED,
    INTERLEAVED,
    SPREAD_POSITIONS,
    STRATEGIES,
    Container,
    plan_container,
    relay_add,
    select_llrs,
)
from relaycm.errors import CollisionError, ConfigError
from relaycm.scldpc import DEFAULT_DC, build_code


@lru_cache(maxsize=32)
def _code(q=16, chain_len=8, coupling=2, dc=DEFAULT_DC):
    return build_code(q, chain_len, coupling, seed=0, dc=dc)


def test_blocked_takes_a_leading_run():
    code = _code()
    cont = plan_container(code, 0.25, "blocked")
    n = int(np.floor(0.25 * code.k + 0.5))
    np.testing.assert_array_equal(cont.relay_slots, np.arange(n))
    np.testing.assert_array_equal(cont.source_slots, np.arange(n, code.k))


def test_interleaved_quarter_load_is_stride_four():
    code = _code()
    assert code.k % 4 == 0
    cont = plan_container(code, 0.25, "interleaved")
    np.testing.assert_array_equal(cont.relay_slots, np.arange(0, code.k, 4))
    assert cont.realized_fraction == 0.25


def test_spread_positions_alternates_at_half_load():
    code = _code()
    cont = plan_container(code, 0.5, "spread_positions")
    pos = code.info_vars[cont.relay_slots] // (code.dc * code.q)
    np.testing.assert_array_equal(np.unique(pos), [1, 3, 5, 7])
    src_pos = code.info_vars[cont.source_slots] // (code.dc * code.q)
    np.testing.assert_array_equal(np.unique(src_pos), [0, 2, 4, 6])
    # the terminated tail position carries fewer info bits, so handing the
    # relay the odd positions lands slightly under the target
    assert cont.realized_fraction == pytest.approx((3 * 12 + 9) / 93)


def test_spread_positions_requires_a_source_position():
    code = _code()
    with pytest.raises(ConfigError):
        plan_container(code, 0.95, "spread_positions")
    full = plan_container(code, 1.0, "spread_positions")
    assert full.realized_fraction == 1.0


def test_zero_fraction_reserves_nothing():
    code = _code()
    for strategy in STRATEGIES:
        cont = plan_container(code, 0.0, strategy)
        assert cont.relay_slots.size == 0
        assert cont.realized_fraction == 0.0


def test_plan_validation():
    code = _code()
    with pytest.raises(ConfigError):
        plan_container(code, 1.5, "blocked")
    with pytest.raises(ConfigError):
        plan_container(code, 0.5, "diagonal")


def test_double_write_collides():
    code = _code()
    cont = plan_container(code, 0.5, "interleaved")
    cont.write_source(np.zeros(len(cont.source_slots), dtype=np.uint8))
    with pytest.raises(CollisionError):
        cont.write_source(np.zeros(len(cont.source_slots), dtype=np.uint8))
    cont.write_relay(np.ones(len(cont.relay_slots), dtype=np.uint8))
    with pytest.raises(CollisionError):
        cont.write_relay(np.ones(len(cont.relay_slots), dtype=np.uint8))


def test_write_length_checked():
    code = _code()
    cont = plan_container(code, 0.5, "blocked")
    with pytest.raises(ConfigError):
        cont.write_source(np.zeros(3, dtype=np.uint8))


def test_read_returns_what_was_written():
    code = _code()
    cont = plan_container(code, 0.25, "interleaved")
    rng = np.random.default_rng(0)
    us = rng.integers(0, 2, len(cont.source_slots), dtype=np.uint8)
    ur = rng.integers(0, 2, len(cont.relay_slots), dtype=np.uint8)
    cont.write_source(us)
    cont.write_relay(ur)
    np.testing.assert_array_equal(cont.payload[cont.source_slots], us)
    np.testing.assert_array_equal(cont.payload[cont.relay_slots], ur)


@st.composite
def _code_shapes(draw):
    coupling = draw(st.sampled_from([2, 3]))
    return (draw(st.sampled_from([2, 3, 4, 8, 16, 32])), draw(st.integers(coupling, 10)),
            coupling, draw(st.sampled_from([6, 9, 12, 15, 18])))


@settings(max_examples=80, deadline=None)
@given(shape=_code_shapes(), strategy=st.sampled_from(STRATEGIES),
       fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(shape=(8, 8, 2, DEFAULT_DC), strategy=INTERLEAVED, fraction=0.5, seed=1)
@example(shape=(8, 9, 3, DEFAULT_DC), strategy=SPREAD_POSITIONS, fraction=0.5, seed=1)
@example(shape=(8, 9, 3, DEFAULT_DC), strategy=BLOCKED, fraction=1.0, seed=1)
def test_relay_add_equals_joint_encoding(shape, strategy, fraction, seed):
    code = _code(*shape)
    try:
        cont = plan_container(code, fraction, strategy)
    except ConfigError:
        # only whole-position placement can leave the source no room
        assert strategy == SPREAD_POSITIONS
        reject()
    rng = np.random.default_rng(seed)
    us = rng.integers(0, 2, len(cont.source_slots), dtype=np.uint8)
    ur = rng.integers(0, 2, len(cont.relay_slots), dtype=np.uint8)
    cont.write_source(us)
    spliced = relay_add(cont, cont.encode(), ur)
    joint = code.encode(cont.payload)
    np.testing.assert_array_equal(spliced, joint)
    assert not code.syndrome(spliced).any()


def _masked_relay_add(cont, hard_word, relay_bits):
    # clear the relay bits, write them, then XOR the relay-only parity on
    # the positions that are not info bits
    code = cont.code
    placed = np.zeros(code.k, dtype=np.uint8)
    placed[cont.relay_slots] = relay_bits
    enc = code.encode(placed)
    x = np.array(hard_word, dtype=np.uint8)
    rv = code.info_vars[cont.relay_slots]
    x[rv] = relay_bits
    parity = np.ones(code.n, dtype=bool)
    parity[code.info_vars] = False
    x[parity] ^= enc[parity]
    return x


@settings(max_examples=80, deadline=None)
@given(shape=_code_shapes(), strategy=st.sampled_from(STRATEGIES),
       fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(shape=(8, 9, 3, DEFAULT_DC), strategy=BLOCKED, fraction=1.0, seed=1)
@example(shape=(2, 2, 2, 6), strategy=INTERLEAVED, fraction=0.0, seed=2)
def test_relay_add_on_any_hard_word_matches_the_masked_splice(shape, strategy, fraction, seed):
    # an arbitrary word, not a codeword: first-hop errors anywhere, in the
    # relay slots, the source slots and the parity alike
    code = _code(*shape)
    try:
        cont = plan_container(code, fraction, strategy)
    except ConfigError:
        assert strategy == SPREAD_POSITIONS
        reject()
    rng = np.random.default_rng(seed)
    word = rng.integers(0, 2, code.n, dtype=np.uint8)
    ur = rng.integers(0, 2, len(cont.relay_slots), dtype=np.uint8)
    want = _masked_relay_add(cont, word, ur)
    got = relay_add(cont, word, ur)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.uint8 and got is not word


def test_relay_add_wipes_its_own_region_only():
    code = _code()
    cont = plan_container(code, 0.5, "interleaved")
    rng = np.random.default_rng(2)
    us = rng.integers(0, 2, len(cont.source_slots), dtype=np.uint8)
    ur = rng.integers(0, 2, len(cont.relay_slots), dtype=np.uint8)
    cont.write_source(us)
    x = cont.encode()

    relay_bit = code.info_vars[cont.relay_slots[7]]
    sneaky = x.copy()
    sneaky[relay_bit] ^= 1
    ref = plan_container(code, 0.5, "interleaved")
    ref.write_source(us)
    clean = relay_add(ref, x.copy(), ur)
    assert np.array_equal(relay_add(cont, sneaky, ur), clean)

    source_bit = code.info_vars[cont.source_slots[7]]
    bad = x.copy()
    bad[source_bit] ^= 1
    ref2 = plan_container(code, 0.5, "interleaved")
    ref2.write_source(us)
    out = relay_add(ref2, bad, ur)
    diff = np.flatnonzero(out != clean)
    np.testing.assert_array_equal(diff, [source_bit])


def test_relay_add_claims_the_region():
    code = _code()
    cont = plan_container(code, 0.5, "blocked")
    ur = np.zeros(len(cont.relay_slots), dtype=np.uint8)
    relay_add(cont, np.zeros(code.n, dtype=np.uint8), ur)
    with pytest.raises(CollisionError):
        relay_add(cont, np.zeros(code.n, dtype=np.uint8), ur)


def test_relay_add_with_no_reservation_is_identity():
    code = _code()
    cont = plan_container(code, 0.0, "interleaved")
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, code.n, dtype=np.uint8)
    np.testing.assert_array_equal(relay_add(cont, x, np.array([], dtype=np.uint8)), x)


def test_relay_add_validation():
    code = _code()
    cont = plan_container(code, 0.5, "blocked")
    with pytest.raises(ConfigError):
        relay_add(cont, np.zeros(code.n - 1, dtype=np.uint8),
                  np.zeros(len(cont.relay_slots), dtype=np.uint8))
    with pytest.raises(ConfigError):
        relay_add(cont, np.zeros(code.n, dtype=np.uint8),
                  np.zeros(3, dtype=np.uint8))


def test_select_llrs_routes_by_owner():
    code = _code()
    cont = plan_container(code, 0.25, "interleaved")
    two = np.full(code.n, 5.0)
    one = np.full(code.n, -7.0)
    out = select_llrs(cont, two, one)
    rv = code.info_vars[cont.relay_slots]
    assert (out[rv] == -7.0).all()
    other = np.ones(code.n, dtype=bool)
    other[rv] = False
    assert (out[other] == 5.0).all()
    with pytest.raises(ConfigError):
        select_llrs(cont, two, one[:-1])


def test_container_frame_round_trip():
    code = _code()
    cont = plan_container(code, 0.5, "spread_positions")
    rng = np.random.default_rng(4)
    cont.write_source(rng.integers(0, 2, len(cont.source_slots), dtype=np.uint8))
    cont.write_relay(rng.integers(0, 2, len(cont.relay_slots), dtype=np.uint8))
    blob = cont.to_bytes(config_hash="abc123def456")
    back, chash = Container.from_bytes(code, blob)
    assert chash == "abc123def456"
    assert back.strategy == cont.strategy
    assert back.target_fraction == cont.target_fraction
    np.testing.assert_array_equal(back.relay_slots, cont.relay_slots)
    np.testing.assert_array_equal(back.payload, cont.payload)
    np.testing.assert_array_equal(back.occupancy, cont.occupancy)
    with pytest.raises(ConfigError):
        Container.from_bytes(code, b"WRONG" + blob[5:])
    with pytest.raises(ConfigError):
        Container.from_bytes(_code(q=8), blob)

