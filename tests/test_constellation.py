import numpy as np
import pytest

from relaycm.constellation import (
    Constellation,
    bits_for_indices,
    build_constellation,
    indices_for_bits,
)
from relaycm.errors import ConfigError


def test_qam16_basic_shape():
    c = build_constellation("qam16")
    assert c.order == 16
    assert c.bits_per_symbol == 4
    assert abs(c.mean_energy() - 1.0) < 1e-12
    assert len(set(c.label_ints().tolist())) == 16
    # every bit level is 0 on half the points
    assert (c.labels.sum(axis=0) == 8).all()


def test_qam16_is_scaled_integer_grid():
    c = build_constellation("qam16")
    scaled = c.symbols * np.sqrt(10.0)
    re = np.sort(np.unique(np.round(scaled.real, 9)))
    im = np.sort(np.unique(np.round(scaled.imag, 9)))
    assert np.allclose(re, [-3, -1, 1, 3])
    assert np.allclose(im, [-3, -1, 1, 3])


def test_qam16_gray_neighbours_differ_in_one_bit():
    # nearest in-grid neighbours (distance = one level step) differ by 1 label bit
    c = build_constellation("qam16")
    step = 2.0 / np.sqrt(10.0)
    ints = c.label_ints()
    pairs = 0
    for i in range(16):
        for j in range(16):
            if i != j and abs(c.symbols[i] - c.symbols[j]) < step * 1.01:
                assert bin(int(ints[i]) ^ int(ints[j])).count("1") == 1
                pairs += 1
    assert pairs == 2 * 24  # 24 undirected grid edges


def test_qam32_basic_shape():
    c = build_constellation("qam32")
    assert c.order == 32
    assert c.bits_per_symbol == 5
    assert abs(c.mean_energy() - 1.0) < 1e-12
    assert len(set(c.label_ints().tolist())) == 32
    # every bit level is 0 on half the points
    assert (c.labels.sum(axis=0) == 16).all()


def test_qam32_is_cross_without_corners():
    c = build_constellation("qam32")
    scaled = c.symbols * np.sqrt(20.0)
    pts = {(int(round(s.real)), int(round(s.imag))) for s in scaled}
    full = {(u, v) for u in (-5, -3, -1, 1, 3, 5) for v in (-5, -3, -1, 1, 3, 5)}
    corners = {(u, v) for u in (-5, 5) for v in (-5, 5)}
    assert pts == full - corners


def test_qam32_labels_are_quasi_gray():
    # of the cross's 52 unit-spacing neighbour pairs, 44 differ in one
    # label bit and 8 in two; the 38 pairs inside the four inner rows all
    # differ in one, so the 8 touch the top or bottom row
    c = build_constellation("qam32")
    scaled = c.symbols * np.sqrt(20.0)
    col = np.round((scaled.real + 5) / 2).astype(int)
    row = np.round((scaled.imag + 5) / 2).astype(int)
    ints = c.label_ints()
    flips, inner = [], 0
    for i in range(32):
        for j in range(i + 1, 32):
            if abs(col[i] - col[j]) + abs(row[i] - row[j]) == 1:
                d = bin(int(ints[i]) ^ int(ints[j])).count("1")
                flips.append(d)
                if 1 <= min(row[i], row[j]) and max(row[i], row[j]) <= 4:
                    assert d == 1
                    inner += 1
    assert np.bincount(flips).tolist() == [0, 44, 8]
    assert inner == 38


def test_index_of_label_inverts_labels():
    for name in ("qam16", "qam32"):
        c = build_constellation(name)
        lut = c.index_of_label()
        assert np.array_equal(lut[c.label_ints()], np.arange(c.order))


def test_indices_for_bits_round_trip():
    rng = np.random.default_rng(3)
    for name in ("qam16", "qam32"):
        c = build_constellation(name)
        bits = rng.integers(0, 2, size=40 * c.bits_per_symbol, dtype=np.uint8)
        idx = indices_for_bits(c, bits)
        assert np.array_equal(bits_for_indices(c, idx), bits)


def test_indices_for_bits_msb_first():
    c = build_constellation("qam16")
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    (idx,) = indices_for_bits(c, bits)
    assert c.label_ints()[idx] == 0b1011


def test_indices_for_bits_rejects_ragged_stream():
    c = build_constellation("qam16")
    with pytest.raises(ConfigError):
        indices_for_bits(c, np.zeros(6, dtype=np.uint8))


def test_table_round_trip_is_bit_exact():
    for name in ("qam16", "qam32"):
        c = build_constellation(name)
        c2 = Constellation.from_table(c.to_table())
        assert np.array_equal(c.symbols, c2.symbols)
        assert np.array_equal(c.labels, c2.labels)


def test_unknown_format_rejected():
    with pytest.raises(ConfigError):
        build_constellation("qam64")


def test_format_names_are_exact_and_lower_case():
    # the config check reads the same table map, so both refuse the name
    with pytest.raises(ConfigError):
        build_constellation("QAM16")
