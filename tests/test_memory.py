"""The demapper and the rate estimators work in memory that does not grow
with the sample count beyond their inputs and outputs, and the SC-LDPC
code holds and builds its graph and termination solve in little memory."""

import tracemalloc

import numpy as np
import pytest

from relaycm.channel import DmcMatrix
from relaycm.constellation import build_constellation, indices_for_bits
from relaycm.demapper import Demapper
from relaycm.gmi import gmi_from_llrs, optimal_llr_scale
from relaycm.scldpc import build_code

N = 100_000


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["qam16", "qam32"])
@pytest.mark.parametrize("equivalent", [False, True])
def test_llrs_work_beside_the_output_in_fixed_memory(name, equivalent):
    c = build_constellation(name)
    rng = np.random.default_rng(5)
    snr = 10.0
    if equivalent:
        w = rng.dirichlet(np.ones(c.order), size=c.order).T
        dm = Demapper.equivalent(c, snr, DmcMatrix(probs=w))
    else:
        dm = Demapper.conventional(c, snr)
    y = c.symbols[rng.integers(0, c.order, N)]
    y = y + np.sqrt(0.5 / snr) * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    out, peak = _traced_peak(dm.llrs, y)
    assert out.shape == (N, c.bits_per_symbol)
    assert peak <= out.nbytes + 4 * 2**20


@pytest.mark.parametrize("name", ["qam16", "qam32"])
def test_bit_mapping_works_beside_its_output(name):
    # uint8 bits, as every caller passes them: no int64 copy of the stream
    c = build_constellation(name)
    bits = np.random.default_rng(4).integers(0, 2, N * c.bits_per_symbol, dtype=np.uint8)
    c.index_of_label()  # the cached lookup table is not the call's own memory
    idx, peak = _traced_peak(indices_for_bits, c, bits)
    assert idx.dtype == np.int64 and idx.shape == (N,)
    assert peak <= 2.5 * idx.nbytes


def _informative_llrs():
    # right-signed on average, with some wrong-signed metrics, so that the
    # scale search runs its Newton steps
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, (N, 5), dtype=np.uint8)
    llrs = (1.0 - 2.0 * bits) * (1.5 + 2.0 * rng.standard_normal((N, 5)))
    return llrs, bits


def test_scale_search_peak_is_a_few_copies_of_its_input():
    llrs, bits = _informative_llrs()
    res, peak = _traced_peak(optimal_llr_scale, llrs, bits)
    assert 0.0 < res.scale < np.inf and not res.degenerate
    # w and the two Newton work arrays, dropped before the per-bit losses
    assert peak <= 3.5 * llrs.nbytes


def test_rate_estimate_peak_is_about_its_input():
    llrs, bits = _informative_llrs()
    est, peak = _traced_peak(gmi_from_llrs, llrs, bits)
    assert 0.0 < est.value < 5.0
    assert peak <= 1.5 * llrs.nbytes


def test_code_build_peak_is_small():
    # the termination system and its transform stay packed, one bit per
    # entry, and a rejected offset draw is dropped before the next
    _, peak = _traced_peak(build_code, 64, 16, 3, 1)
    assert peak <= 3.0 * 2**20


def test_code_holds_an_int32_layout_and_a_packed_transform():
    code = build_code(64, 16, 3, seed=1)
    assert code.slot_var.dtype == code.var_slot.dtype == np.int32
    n_tail = len(code.tail_vars)
    # an eighth of the dense n_tail x n_tail bytes, plus word padding
    assert code._tail_transform.nbytes <= n_tail * -(-n_tail // 64) * 8
    held = code.slot_var.nbytes + code.var_slot.nbytes + code._tail_transform.nbytes
    assert held <= 0.5 * 2**20
