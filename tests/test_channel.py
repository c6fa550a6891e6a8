import math

import numpy as np
import pytest
from scipy.special import ndtr

from relaycm.channel import (
    NOISELESS_SNR,
    AwgnSegment,
    DmcMatrix,
    LinkModel,
    RelayFunction,
    apply_relay,
    compose_dmc,
    derived_rng,
    hd_decide,
    nearest_index,
    power_normalizing_eta,
    scale_relay_equivalent_snr,
    snr_for_hop,
    transition_matrix,
    transmit,
)
from relaycm.constellation import Constellation, build_constellation
from relaycm.errors import ConfigError, UnsupportedMethodError


def _qpsk():
    lv = 1.0 / np.sqrt(2.0)
    symbols = np.array([-lv - 1j * lv, lv - 1j * lv, -lv + 1j * lv, lv + 1j * lv])
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    return Constellation(name="qpsk", symbols=symbols, labels=labels)


def test_transmit_noise_variance_at_0db():
    seg = AwgnSegment(snr=1.0)
    x = np.zeros(1_000_000, dtype=complex)
    y = transmit(x, seg, seed=1)
    var = np.mean(np.abs(y) ** 2)
    assert abs(var - 1.0) < 0.01


def test_noiseless_transmit_is_exact_copy():
    seg = AwgnSegment(snr=NOISELESS_SNR)
    x = np.exp(1j * np.linspace(0, 4, 50))
    y = transmit(x, seg, seed=0)
    assert np.array_equal(y, x)
    assert y is not x


def test_from_db_caps_at_noiseless():
    assert AwgnSegment.from_db(400.0).noise_var == 0.0
    assert AwgnSegment.from_db(300.0).noise_var == 0.0
    assert AwgnSegment.from_db(20.0).noise_var == pytest.approx(0.01)


def test_snr_must_be_positive():
    with pytest.raises(ConfigError):
        AwgnSegment(snr=0.0)


def test_derived_rng_reproducible_and_keyed():
    a = derived_rng(9, 1, 2).standard_normal(4)
    b = derived_rng(9, 1, 2).standard_normal(4)
    c = derived_rng(9, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_qpsk_transition_matches_per_dimension_flip_products():
    # at 0 dB the per-dimension crossover is Q(1); every entry of W is a
    # product of per-dimension flip/keep factors
    c = _qpsk()
    w = transition_matrix(c, 1.0, RelayFunction.hard_decision(), method="analytic")
    q1 = 1.0 - ndtr(1.0)
    assert q1 == pytest.approx(0.158655, abs=1e-6)
    same_dim = 1.0 - q1
    for i in range(4):
        for j in range(4):
            flips = bin(i ^ j).count("1")  # index bits track the two axes here
            expect = q1 ** flips * same_dim ** (2 - flips)
            assert w.probs[i, j] == pytest.approx(expect, rel=1e-12)
    assert w.probs[0, 1] == pytest.approx(q1 * (1 - q1), rel=1e-12)


def test_transition_columns_are_stochastic():
    c = build_constellation("qam16")
    for snr_db in (6.0, 12.0):
        w = transition_matrix(c, 10 ** (snr_db / 10.0), RelayFunction.hard_decision())
        np.testing.assert_allclose(w.probs.sum(axis=0), 1.0, atol=1e-9)
        assert (w.probs >= 0).all()


def test_noiseless_transition_is_identity():
    c = build_constellation("qam16")
    w = transition_matrix(c, NOISELESS_SNR, RelayFunction.hard_decision())
    assert np.array_equal(w.probs, np.eye(16))


def test_monte_carlo_agrees_with_analytic():
    c = build_constellation("qam16")
    snr = 10 ** 1.0
    wa = transition_matrix(c, snr, RelayFunction.hard_decision(), method="analytic")
    wm = transition_matrix(c, snr, RelayFunction.hard_decision(), method="mc",
                           mc_samples=200_000, seed=4)
    n = 200_000
    se = np.sqrt(wa.probs * (1 - wa.probs) / n)
    # the 8/n term covers near-empty cells where the Gaussian band is too tight
    assert np.all(np.abs(wm.probs - wa.probs) <= 4.0 * se + 8.0 / n)
    np.testing.assert_allclose(wm.probs.sum(axis=0), 1.0, atol=1e-9)


def test_cross_constellation_has_no_analytic_path():
    c = build_constellation("qam32")
    with pytest.raises(UnsupportedMethodError):
        transition_matrix(c, 10.0, RelayFunction.hard_decision(), method="analytic")
    # sampling still works
    w = transition_matrix(c, 10.0, RelayFunction.hard_decision(), method="mc",
                          mc_samples=20_000, seed=0)
    np.testing.assert_allclose(w.probs.sum(axis=0), 1.0, atol=1e-9)


def test_scale_relay_has_no_transition_matrix():
    c = build_constellation("qam16")
    with pytest.raises(UnsupportedMethodError):
        transition_matrix(c, 10.0, RelayFunction.scale(0.9))


def test_rotated_relabelled_constellation_permutes_transition():
    c = build_constellation("qam16")
    w = transition_matrix(c, 10 ** 0.9, RelayFunction.hard_decision())
    perm = np.random.default_rng(2).permutation(16)
    c2 = Constellation(name="qam16-perm", symbols=c.symbols[perm] * 1j,
                       labels=c.labels[perm])
    w2 = transition_matrix(c2, 10 ** 0.9, RelayFunction.hard_decision())
    # rotating every point by 90 degrees leaves pairwise geometry alone, so
    # only the relabelling shows up
    np.testing.assert_allclose(w2.probs, w.probs[np.ix_(perm, perm)], atol=1e-12)


def test_hard_decision_idempotent():
    c = build_constellation("qam16")
    rng = np.random.default_rng(0)
    y = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    once = c.symbols[hd_decide(y, c)]
    twice = c.symbols[hd_decide(once, c)]
    assert np.array_equal(once, twice)


def test_nearest_index_tie_takes_lowest():
    c = build_constellation("qam16")
    idx = nearest_index(np.array(0.0 + 0.0j), c.symbols)
    d = np.abs(c.symbols)
    tied = np.flatnonzero(np.isclose(d, d.min()))
    assert len(tied) == 4
    assert idx == tied.min()


def test_nearest_index_scale_invariant():
    c = build_constellation("qam16")
    rng = np.random.default_rng(5)
    y = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    a = nearest_index(y, c.symbols)
    b = nearest_index(3.7 * y, 3.7 * c.symbols)
    assert np.array_equal(a, b)


def test_apply_relay_kinds():
    c = build_constellation("qam16")
    y = np.array([0.05 + 0.02j, -1.2 - 0.9j])
    hd = apply_relay(y, RelayFunction.hard_decision(), c)
    assert np.array_equal(hd, c.symbols[nearest_index(y, c.symbols)])
    sc = apply_relay(y, RelayFunction.scale(0.5), c)
    assert np.array_equal(sc, 0.5 * y)


def test_doubling_spans_costs_3db():
    link = LinkModel(snr_ref_db=20.0)
    for n in (1, 2, 4, 7):
        gap = 10 * np.log10(snr_for_hop(link, n) / snr_for_hop(link, 2 * n))
        assert gap == pytest.approx(10 * np.log10(2.0), abs=1e-3)


def test_link_penalty_applies_to_second_hop_only():
    link = LinkModel(snr_ref_db=20.0, relay_penalty_db=1.5, spans_hop1=2, spans_hop2=4)
    s1, s2 = link.hop_snrs()
    assert 10 * np.log10(s1) == pytest.approx(20.0 - 10 * np.log10(2))
    assert 10 * np.log10(s2) == pytest.approx(20.0 - 10 * np.log10(4) - 1.5)
    base = LinkModel(snr_ref_db=20.0, relay_penalty_db=1.5, spans_hop1=0, spans_hop2=4)
    s1, s2 = base.hop_snrs()
    assert s1 is None
    assert 10 * np.log10(s2) == pytest.approx(20.0 - 10 * np.log10(4))


def test_link_budget_hop1_snr_and_hop2_reach():
    link = LinkModel(snr_ref_db=22.0, relay_penalty_db=1.5, spans_hop1=11)
    assert link.hop1_snr_db() == 22.0 - 10.0 * math.log10(11)
    assert 10.0 ** (link.hop1_snr_db() / 10.0) == link.hop_snrs()[0]
    assert LinkModel(snr_ref_db=22.0, spans_hop1=0).hop1_snr_db() is None
    # a required snr2 exactly n spans below the budget allows n spans, not n - 1
    for n in (1, 4, 11, 40, 43):
        need = 22.0 - 1.5 - 10.0 * math.log10(n)
        assert link.max_spans_hop2(need) == n
        assert link.max_spans_hop2(need + 1e-6) == n - 1
    # the relay penalty is charged only when a relay feeds hop 2
    assert LinkModel(snr_ref_db=22.0, relay_penalty_db=1.5).max_spans_hop2(12.0) == 10
    assert link.max_spans_hop2(21.0) == 0
    for spans in ({"spans_hop1": -1}, {"spans_hop2": 0}):
        with pytest.raises(ConfigError):
            LinkModel(snr_ref_db=22.0, **spans)


def test_scale_relay_equivalent_snr_formula():
    assert scale_relay_equivalent_snr(10.0, 5.0) == pytest.approx(50.0 / 16.0)
    eta = power_normalizing_eta(4.0)
    assert eta == pytest.approx(np.sqrt(4.0 / 5.0))
    # equivalent snr never beats either hop
    assert scale_relay_equivalent_snr(10.0, 5.0) < 5.0


def test_compose_identity_and_chain():
    c = build_constellation("qam16")
    w = transition_matrix(c, 10 ** 0.8, RelayFunction.hard_decision())
    eye = DmcMatrix(probs=np.eye(16), snr_db=None, method="analytic")
    left = compose_dmc([w, eye])
    np.testing.assert_allclose(left.probs, w.probs, atol=1e-15)
    w2 = transition_matrix(c, 10 ** 1.1, RelayFunction.hard_decision())
    both = compose_dmc([w, w2])
    np.testing.assert_allclose(both.probs, w2.probs @ w.probs, atol=1e-15)
    np.testing.assert_allclose(both.probs.sum(axis=0), 1.0, atol=1e-9)


def test_dmc_csv_round_trip():
    c = build_constellation("qam16")
    w = transition_matrix(c, 10 ** 0.8, RelayFunction.hard_decision())
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "w.csv")
        w.to_csv(path)
        w2 = DmcMatrix.from_csv(path)
    assert np.array_equal(w.probs, w2.probs)
    assert w2.method == w.method


def test_dmc_validate_rejects_bad_columns():
    bad = DmcMatrix(probs=np.array([[0.7, 0.0], [0.2, 1.0]]), snr_db=None,
                    method="analytic")
    with pytest.raises(ConfigError):
        bad.validate()
