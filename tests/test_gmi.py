import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from relaycm.channel import (
    NOISELESS_SNR,
    complex_noise_unit,
    derived_rng,
    power_normalizing_eta,
    scale_relay_equivalent_snr,
    transition_matrix,
    transmit,
)
from relaycm.constellation import bits_for_indices, build_constellation, indices_for_bits
from relaycm.container import SPREAD_POSITIONS, STRATEGIES, plan_container, relay_add
from relaycm.demapper import Demapper
from relaycm.errors import ConfigError
from relaycm.gmi import (
    VARIANTS,
    RelayGmiEvaluator,
    RelayLink,
    gmi_from_llrs,
    optimal_llr_scale,
    required_snr2_db,
    single_hop_gmi,
)
from relaycm.scldpc import build_code


def test_single_symbol_loss_by_hand():
    llrs = np.array([[2.0, -1.0]])
    bits = np.array([[0, 1]])
    # z = +2 and +1, both correct-sign metrics
    loss = (math.log1p(math.exp(-2.0)) + math.log1p(math.exp(-1.0))) / math.log(2.0)
    est = gmi_from_llrs(llrs, bits)
    assert est.value == pytest.approx(2.0 - loss, rel=1e-12)
    assert est.ci95 == np.inf
    assert est.n_symbols == 1
    assert est.per_level.sum() == pytest.approx(est.value, rel=1e-12)


def test_zero_llrs_give_zero_rate():
    est = gmi_from_llrs(np.zeros((100, 4)), np.zeros((100, 4), dtype=np.uint8))
    assert est.value == 0.0
    assert est.ci95 == 0.0
    np.testing.assert_allclose(est.per_level, 0.0, atol=1e-15)


def test_negative_raw_rate_clamps_to_zero():
    # confidently wrong metrics: raw rate is negative, report clamps
    llrs = np.full((50, 2), 10.0)
    bits = np.ones((50, 2), dtype=np.uint8)
    est = gmi_from_llrs(llrs, bits)
    assert est.value == 0.0
    assert est.per_level.sum() < 0.0


def test_shape_mismatch_rejected():
    with pytest.raises(ConfigError):
        gmi_from_llrs(np.zeros((3, 4)), np.zeros((3, 2), dtype=np.uint8))


def test_noiseless_link_reaches_full_rate():
    c = build_constellation("qam16")
    est = single_hop_gmi(c, NOISELESS_SNR, 4000, seed=0)
    assert est.value == pytest.approx(4.0, abs=1e-3)


def test_rate_against_quadrature_oracle():
    # deterministic Gauss-Hermite evaluation of the same expectation the
    # sampler estimates: average bit-metric loss over symbols and noise
    c = build_constellation("qam16")
    snr = 10 ** 2.0
    t, w = hermgauss(40)
    sd = np.sqrt(0.5 / snr)
    noise = np.sqrt(2.0) * sd * (t[:, None] + 1j * t[None, :]).ravel()
    wt = (w[:, None] * w[None, :]).ravel() / np.pi
    dem = Demapper.conventional(c, snr)
    total = 0.0
    for j in range(c.order):
        llrs = dem.llrs(c.symbols[j] + noise)
        z = (1.0 - 2.0 * c.labels[j][None, :]) * llrs
        loss = (np.logaddexp(0.0, -z) / np.log(2.0)).sum(axis=1)
        total += float(wt @ loss)
    oracle = c.bits_per_symbol - total / c.order
    est = single_hop_gmi(c, snr, 120_000, seed=11)
    assert est.value == pytest.approx(oracle, abs=max(2.0 * est.ci95, 0.01))


def test_rate_monotone_in_snr():
    c = build_constellation("qam16")
    vals = [single_hop_gmi(c, 10 ** (d / 10), 30_000, seed=5).value for d in (8, 12, 16)]
    assert vals[0] < vals[1] < vals[2]


def test_ci_shrinks_with_sample_count():
    c = build_constellation("qam16")
    small = single_hop_gmi(c, 10.0, 10_000, seed=2).ci95
    big = single_hop_gmi(c, 10.0, 40_000, seed=2).ci95
    assert 0.3 < big / small < 0.7


def test_matched_llrs_need_no_rescaling():
    c = build_constellation("qam16")
    snr = 10 ** 1.2
    dem = Demapper.conventional(c, snr)
    rng_est = single_hop_gmi(c, snr, 20_000, seed=3)
    # rebuild the same llrs/bits pair the estimator used
    from relaycm.channel import complex_noise_unit, derived_rng, transmit
    from relaycm.constellation import indices_for_bits

    bits = derived_rng(3, 0).integers(0, 2, size=20_000 * 4, dtype=np.uint8)
    x = c.symbols[indices_for_bits(c, bits)]
    y = transmit(x, snr, complex_noise_unit(derived_rng(3, 1), len(x)))
    llrs = dem.llrs(y)
    bits = bits.reshape(-1, 4)

    res = optimal_llr_scale(llrs, bits)
    assert res.scale == pytest.approx(1.0, abs=0.05)
    assert not res.degenerate

    doubled = optimal_llr_scale(2.0 * llrs, bits)
    assert doubled.scale == pytest.approx(res.scale / 2.0, abs=0.03)
    assert 4 - doubled.loss == pytest.approx(rng_est.value, abs=1e-3)
    assert doubled.loss <= float(np.logaddexp(0, -(1 - 2 * bits) * 2.0 * llrs).mean()) * 4 / np.log(2) + 1e-12


def test_degenerate_scale_flagged():
    res = optimal_llr_scale(np.zeros((10, 2)), np.zeros((10, 2), dtype=np.uint8))
    assert res.degenerate
    assert res.scale == 0.0


def test_evaluator_is_deterministic():
    c = build_constellation("qam16")
    kw = dict(snr1=10 ** 1.5, variant="hd_matched", n_symbols=4000, seed=17)
    a = RelayGmiEvaluator(c, **kw)
    b = RelayGmiEvaluator(c, **kw)
    assert a.two_hop_gmi(10.0).value == b.two_hop_gmi(10.0).value
    assert a.single_hop_gmi(10.0).value == b.single_hop_gmi(10.0).value


def test_fixed_noise_makes_rate_monotone_in_snr2():
    c = build_constellation("qam16")
    ev = RelayGmiEvaluator(c, snr1=10 ** 1.8, variant="hd_matched", n_symbols=6000, seed=8)
    vals = [ev.two_hop_gmi(10 ** (d / 10)).value for d in np.linspace(4, 18, 8)]
    assert np.all(np.diff(vals) > 0)


def test_variants_share_the_source_bit_stream():
    c = build_constellation("qam16")
    a = RelayGmiEvaluator(c, snr1=10 ** 1.5, variant="hd_matched", n_symbols=2000, seed=4)
    b = RelayGmiEvaluator(c, snr1=10 ** 1.5, variant="scale", n_symbols=2000, seed=4)
    assert np.array_equal(a.bits, b.bits)


def test_mixture_margin_matches_its_parts():
    c = build_constellation("qam16")
    ev = RelayGmiEvaluator(c, snr1=10 ** 1.6, variant="hd_matched", n_symbols=4000, seed=6)
    snr2 = 10 ** 1.3
    e2 = ev.two_hop_gmi(snr2)
    e1 = ev.single_hop_gmi(snr2)
    rate = 0.8
    assert ev.mixture_rate(snr2, 0.0, rate) == (e2.value, e2.ci95)
    assert ev.mixture_margin(snr2, 0.0, rate) == e2.value - 4 * rate
    f = 0.5
    share = f * rate
    want = share * e1.value + (1 - share) * e2.value
    assert ev.mixture_rate(snr2, f, rate) == (
        want, math.hypot(share * e1.ci95, (1 - share) * e2.ci95))
    assert ev.mixture_margin(snr2, f, rate) == want - 4 * rate
    for bad in ((1.5, rate), (0.5, 0.0)):
        with pytest.raises(ConfigError):
            ev.mixture_rate(snr2, *bad)
        with pytest.raises(ConfigError):
            ev.mixture_margin(snr2, *bad)


def test_relay_link_llrs_pick_the_variant_demapper():
    c = build_constellation("qam16")
    snr1, snr2 = 10 ** 1.5, 10 ** 1.2
    rng = np.random.default_rng(8)
    y2 = (rng.standard_normal(300) + 1j * rng.standard_normal(300)) * 0.7
    dmc = transition_matrix(c, snr1)

    def link(variant, dmc=None):
        return RelayLink(c, c.symbols, snr1, variant, (8,), dmc)

    eta = power_normalizing_eta(snr1)
    scale = Demapper.conventional(c, scale_relay_equivalent_snr(snr1, snr2)).llrs(y2 / eta)
    assert np.array_equal(link("scale").llrs(y2, snr2), scale)
    assert np.array_equal(link("hd_matched", dmc).llrs(y2, snr2),
                          Demapper.equivalent(c, snr2, dmc).llrs(y2))
    assert np.array_equal(link("hd_legacy_sopt").llrs(y2, snr2),
                          Demapper.conventional(c, snr2).llrs(y2))


def test_relay_link_rejects_an_unknown_variant():
    c = build_constellation("qam16")
    with pytest.raises(ConfigError):
        RelayLink(c, c.symbols, 10.0, "hd_blind", (8,))


def test_matched_relay_link_needs_its_transition_matrix():
    # without it the matched receiver would demap conventionally
    c = build_constellation("qam16")
    link = RelayLink(c, c.symbols, 10.0, "hd_matched", (8,))
    with pytest.raises(ConfigError):
        link.llrs(link.receive(10.0), 10.0)


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(VARIANTS), snr1_db=st.floats(-5.0, 40.0),
       seed=st.integers(0, 2**32 - 1), key_len=st.integers(1, 2),
       snr2=st.floats(1e-3, NOISELESS_SNR, exclude_max=True))
def test_relay_link_receives_what_hop_2_transmits(variant, snr1_db, seed, key_len, snr2):
    # the fixed-noise contract: rescaled unit noise is the hop-2 draw of
    # the stream derived_rng(*key, 2), at every snr2
    c = build_constellation("qam16")
    key = (seed, 3)[:key_len]
    x = c.symbols[np.random.default_rng(seed).integers(0, c.order, 50)]
    link = RelayLink(c, x, 10.0 ** (snr1_db / 10.0), variant, key)
    want = transmit(link.sent, snr2, complex_noise_unit(derived_rng(*key, 2), len(x)))
    assert np.array_equal(link.receive(snr2), want)


@lru_cache(maxsize=1)
def _code():
    return build_code(8, 8, 2, seed=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1.0),
       strategy=st.sampled_from(STRATEGIES))
def test_relay_link_splices_into_a_joint_codeword(seed, fraction, strategy):
    c, code = build_constellation("qam16"), _code()
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
    sym = c.symbols[indices_for_bits(c, cont.encode())]

    def splice(idx):
        return indices_for_bits(c, relay_add(cont, bits_for_indices(c, idx), ur))

    # a noiseless hop 1: the decided, spliced word is the joint encoding
    out = RelayLink(c, sym, NOISELESS_SNR, "hd_matched", (seed,), splice=splice).sent
    assert np.array_equal(out, c.symbols[indices_for_bits(c, code.encode(cont.payload))])
    # a scaling relay only restores unit power
    snr1 = 10.0 ** rng.uniform(0.5, 2.5)
    y1 = transmit(sym, snr1, complex_noise_unit(derived_rng(seed, 1), len(sym)))
    assert np.array_equal(RelayLink(c, sym, snr1, "scale", (seed,)).sent,
                          power_normalizing_eta(snr1) * y1)


def test_evaluator_rejects_bad_setup():
    c = build_constellation("qam16")
    with pytest.raises(ConfigError):
        RelayGmiEvaluator(c, snr1=10.0, variant="nope", n_symbols=100, seed=0)
    with pytest.raises(ConfigError):
        RelayGmiEvaluator(c, snr1=10.0, variant="scale", n_symbols=1, seed=0)


def test_clean_first_hop_behaves_like_single_link():
    c = build_constellation("qam16")
    ev = RelayGmiEvaluator(c, snr1=NOISELESS_SNR, variant="hd_matched",
                           n_symbols=40_000, seed=12)
    snr2 = 10 ** 1.2
    two = ev.two_hop_gmi(snr2)
    one = single_hop_gmi(c, snr2, 40_000, seed=13)
    assert two.value == pytest.approx(one.value, abs=2.0 * (two.ci95 + one.ci95))


def test_required_snr_bisection_contract():
    hits = []

    def margin(s):
        hits.append(s)
        return s - 7.0

    out = required_snr2_db(margin, lo_db=-2.0, hi_db=30.0, tol_db=0.05)
    assert 7.0 <= out <= 7.0 + 0.05
    assert required_snr2_db(lambda s: -1.0) == np.inf
    assert required_snr2_db(lambda s: 1.0) == -2.0
    assert required_snr2_db(lambda s: s - 7.0, lo_db=7.5) == 7.5


@pytest.mark.parametrize("continuous", [False, True])
@pytest.mark.parametrize("lo, hi, tol", [(-np.inf, 30.0, 0.05), (-2.0, np.inf, 0.05),
                                         (np.nan, 30.0, 0.05), (5.0, 5.0, 0.05),
                                         (10.0, 5.0, 0.05), (-2.0, 30.0, np.nan),
                                         (-2.0, 30.0, 0.0), (-2.0, 30.0, -0.1)])
def test_search_rejects_a_bracket_it_cannot_narrow(lo, hi, tol, continuous):
    # an infinite end never halves, and a NaN tolerance ends at once
    probes = []
    with pytest.raises(ConfigError):
        required_snr2_db(lambda s: probes.append(s) or s - 7.0, lo, hi, tol,
                         continuous=continuous)
    assert probes == []


def _bisection(margin_fn, lo, hi, tol):
    # the plain bisection that required_snr2_db runs by default
    if margin_fn(hi) < 0.0:
        return math.inf
    if margin_fn(lo) >= 0.0:
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if margin_fn(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _logged(fn):
    log = []

    def margin(db):
        log.append(db)
        return fn(db)
    return margin, log


def _final_brackets(lo, hi, tol):
    # every bracket bisection can end in, left to right (tests only)
    if not hi - lo > tol:
        return [(lo, hi)]
    mid = (lo + hi) / 2.0
    return _final_brackets(lo, mid, tol) + _final_brackets(mid, hi, tol)


_BRACKETS = st.one_of(
    st.sampled_from([(-2.0, 30.0, 0.05), (0.1, 29.7, 0.03), (6.0, 14.0, 0.01)]),
    st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 40.0), st.floats(1e-3, 2.0))
    .map(lambda t: (t[0], t[0] + t[1], t[2])),
)


@st.composite
def _monotone_margins(draw):
    """(lo, hi, tol, margin) with a nondecreasing margin of one of four shapes."""
    lo, hi, tol = draw(_BRACKETS)
    width = hi - lo
    root = draw(st.floats(lo - 0.2 * width, hi + 0.2 * width))
    slope = draw(st.floats(1e-3, 1e3))
    kind = draw(st.sampled_from(["smooth", "stepped", "plateau", "zero_at_candidate"]))
    if kind == "smooth":
        # S-shaped like a rate curve, plus a linear part of drawn weight
        lin = draw(st.floats(0.0, 1.0))
        return lo, hi, tol, lambda x: math.tanh(slope * (x - root)) + lin * (x - root)
    if kind == "stepped":
        step = tol * draw(st.floats(0.25, 100.0))
        return lo, hi, tol, lambda x: slope * math.floor((x - root) / step)
    if kind == "plateau":
        below, above = draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0))
        return lo, hi, tol, lambda x: min(max(slope * (x - root), -below), above)
    # exactly zero at the candidate that bisection returns for this root
    cand = _bisection(lambda x: x - root, lo, hi, tol)
    cand = hi if math.isinf(cand) else cand
    return lo, hi, tol, lambda x: slope * (x - cand)


@settings(max_examples=400, deadline=None)
@given(_monotone_margins())
def test_continuous_search_returns_bisections_float(case):
    lo, hi, tol, fn = case
    m_b, bisected = _logged(fn)
    want = _bisection(m_b, lo, hi, tol)
    m_s, searched = _logged(fn)
    got = required_snr2_db(m_s, lo, hi, tol, continuous=True)
    assert got.hex() == want.hex()
    assert len(set(searched)) == len(searched)
    if math.isinf(got):
        assert len(searched) <= 2
    elif got == lo:
        assert len(searched) <= 3
    else:
        assert got in searched
        assert len(searched) <= len(bisected)


@settings(max_examples=200, deadline=None)
@given(_monotone_margins())
def test_default_search_makes_bisections_probes(case):
    lo, hi, tol, fn = case
    m_b, bisected = _logged(fn)
    want = _bisection(m_b, lo, hi, tol)
    m_d, probed = _logged(fn)
    got = required_snr2_db(m_d, lo, hi, tol)
    assert got.hex() == want.hex()
    assert probed == bisected


def test_continuous_search_finds_every_candidate_of_an_uneven_grid():
    lo, hi, tol = 0.1, 29.7, 0.03
    brackets = _final_brackets(lo, hi, tol)
    # the widths are not all equal, so the grid is not lo + j (hi - lo) / 2^K
    assert len({h - l for l, h in brackets}) > 1
    for cand in [lo] + [h for _, h in brackets]:
        for fn in (lambda x: x - cand, lambda x: math.tanh(3.0 * (x - cand))):
            m_b, bisected = _logged(fn)
            m_s, searched = _logged(fn)
            got = required_snr2_db(m_s, lo, hi, tol, continuous=True)
            assert got == _bisection(m_b, lo, hi, tol) == cand
            assert len(searched) <= max(len(bisected), 3)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _reference_scale(llrs, bits, tol=1e-6):
    # the golden-section search that optimal_llr_scale replaced
    llrs = np.atleast_2d(llrs)
    bits = np.atleast_2d(bits)
    m = llrs.shape[1]
    z = (1.0 - 2.0 * bits.astype(np.float64)) * llrs

    def f(zeta):
        return float(np.logaddexp(0.0, -zeta * z).mean()) * m / np.log(2.0)

    if not np.any(z):
        return 0.0, f(0.0)
    hi = 8.0
    while f(hi) < f(_INVPHI * hi):
        hi *= 2.0
        if hi > 2.0 ** 40:
            return 0.0, f(0.0)
    a, b = 0.0, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    s = (a + b) / 2.0
    return s, f(s)


def _conventional_llrs(name, snr_db, n, seed):
    c = build_constellation(name)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n * c.bits_per_symbol, dtype=np.uint8)
    x = c.symbols[indices_for_bits(c, bits)]
    snr = 10 ** (snr_db / 10)
    y = transmit(x, snr, complex_noise_unit(rng, len(x)))
    return Demapper.conventional(c, snr).llrs(y), bits.reshape(n, -1)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(["qam16", "qam32"]), snr_db=st.floats(0.0, 25.0),
       n=st.integers(2, 5000), prescale=st.floats(0.05, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_scale_matches_golden_section_reference(name, snr_db, n, prescale, seed):
    llrs, bits = _conventional_llrs(name, snr_db, n, seed)
    llrs = prescale * llrs
    res = optimal_llr_scale(llrs, bits)
    ref_scale, ref_loss = _reference_scale(llrs, bits)
    assert res.loss <= ref_loss + 1e-12
    z = (1.0 - 2.0 * bits) * llrs
    if np.any(z < 0.0) and z.sum() > 0.0:
        # a finite optimum above 0, which the reference brackets
        assert abs(res.scale - ref_scale) <= 1e-5 * max(1.0, res.scale)


def test_step_off_the_bracket_falls_back():
    # very confident right metrics, a moderate cluster and two barely
    # wrong ones: a Newton step from above the optimum lands below the
    # bracket, and only the safeguard brings it back
    llrs = np.array([50.0] * 3 + [1.0] * 3 + [-1e-4] * 2)[:, None]
    bits = np.zeros_like(llrs, dtype=np.uint8)
    res = optimal_llr_scale(llrs, bits)
    ref_scale, ref_loss = _reference_scale(llrs, bits)
    assert abs(res.scale - ref_scale) <= 1e-5 * ref_scale
    assert res.loss <= ref_loss + 1e-12


@pytest.mark.parametrize("llrs, bits", [
    ([[1e-11, -2e-11], [3e-11, -1e-11]], [[0, 1], [0, 1]]),        # separable
    ([[2e-11, -1e-11, 5e-12], [-3e-11, 1e-11, 4e-11], [1e-11, 2e-11, -6e-12]],
     [[0, 0, 0], [1, 1, 0], [0, 1, 1]]),                            # not separable
])
def test_scaled_rate_ignores_llr_magnitude(llrs, bits):
    llrs = np.array(llrs)
    bits = np.array(bits, dtype=np.uint8)
    rates = [llrs.shape[1] - optimal_llr_scale(c * llrs, bits).loss
             for c in (1e-11, 1e-3, 1.0, 1e3)]
    assert rates[0] > 0.0
    np.testing.assert_allclose(rates, rates[0], rtol=0.0, atol=1e-9)


def test_separable_metrics_reach_zero_loss_at_finite_scale():
    llrs = np.array([[1e-11, -2e-11], [3e-11, -1e-11]])
    bits = np.array([[0, 1], [0, 1]], dtype=np.uint8)
    res = optimal_llr_scale(llrs, bits)
    assert np.isfinite(res.scale) and res.scale > 0.0
    assert res.loss == 0.0
    assert not res.degenerate


def test_anti_informative_metrics_scale_to_zero():
    bits = np.array([[0, 1, 0], [1, 0, 0]], dtype=np.uint8)
    for llrs in ([[-2.0, 1.0, 0.5], [3.0, -0.5, 1.0]],     # wrong on average
                 [[2.0, 1.0, 0.0], [1.0, 0.0, 0.0]]):      # L'(0) == 0 exactly
        res = optimal_llr_scale(np.array(llrs), bits)
        assert res.scale == 0.0
        assert res.loss == 3.0
        assert not res.degenerate

