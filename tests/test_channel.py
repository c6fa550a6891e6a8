import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from relaycm import channel
from relaycm.channel import (
    NOISELESS_SNR,
    _cells,
    _ndtr_grid,
    DmcMatrix,
    LinkModel,
    complex_noise_unit,
    compose_dmc,
    derived_rng,
    load_table,
    nearest_index,
    noise_var,
    power_normalizing_eta,
    save_table,
    scale_relay_equivalent_snr,
    transition_matrix,
    transmit,
)
from relaycm.constellation import Constellation, build_constellation
from relaycm.errors import ConfigError


def _qpsk():
    lv = 1.0 / np.sqrt(2.0)
    symbols = np.array([-lv - 1j * lv, lv - 1j * lv, -lv + 1j * lv, lv + 1j * lv])
    labels = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    return Constellation(name="qpsk", symbols=symbols, labels=labels)


@pytest.mark.parametrize("n", [1, 7, 50_000])
def test_unit_noise_is_the_complex_expression_bit_for_bit(n):
    # built without complex temporaries, and still the doubles of the
    # plain expression on the same stream
    z = derived_rng(3, n).standard_normal((2, n))
    want = (z[0] + 1j * z[1]) / np.sqrt(2.0)
    got = complex_noise_unit(derived_rng(3, n), n)
    assert got.dtype == np.complex128 and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_transmit_noise_variance_at_0db():
    x = np.zeros(1_000_000, dtype=complex)
    y = transmit(x, 1.0, complex_noise_unit(np.random.default_rng(1), len(x)))
    var = np.mean(np.abs(y) ** 2)
    assert abs(var - 1.0) < 0.01


def test_noiseless_transmit_is_exact_copy():
    x = np.exp(1j * np.linspace(0, 4, 50))
    y = transmit(x, NOISELESS_SNR, complex_noise_unit(np.random.default_rng(0), len(x)))
    assert np.array_equal(y, x)
    assert y is not x


def test_snr_must_be_positive():
    with pytest.raises(ConfigError):
        noise_var(0.0)


@settings(max_examples=300, deadline=None)
@given(snr=st.floats(1e-300, NOISELESS_SNR, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
@example(snr=np.nextafter(NOISELESS_SNR, 0.0), seed=0)
def test_transmit_scales_unit_noise_bit_for_bit_below_the_cap(snr, seed):
    x = np.exp(1j * np.linspace(0.0, 6.0, 64))
    u = complex_noise_unit(derived_rng(seed, 1), len(x))
    assert noise_var(snr) == 1.0 / snr
    assert transmit(x, snr, u).tobytes() == (x + np.sqrt(1.0 / snr) * u).tobytes()


_EDGE_ROWS = [[], [[-0.0, 0.0]], [[5e-324, -2.2250738585072014e-308]],
              [[1e308, -1e308], [1.7976931348623157e308, -5e-324]], [[0.1, 1.0 / 3.0]]]


def _table_round_trip(rows):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        save_table(path, ("M=2 note", "snr_db=", "seed=7"), rows)
        return load_table(path, "test table")


@pytest.mark.parametrize("rows", _EDGE_ROWS)
def test_table_round_trip_keeps_edge_doubles(rows):
    meta, got = _table_round_trip(rows)
    # every key=value word is metadata, and other words are ignored
    assert meta == {"M": "2", "snr_db": "", "seed": "7"}
    want = np.array(rows, dtype=np.float64)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


_TABLE_FLOATS = st.one_of(st.floats(allow_nan=False),
                          st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_table_round_trip_keeps_every_double(width, data):
    rows = data.draw(st.lists(st.lists(_TABLE_FLOATS, min_size=width, max_size=width),
                              max_size=8))
    _, got = _table_round_trip(rows)
    want = np.array(rows, dtype=np.float64)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    w = transition_matrix(c, 1.0, method="analytic")
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
        w = transition_matrix(c, 10 ** (snr_db / 10.0))
        np.testing.assert_allclose(w.probs.sum(axis=0), 1.0, atol=1e-9)
        assert (w.probs >= 0).all()


def test_noiseless_transition_is_identity():
    c = build_constellation("qam16")
    w = transition_matrix(c, NOISELESS_SNR)
    assert np.array_equal(w.probs, np.eye(16))


@pytest.mark.parametrize("name", ["qam16", "qam32"])
@pytest.mark.parametrize("method", ["analytic", "mc"])
def test_noiseless_hop_is_the_identity_under_either_method(name, method):
    c = build_constellation(name)
    w = transition_matrix(c, NOISELESS_SNR, method=method, mc_samples=1000, seed=5)
    assert np.array_equal(w.probs, np.eye(c.order))
    assert (w.method, w.seed) == (method, 5 if method == "mc" else None)


def test_monte_carlo_agrees_with_analytic():
    c = build_constellation("qam16")
    snr = 10 ** 1.0
    wa = transition_matrix(c, snr, method="analytic")
    wm = transition_matrix(c, snr, method="mc", mc_samples=200_000, seed=4)
    n = 200_000
    se = np.sqrt(wa.probs * (1 - wa.probs) / n)
    # the 8/n term covers near-empty cells where the Gaussian band is too tight
    assert np.all(np.abs(wm.probs - wa.probs) <= 4.0 * se + 8.0 / n)
    np.testing.assert_allclose(wm.probs.sum(axis=0), 1.0, atol=1e-9)


def test_cross_constellation_has_no_analytic_path():
    c = build_constellation("qam32")
    with pytest.raises(ConfigError):
        transition_matrix(c, 10.0, method="analytic")
    # sampling still works
    w = transition_matrix(c, 10.0, method="mc", mc_samples=20_000, seed=0)
    np.testing.assert_allclose(w.probs.sum(axis=0), 1.0, atol=1e-9)


def test_one_ulp_off_a_level_is_the_same_lattice_and_matrix():
    # a coordinate one ulp off its level is float noise to the slicer and
    # to the analytic matrix alike: one level decomposition serves both
    c = build_constellation("qam16")
    sym = c.symbols.copy()
    sym[5] = complex(np.nextafter(sym[5].real, np.inf), sym[5].imag)
    assert sym[5] != c.symbols[5]
    nudged = Constellation(name="qam16-nudged", symbols=sym, labels=c.labels)
    assert channel._lattice(sym) is not None
    y = _slicer_draws(sym, np.random.default_rng(4), 4000, 3)
    assert np.array_equal(nearest_index(y, sym), _argmin_slicer(y, sym))
    for snr in (10 ** 0.6, 10 ** 1.7):
        got = transition_matrix(nudged, snr, method="analytic").probs
        assert got.tobytes() == transition_matrix(c, snr, method="analytic").probs.tobytes()


def test_rotated_relabelled_constellation_permutes_transition():
    c = build_constellation("qam16")
    w = transition_matrix(c, 10 ** 0.9)
    perm = np.random.default_rng(2).permutation(16)
    c2 = Constellation(name="qam16-perm", symbols=c.symbols[perm] * 1j,
                       labels=c.labels[perm])
    w2 = transition_matrix(c2, 10 ** 0.9)
    # rotating every point by 90 degrees leaves pairwise geometry alone, so
    # only the relabelling shows up
    np.testing.assert_allclose(w2.probs, w.probs[np.ix_(perm, perm)], atol=1e-12)


def test_hard_decision_idempotent():
    c = build_constellation("qam16")
    rng = np.random.default_rng(0)
    y = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    once = c.symbols[nearest_index(y, c.symbols)]
    twice = c.symbols[nearest_index(once, c.symbols)]
    assert np.array_equal(once, twice)


def test_nearest_index_tie_takes_lowest():
    c = build_constellation("qam16")
    idx = nearest_index(np.array(0.0 + 0.0j), c.symbols)
    d = np.abs(c.symbols)
    tied = np.flatnonzero(np.isclose(d, d.min()))
    assert len(tied) == 4
    assert idx == tied.min()


def _argmin_slicer(y, points):
    return np.argmin(np.abs(np.asarray(y)[..., None] - points), axis=-1)


def test_nearest_index_matches_argmin_on_exact_ties():
    for name in ("qam16", "qam32"):
        s = build_constellation(name).symbols
        # every pairwise midpoint: y = 0 on qam16, square centres, and the
        # midpoints next to the missing corners of the qam32 cross
        y = ((s[:, None] + s[None, :]) / 2.0).ravel()
        if name == "qam32":
            # the diagonals that split each missing corner's quadrant
            t = np.linspace(3.5, 5.5, 9) * s.real.max() / 5.0
            y = np.concatenate([y, (np.array([1, 1j, -1, -1j])[:, None] * (t + 1j * t)).ravel()])
        assert np.array_equal(nearest_index(y, s), _argmin_slicer(y, s))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["qam16", "qam32"]),
       pts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1,
                    max_size=64))
def test_nearest_index_matches_argmin(name, pts):
    s = build_constellation(name).symbols
    y = np.array([complex(re, im) for re, im in pts])
    got = nearest_index(y, s)
    assert got.dtype == np.intp
    assert np.array_equal(got, _argmin_slicer(y, s))
    if len(y) % 2 == 0:
        assert np.array_equal(nearest_index(y.reshape(2, -1), s), got.reshape(2, -1))


def test_nearest_index_handles_nan_and_inf():
    vals = [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.0, 0.3]
    y = np.array([complex(re, im) for re in vals for im in vals])
    for name in ("qam16", "qam32"):
        s = build_constellation(name).symbols
        want = _argmin_slicer(y, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nearest_index(y, s)
        assert got.dtype == np.intp
        assert np.array_equal(got, want)


_TRANSFORMS = {
    "none": lambda s: s,
    "scaled": lambda s: 2.7 * s,
    "translated": lambda s: s + (0.3 - 1.7j),
    "rot90": lambda s: 1j * s,
    "rot45": lambda s: s * np.exp(0.25j * np.pi),
}


def _slicer_points(name, transform):
    if name == "qam16-jittered":
        s = build_constellation("qam16").symbols
        return s + 1e-3 * ([1, 1j] @ np.random.default_rng(0).standard_normal((2, 16)))
    return _TRANSFORMS[transform](build_constellation(name).symbols)


def _slicer_draws(points, rng, n, e):
    """Draws around the decision lines of the points' own levels, offset by
    10**-e spacings, inside empty lattice cells, next to pairwise midpoints
    and anywhere over the lattice."""
    axes = [np.unique(np.round(v, 9)) for v in (points.real, points.imag)]
    step = min(np.diff(lv).min() for lv in axes)
    off = rng.choice([-1.0, 1.0], n) * step * 10.0 ** -e

    def near_line(lv):
        k = rng.integers(0, len(lv) - 1, n)
        return (lv[k] + lv[k + 1]) / 2.0 + off

    def anywhere(lv):
        return rng.uniform(lv[0] - step, lv[-1] + step, n)

    re, im = axes
    kinds = [near_line(re) + 1j * anywhere(im), anywhere(re) + 1j * near_line(im),
             near_line(re) + 1j * near_line(im), anywhere(re) + 1j * anywhere(im)]
    i, j = rng.integers(0, len(points), (2, n))
    kinds.append((points[i] + points[j]) / 2.0 + off * np.exp(2j * np.pi * rng.random(n)))
    cr, ci = np.meshgrid(re, im)
    taken = np.abs(cr.ravel()[:, None] - points).min(axis=1) < 1e-9 * step
    empty = (cr.ravel() + 1j * ci.ravel())[~taken]
    if empty.size:
        kinds.append(empty[rng.integers(0, empty.size, n)]
                     + step * (rng.random(n) - 0.5 + 1j * (rng.random(n) - 0.5)))
    y = np.concatenate(kinds)
    return y[rng.permutation(y.size)[:n]]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["qam16", "qam32", "qam16-jittered"]),
       transform=st.sampled_from(sorted(_TRANSFORMS)),
       shape=st.sampled_from([(), (1,), (37,), (2, 19), (6, 6)]),
       e=st.integers(3, 15), seed=st.integers(0, 2**32 - 1))
def test_lattice_slicer_matches_argmin(name, transform, shape, e, seed):
    points = _slicer_points(name, transform)
    assert (channel._lattice(points) is None) == (name == "qam16-jittered")
    y = _slicer_draws(points, np.random.default_rng(seed), max(math.prod(shape), 1), e)
    y = y.reshape(shape)
    got, want = nearest_index(y, points), _argmin_slicer(y, points)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.intp
    assert np.array_equal(got, want)


def _count_exact_draws(monkeypatch):
    drawn = []
    running_min = channel._running_min_index

    def counted(y, points):
        drawn.append(y.size)
        return running_min(y, points)

    monkeypatch.setattr(channel, "_running_min_index", counted)
    return drawn


def test_off_lattice_points_take_the_exact_path_for_every_draw(monkeypatch):
    points = _slicer_points("qam16-jittered", "none")
    drawn = _count_exact_draws(monkeypatch)
    y = [1, 1j] @ np.random.default_rng(3).standard_normal((2, 500))
    assert np.array_equal(nearest_index(y, points), _argmin_slicer(y, points))
    assert drawn == [500]


def test_lattice_slicer_sends_only_hard_draws_to_the_exact_path(monkeypatch):
    s = build_constellation("qam32").symbols
    drawn = _count_exact_draws(monkeypatch)
    step = s.real.max() / 2.5
    corners = np.array([1, 1j, -1, -1j]) * (2.5 + 2.4j) * step
    lines = np.array([1e-7, 1.0 - 1e-7]) * step + 0.2j * step
    easy = s + 0.3 * step * np.exp(1j * np.arange(32))
    y = np.concatenate([easy, corners, lines, [np.nan, 1e10]])
    assert np.array_equal(nearest_index(y, s), _argmin_slicer(y, s))
    assert drawn == [8]


@pytest.mark.parametrize("name", ["qam16", "qam32"])
def test_monte_carlo_dmc_counts_match_the_running_minimum(monkeypatch, name):
    # about 16 dB is where qam32 draws land in the missing corners
    c = build_constellation(name)
    running_min = channel._running_min_index
    drawn = _count_exact_draws(monkeypatch)
    runs = [(snr_db, seed) for snr_db in (8.0, 16.2, 22.0) for seed in (1, 7)]

    def dmcs():
        return [transition_matrix(c, 10.0 ** (snr_db / 10.0), method="mc", mc_samples=20_000,
                                  seed=seed).probs for snr_db, seed in runs]

    fast = dmcs()
    monkeypatch.setattr(channel, "nearest_index", running_min)
    for (snr_db, seed), got, want in zip(runs, fast, dmcs()):
        assert got.tobytes() == want.tobytes(), (snr_db, seed)
    if name == "qam32":
        assert sum(drawn) > 1000


def test_noiseless_monte_carlo_dmc_draws_nothing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a noiseless hop drew noise")

    monkeypatch.setattr(channel, "complex_noise_unit", no_draws)
    for name in ("qam16", "qam32"):
        c = build_constellation(name)
        w = transition_matrix(c, NOISELESS_SNR, method="mc", mc_samples=50_000, seed=3)
        assert np.array_equal(w.probs, np.eye(c.order))
        assert (w.method, w.seed) == ("mc", 3)


def test_nearest_index_scale_invariant():
    c = build_constellation("qam16")
    rng = np.random.default_rng(5)
    y = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    a = nearest_index(y, c.symbols)
    b = nearest_index(3.7 * y, 3.7 * c.symbols)
    assert np.array_equal(a, b)


def test_doubling_spans_costs_3db():
    for n in (1, 2, 4, 7):
        gap = (LinkModel(snr_ref_db=20.0, spans_hop1=n).hop1_snr_db()
               - LinkModel(snr_ref_db=20.0, spans_hop1=2 * n).hop1_snr_db())
        assert gap == pytest.approx(10 * np.log10(2.0), abs=1e-3)


def test_link_budget_hop1_snr_and_hop2_reach():
    link = LinkModel(snr_ref_db=22.0, relay_penalty_db=1.5, spans_hop1=11)
    assert link.hop1_snr_db() == 22.0 - 10.0 * math.log10(11)
    assert LinkModel(snr_ref_db=22.0, spans_hop1=0).hop1_snr_db() is None
    # a required snr2 exactly n spans below the budget allows n spans, not n - 1
    for n in (1, 4, 11, 40, 43):
        need = 22.0 - 1.5 - 10.0 * math.log10(n)
        assert link.max_spans_hop2(need) == n
        assert link.max_spans_hop2(need + 1e-6) == n - 1
    # the relay penalty is charged only when a relay feeds hop 2
    assert LinkModel(snr_ref_db=22.0, relay_penalty_db=1.5).max_spans_hop2(12.0) == 10
    assert link.max_spans_hop2(21.0) == 0
    with pytest.raises(ConfigError):
        LinkModel(snr_ref_db=22.0, spans_hop1=-1)
    for km in (0.0, -80.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            LinkModel(snr_ref_db=22.0, span_length_km=km)
    # a non-finite reference or penalty once reached math.floor in
    # max_spans_hop2 and raised ValueError or OverflowError there
    for ref, penalty in ((math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                         (22.0, math.nan), (22.0, math.inf), (22.0, -1.0)):
        with pytest.raises(ConfigError):
            LinkModel(snr_ref_db=ref, relay_penalty_db=penalty)


def test_scale_relay_equivalent_snr_formula():
    assert scale_relay_equivalent_snr(10.0, 5.0) == pytest.approx(50.0 / 16.0)
    eta = power_normalizing_eta(4.0)
    assert eta == pytest.approx(np.sqrt(4.0 / 5.0))
    # equivalent snr never beats either hop
    assert scale_relay_equivalent_snr(10.0, 5.0) < 5.0


def test_compose_identity_and_chain():
    c = build_constellation("qam16")
    w = transition_matrix(c, 10 ** 0.8)
    eye = DmcMatrix(probs=np.eye(16), snr_db=None, method="analytic")
    left = compose_dmc([w, eye])
    np.testing.assert_allclose(left.probs, w.probs, atol=1e-15)
    w2 = transition_matrix(c, 10 ** 1.1)
    both = compose_dmc([w, w2])
    np.testing.assert_allclose(both.probs, w2.probs @ w.probs, atol=1e-15)
    np.testing.assert_allclose(both.probs.sum(axis=0), 1.0, atol=1e-9)


def test_dmc_csv_round_trip():
    c = build_constellation("qam16")
    w = transition_matrix(c, 10 ** 0.8)
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


def _same_doubles(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.tobytes() == want.tobytes()


def test_normal_cdf_is_close_to_scipy():
    # math.erfc and scipy's Cephes port round differently in the last
    # places; measured at most 2.2e-16 absolute and 5.7e-14 relative
    grid = np.linspace(-60.0, 60.0, 240_001)
    mags = np.geomspace(1e-300, 100.0, 60_001)
    for xs in (grid, mags, -mags):
        got, want = _ndtr_grid(xs), ndtr(xs)
        assert np.max(np.abs(got - want)) <= 1e-15
        big = want > 1e-300
        assert np.max(np.abs(got[big] - want[big]) / want[big]) <= 1e-12
    special = _ndtr_grid(np.array([np.nan, np.inf, -np.inf, -0.0]))
    assert math.isnan(special[0])
    assert _same_doubles(special[1:], [1.0, 0.0, 0.5])


def _interval_levels_transition(levels, sigma_dim, cdf):
    mids = (levels[:-1] + levels[1:]) / 2.0
    hi = np.append(mids, np.inf)
    lo = np.insert(mids, 0, -np.inf)
    return (cdf((hi[:, None] - levels[None, :]) / sigma_dim)
            - cdf((lo[:, None] - levels[None, :]) / sigma_dim))


def _erfc_cdf(z):
    return np.vectorize(lambda v: 0.5 * math.erfc(-v * math.sqrt(0.5)))(z)


@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 6.0, 12.5, 17.0, 25.0, 40.0])
def test_analytic_transition_equals_scipy_built_matrix(snr_db):
    c = build_constellation("qam16")
    snr = 10.0 ** (snr_db / 10.0)
    re, im, col, row = _cells(c.symbols)
    sigma_dim = np.sqrt(noise_var(snr) / 2.0)

    def matrix(cdf):
        return (_interval_levels_transition(re, sigma_dim, cdf)[np.ix_(col, col)]
                * _interval_levels_transition(im, sigma_dim, cdf)[np.ix_(row, row)])

    got = transition_matrix(c, snr, method="analytic").probs
    assert got.tobytes() == matrix(_erfc_cdf).tobytes()
    # scipy's ndtr rounds differently; measured at most 4.4e-16 apart
    assert np.max(np.abs(got - matrix(ndtr))) <= 1e-15
