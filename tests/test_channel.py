import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from relaycm import channel
from relaycm.channel import (
    NOISELESS_SNR,
    _ndtr,
    _rect_grid,
    AwgnSegment,
    DmcMatrix,
    LinkModel,
    complex_noise_unit,
    compose_dmc,
    derived_rng,
    nearest_index,
    power_normalizing_eta,
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


def test_ndtr_port_matches_scipy_bit_for_bit():
    grid = np.linspace(-60.0, 60.0, 240_001)
    mags = np.geomspace(1e-300, 100.0, 60_001)
    special = np.array([0.0, -0.0, np.inf, -np.inf])
    for xs in (grid, mags, -mags, special):
        got = [_ndtr(v) for v in xs.tolist()]
        assert _same_doubles(got, ndtr(xs))
    assert math.isnan(_ndtr(math.nan)) and math.isnan(ndtr(math.nan))
    # the zero keeps its sign through erf, which the half-sum then drops
    assert math.copysign(1.0, _ndtr(-0.0)) == 1.0


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_ndtr_port_matches_scipy_on_any_float(x):
    assert _same_doubles(_ndtr(x), ndtr(x))


def _scipy_levels_transition(levels, sigma_dim):
    mids = (levels[:-1] + levels[1:]) / 2.0
    hi = np.append(mids, np.inf)
    lo = np.insert(mids, 0, -np.inf)
    return (ndtr((hi[:, None] - levels[None, :]) / sigma_dim)
            - ndtr((lo[:, None] - levels[None, :]) / sigma_dim))


@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 6.0, 12.5, 17.0, 25.0, 40.0])
def test_analytic_transition_equals_scipy_built_matrix(snr_db):
    c = build_constellation("qam16")
    snr = 10.0 ** (snr_db / 10.0)
    re, im, col, row = _rect_grid(c)
    sigma_dim = np.sqrt(AwgnSegment(snr=snr).noise_var / 2.0)
    want = (_scipy_levels_transition(re, sigma_dim)[np.ix_(col, col)]
            * _scipy_levels_transition(im, sigma_dim)[np.ix_(row, row)])
    got = transition_matrix(c, snr, method="analytic").probs
    assert got.tobytes() == want.tobytes()
