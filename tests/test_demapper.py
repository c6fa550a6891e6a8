import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from relaycm.channel import DmcMatrix, transition_matrix
from relaycm.constellation import Constellation, build_constellation
from relaycm.demapper import (
    _BLOCK_ROWS,
    LLR_CLIP,
    Demapper,
    load_llrs_bin,
    load_llrs_csv,
    piecewise_linear_fit,
    save_llrs_bin,
    save_llrs_csv,
)
from relaycm.errors import ConfigError, NumericalDegeneracyError


def _bpsk():
    return Constellation(name="bpsk",
                         symbols=np.array([-1.0 + 0j, 1.0 + 0j]),
                         labels=np.array([[0], [1]], dtype=np.uint8))


def test_two_point_llr_closed_form():
    # L = -4 snr Re(y) for antipodal points labelled 0 at -1
    snr = 10 ** 0.7
    dm = Demapper.conventional(_bpsk(), snr)
    y = np.linspace(-1.5, 1.5, 41) + 0.3j
    want = -4.0 * snr * y.real
    np.testing.assert_allclose(dm.llrs(y)[:, 0], np.clip(want, -50, 50), rtol=1e-12)


def test_llrs_clip_and_custom_clip():
    dm = Demapper.conventional(_bpsk(), 100.0)
    out = dm.llrs(np.array([-5.0 + 0j, 5.0 + 0j]))
    assert out[0, 0] == LLR_CLIP == 50.0 and out[1, 0] == -LLR_CLIP


def test_equivalent_two_point_bsc_closed_form():
    # one antipodal hop through a BSC with crossover p, then AWGN: the exact
    # posterior ratio is available in closed form
    p = 0.11
    snr2 = 10 ** 0.5
    w = DmcMatrix(probs=np.array([[1 - p, p], [p, 1 - p]]), snr_db=None, method="analytic")
    dm = Demapper.equivalent(_bpsk(), snr2, w)
    y = np.linspace(-3, 3, 61).astype(complex)
    a = np.exp(-np.abs(y[:, None] - np.array([-1.0, 1.0])[None, :]) ** 2 * snr2)
    num = a[:, 0] * (1 - p) + a[:, 1] * p
    den = a[:, 0] * p + a[:, 1] * (1 - p)
    want = np.log(num / den)
    got = dm.llrs(y)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-10)
    # crossover bounds the achievable confidence
    sat = dm.llrs(np.array([25.0 + 0j]))[0, 0]
    assert sat == pytest.approx(-np.log((1 - p) / p), abs=1e-9)
    assert np.all(np.diff(got) <= 1e-12)


def test_point_symmetry_flips_exactly_the_antisymmetric_levels():
    c = build_constellation("qam16")
    dm = Demapper.conventional(c, 10 ** 0.8)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    l_pos = dm.llrs(y)
    l_neg = dm.llrs(-y)
    flips = 0
    for i in range(c.bits_per_symbol):
        zero_set = set(np.round(c.symbols[c.labels[:, i] == 0], 9).tolist())
        if zero_set == set(np.round(-c.symbols[c.labels[:, i] == 1], 9).tolist()):
            np.testing.assert_allclose(l_neg[:, i], -l_pos[:, i], atol=1e-9)
            flips += 1
        else:
            np.testing.assert_allclose(l_neg[:, i], l_pos[:, i], atol=1e-9)
    assert flips == 2


def test_all_dead_hypotheses_raise():
    # the relay never emits symbol 0, and y is so deep in that decision
    # region that every other hypothesis underflows
    w = DmcMatrix(probs=np.array([[0.0, 0.0], [1.0, 1.0]]), snr_db=None, method="analytic")
    dm = Demapper.equivalent(_bpsk(), 1.0, w)
    with pytest.raises(NumericalDegeneracyError):
        dm.llrs(np.array([-200.0 + 0j]))
    # nearby samples are still fine
    assert np.isfinite(dm.llrs(np.array([-2.0 + 0j]))).all()


def _reference_llrs(dm, y):
    # per-bit-level logsumexp over the symbol log likelihoods: slower, but
    # each level's two sums are formed in the log domain
    c = dm.constellation
    y = np.atleast_1d(np.asarray(y, dtype=np.complex128))
    a = -np.abs(y[:, None] - c.symbols[None, :]) ** 2 / (2.0 * dm.noise_var)
    if dm.transition is not None:
        amax = a.max(axis=1, keepdims=True)
        with np.errstate(divide="ignore"):
            a = np.log(np.exp(a - amax) @ dm.transition.probs) + amax
    out = np.empty((y.size, c.bits_per_symbol))
    for i in range(c.bits_per_symbol):
        out[:, i] = (logsumexp(a[:, c.labels[:, i] == 0], axis=1)
                     - logsumexp(a[:, c.labels[:, i] == 1], axis=1))
    return np.clip(out, -LLR_CLIP, LLR_CLIP)


_link_cases = st.tuples(
    st.sampled_from(["qam16", "qam32"]),
    st.floats(0.0, 30.0),
    st.integers(1, 2000),
    st.integers(0, 2**32 - 1),
)


def _received(c, snr, n, rng):
    # half the samples near their sent symbol, half anywhere in the square
    # around the constellation, so decision boundaries are well covered
    y = c.symbols[rng.integers(0, c.order, n)]
    y = y + np.sqrt(0.5 / snr) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    r = 1.2 * np.abs(c.symbols).max()
    k = n // 2
    y[:k] = rng.uniform(-r, r, k) + 1j * rng.uniform(-r, r, k)
    return y


@settings(max_examples=60, deadline=None)
@given(case=_link_cases, equivalent=st.booleans())
def test_llrs_match_logsumexp_reference(case, equivalent):
    name, snr_db, n, seed = case
    c = build_constellation(name)
    snr = 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    if equivalent:
        w = rng.dirichlet(np.ones(c.order), size=c.order).T
        dm = Demapper.equivalent(c, snr, DmcMatrix(probs=w))
    else:
        dm = Demapper.conventional(c, snr)
    y = _received(c, snr, n, rng)
    np.testing.assert_allclose(dm.llrs(y), _reference_llrs(dm, y), rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(case=_link_cases)
def test_identity_transition_matches_conventional(case):
    name, snr_db, n, seed = case
    c = build_constellation(name)
    snr = 10.0 ** (snr_db / 10.0)
    y = _received(c, snr, n, np.random.default_rng(seed))
    eye = DmcMatrix(probs=np.eye(c.order))
    np.testing.assert_array_equal(Demapper.equivalent(c, snr, eye).llrs(y),
                                  Demapper.conventional(c, snr).llrs(y))


def _demapper(name, snr, equivalent, seed=0):
    c = build_constellation(name)
    if not equivalent:
        return Demapper.conventional(c, snr)
    w = np.random.default_rng(seed).dirichlet(np.ones(c.order), size=c.order).T
    return Demapper.equivalent(c, snr, DmcMatrix(probs=w))


def _max_shift_llrs(dm, y):
    # the demapper's arithmetic in one pass, with the row max taken by a.max
    c = dm.constellation
    a = np.abs(y[:, None] - c.symbols[None, :]) ** 2
    a /= -2.0 * dm.noise_var
    a -= a.max(axis=1, keepdims=True)
    p = np.exp(a, out=a)
    if dm.transition is not None:
        p = p @ dm.transition.probs
    ones = c.labels.astype(np.float64)
    with np.errstate(divide="ignore"):
        out = np.log(p @ (1.0 - ones)) - np.log(p @ ones)
    return np.clip(out, -LLR_CLIP, LLR_CLIP)


def _awkward_axis(levels, n, rng):
    # a mix of symbol levels, decision lines (level midpoints), draws
    # inside the lattice and draws far outside it
    r = levels.max()
    mids = 0.5 * (levels[:-1] + levels[1:])
    far = rng.choice([-1.0, 1.0], n) * r * 10.0 ** rng.uniform(1.0, 4.0, n)
    pool = np.stack([rng.choice(levels, n), rng.choice(mids, n),
                     rng.uniform(-1.2 * r, 1.2 * r, n), far])
    return pool[rng.integers(0, 4, n), np.arange(n)]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["qam16", "qam32"]), snr_db=st.floats(-5.0, 40.0),
       n=st.integers(1, _BLOCK_ROWS), equivalent=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_slicer_row_max_matches_the_plain_row_max(name, snr_db, n, equivalent, seed):
    dm = _demapper(name, 10.0 ** (snr_db / 10.0), equivalent, seed)
    s = dm.constellation.symbols
    rng = np.random.default_rng(seed)
    y = (_awkward_axis(np.unique(s.real), n, rng)
         + 1j * _awkward_axis(np.unique(s.imag), n, rng))
    np.testing.assert_array_equal(dm.llrs(y), _max_shift_llrs(dm, y))


@pytest.mark.parametrize("equivalent", [False, True])
@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS + 1])
def test_blocks_demap_like_their_slices(n, equivalent):
    dm = _demapper("qam16", 10.0, equivalent)
    y = _received(dm.constellation, 10.0, n, np.random.default_rng(n))
    out = dm.llrs(y)
    assert out.shape == (n, 4)
    for i in range(0, n, _BLOCK_ROWS):
        np.testing.assert_array_equal(out[i:i + _BLOCK_ROWS], dm.llrs(y[i:i + _BLOCK_ROWS]))


@pytest.mark.parametrize("equivalent", [False, True])
@pytest.mark.parametrize("row", [0, _BLOCK_ROWS + 7])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.5, np.nan),
                                 complex(np.inf, 0.0), complex(0.5, -np.inf)])
def test_non_finite_samples_raise(bad, row, equivalent):
    dm = _demapper("qam32", 10.0, equivalent)
    y = _received(dm.constellation, 10.0, 2 * _BLOCK_ROWS + 1, np.random.default_rng(2))
    assert np.isfinite(dm.llrs(y)).all()
    y[row] = bad
    with pytest.raises(NumericalDegeneracyError):
        dm.llrs(y)


def test_invalid_construction():
    with pytest.raises(ConfigError):
        Demapper(constellation=_bpsk(), noise_var=0.0)
    w16 = DmcMatrix(probs=np.eye(16), snr_db=None, method="analytic")
    with pytest.raises(ConfigError):
        Demapper(constellation=_bpsk(), noise_var=0.1, transition=w16)


def test_llr_csv_round_trip():
    rng = np.random.default_rng(7)
    llrs = rng.standard_normal((17, 4)) * 20
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "l.csv")
        save_llrs_csv(path, llrs)
        back = load_llrs_csv(path)
    np.testing.assert_array_equal(back, llrs)


def test_llr_csv_header_mismatch():
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "l.csv")
        with open(path, "w") as fh:
            fh.write("# rows=3 bits=2\n1.0,2.0\n")
        with pytest.raises(ConfigError):
            load_llrs_csv(path)


def test_llr_bin_round_trip_and_errors():
    rng = np.random.default_rng(8)
    llrs = rng.standard_normal((9, 5)) * 30
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "l.bin")
        save_llrs_bin(path, llrs)
        np.testing.assert_array_equal(load_llrs_bin(path), llrs)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + blob[4:])
        with pytest.raises(ConfigError):
            load_llrs_bin(path)
        with open(path, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(ConfigError):
            load_llrs_bin(path)


def test_demap_from_transition_of_real_hop():
    # end to end: hop1 DMC at 9 dB, hop2 awgn, all llrs finite with sane signs
    c = build_constellation("qam16")
    w = transition_matrix(c, 10 ** 0.9)
    dm = Demapper.equivalent(c, 10 ** 1.4, w)
    out = dm.llrs(c.symbols)
    assert out.shape == (16, 4)
    assert np.isfinite(out).all()
    # sending a clean symbol should favor its own label on average
    assert ((out < 0) == c.labels).mean() > 0.9


def test_pwl_fit_recovers_affine_exactly():
    fit = piecewise_linear_fit(lambda x: 2.0 * x + 1.0, knots=2)
    assert fit.max_error < 1e-8
    np.testing.assert_allclose(fit.knots_y, [2 * -4 + 1, 2 * 4 + 1], atol=1e-7)


def test_pwl_fit_abs_with_center_knot():
    fit = piecewise_linear_fit(np.abs, knots=3, lo=-4.0, hi=4.0)
    assert fit.max_error < 1e-8
    assert fit(np.array([-4.0, 0.0, 2.0])) == pytest.approx([4.0, 0.0, 2.0], abs=1e-7)


def test_pwl_error_shrinks_with_knots_and_beats_naive():
    errs = []
    for k in (3, 5, 9):
        fit = piecewise_linear_fit(np.tanh, knots=k)
        errs.append(fit.max_error)
        # reported error is exactly the rescanned residual on the fit grid
        rescan = np.max(np.abs(fit(fit.grid) - np.tanh(fit.grid)))
        assert rescan == pytest.approx(fit.max_error, abs=1e-12)
        naive = np.max(np.abs(np.interp(fit.grid, fit.knots_x, np.tanh(fit.knots_x))
                              - np.tanh(fit.grid)))
        assert fit.max_error <= naive + 1e-12
    assert errs[0] > errs[1] > errs[2]


def test_pwl_callable_is_plain_interpolation():
    fit = piecewise_linear_fit(np.tanh, knots=7)
    x = np.random.default_rng(0).uniform(-4, 4, 50)
    np.testing.assert_allclose(fit(x), np.interp(x, fit.knots_x, fit.knots_y), atol=0)


def test_pwl_rejects_bad_requests():
    with pytest.raises(ConfigError):
        piecewise_linear_fit(np.tanh, knots=1)
    with pytest.raises(ConfigError):
        piecewise_linear_fit(np.tanh, knots=4, lo=1.0, hi=1.0)
    with pytest.raises(ConfigError):
        piecewise_linear_fit(np.tanh, knots=10, grid_points=5)
    with pytest.raises(NumericalDegeneracyError):
        piecewise_linear_fit(lambda x: np.where(np.abs(x) < 1, np.nan, x), knots=4)
