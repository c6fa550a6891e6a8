import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaycm.errors import ConfigError
from relaycm.scldpc import (
    DEFAULT_DC,
    DEFAULT_DV,
    _build_edges,
    _gf2_solver,
    _greedy_offsets,
    _phi,
    _spread_index,
    _tail_system,
    _var_roles,
    build_code,
    decode,
    design_rate,
)


def test_design_rate_arithmetic():
    assert design_rate(20, 2) == pytest.approx(1.0 - 63.0 / 300.0)
    assert design_rate(12, 2) == pytest.approx(1.0 - 39.0 / 180.0)
    # doubling the chain at w=3 lands on the same rate as w=2
    assert design_rate(24, 3) == pytest.approx(design_rate(12, 2))


def test_dimensions_and_rate():
    code = build_code(32, 12, 2, seed=1)
    assert code.n == 15 * 32 * 12
    assert code.n_checks == 3 * 32 * 13
    assert code.k == 32 * ((15 - 3) * 12 - 3 * (2 - 1))
    assert code.rate == pytest.approx(design_rate(12, 2))
    assert len(code.info_vars) == code.k
    assert len(np.unique(code.info_vars)) == code.k
    assert len(code.tail_vars) == 6 * (code.coupling - 1) * code.q


@lru_cache(maxsize=64)
def _shared_code(q, chain_len, coupling, dc=DEFAULT_DC):
    # one instance per shape, so examples with different windows decode on
    # the same layout
    return build_code(q, chain_len, coupling, seed=0, dc=dc)


@st.composite
def _code_shapes(draw):
    coupling = draw(st.sampled_from([2, 3]))
    return (draw(st.sampled_from([2, 3, 4, 8, 16, 32])), draw(st.integers(coupling, 10)),
            coupling, draw(st.sampled_from([6, 9, 12, 15, 18])))


@settings(max_examples=60, deadline=None)
@given(shape=_code_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(16, 8, 2, DEFAULT_DC), seed=0)
def test_encode_is_systematic_and_valid(shape, seed):
    code = _shared_code(*shape)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        u = rng.integers(0, 2, code.k, dtype=np.uint8)
        x = code.encode(u)
        assert np.array_equal(x[code.info_vars], u)
        assert not code.syndrome(x).any()


@settings(max_examples=60, deadline=None)
@given(shape=_code_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(16, 8, 2, DEFAULT_DC), seed=1)
def test_encode_is_linear(shape, seed):
    code = _shared_code(*shape)
    rng = np.random.default_rng(seed)
    u1 = rng.integers(0, 2, code.k, dtype=np.uint8)
    u2 = rng.integers(0, 2, code.k, dtype=np.uint8)
    assert np.array_equal(code.encode(u1) ^ code.encode(u2), code.encode(u1 ^ u2))
    assert not code.encode(np.zeros(code.k, dtype=np.uint8)).any()


def test_wrong_info_length_rejected():
    code = build_code(8, 4, 2, seed=0)
    with pytest.raises(ConfigError):
        code.encode(np.zeros(code.k + 1, dtype=np.uint8))


def test_build_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        build_code(1, 8, 2)
    with pytest.raises(ConfigError):
        build_code(8, 3, 4)
    with pytest.raises(ConfigError):
        build_code(8, 8, 4)          # wider than the variable degree
    with pytest.raises(ConfigError):
        build_code(8, 8, 2, dc=5)


@pytest.mark.parametrize("dc", [6, 9, 12, 18])
def test_check_degrees_build_encode_and_decode(dc):
    code = build_code(16, 6, 3, seed=0, dc=dc)
    assert code.n == dc * 16 * 6
    assert code.rate == pytest.approx(design_rate(6, 3, dc=dc))
    u = np.random.default_rng(dc).integers(0, 2, code.k, dtype=np.uint8)
    x = code.encode(u)
    assert not code.syndrome(x).any()
    res = decode(code, 20.0 * (1.0 - 2.0 * x.astype(np.float64)), iterations=2)
    assert np.array_equal(res.bits, x)
    assert res.converged.all()


def test_build_is_deterministic_in_seed():
    a = build_code(16, 6, 2, seed=3)
    b = build_code(16, 6, 2, seed=3)
    assert np.array_equal(a.offsets, b.offsets)
    c = build_code(16, 6, 2, seed=4)
    assert not np.array_equal(a.offsets, c.offsets)


def test_reported_girth_is_six_for_roomy_lifts():
    assert build_code(32, 12, 2, seed=1).girth == 6
    assert build_code(64, 8, 3, seed=1).girth == 6


def test_matched_rate_pair_across_coupling_widths():
    w2 = build_code(32, 12, 2, seed=1)
    w3 = build_code(32, 24, 3, seed=1)
    assert w2.rate == pytest.approx(w3.rate)
    u = np.random.default_rng(5).integers(0, 2, w3.k, dtype=np.uint8)
    assert not w3.syndrome(w3.encode(u)).any()


def _dense_h(code):
    # column j of H is the syndrome of the unit word e_j
    eye = np.eye(code.n, dtype=np.uint8)
    return np.stack([code.syndrome(e) for e in eye], axis=1).astype(np.uint8)


def _alist_h(text):
    # parity-check matrix from the variable-side lists of an alist file
    n, m = map(int, text[0].split())
    h = np.zeros((m, n), dtype=np.uint8)
    for j in range(n):
        for v in map(int, text[4 + j].split()):
            if v:
                h[v - 1, j] = 1
    return h


def _edge_list_h(code):
    # H from the edge list the layout is built from, not from the layout
    var, chk = _build_edges(code.q, code.chain_len, code.coupling, code.dv, code.dc,
                            code.offsets)
    # uint8 holds every row sum: a check has at most dc edges
    h = np.zeros((code.n_checks, code.n), dtype=np.uint8)
    np.add.at(h, (chk, var), 1)
    return h


@settings(max_examples=20, deadline=None)
@given(shape=_code_shapes(), seed=st.integers(0, 2**32 - 1))
@example(shape=(8, 6, 2, DEFAULT_DC), seed=0)
def test_sparse_matrix_matches_syndrome(shape, seed):
    # encode, syndrome and the alist all read the slot layout; the edge
    # list checks each of them on its own
    code = _shared_code(*shape)
    h = _edge_list_h(code)
    # no variable meets a check twice, and column weights are the
    # variable degree throughout
    assert h.max() == 1
    np.testing.assert_array_equal(h.sum(axis=0), code.dv)
    np.testing.assert_array_equal(_alist_h(code.to_alist().splitlines()), h)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, code.n, dtype=np.uint8)
    s = code.syndrome(x)
    assert s.dtype == np.int64
    np.testing.assert_array_equal(s, (h @ x) % 2)
    assert not ((h @ code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))) % 2).any()


def test_alist_round_trip():
    code = build_code(8, 4, 2, seed=0)
    text = code.to_alist().splitlines()
    n, m = map(int, text[0].split())
    assert (n, m) == (code.n, code.n_checks)
    dmax_c, dmax_r = map(int, text[1].split())
    col_deg = list(map(int, text[2].split()))
    row_deg = list(map(int, text[3].split()))
    assert col_deg == [3] * code.n
    assert sum(col_deg) == sum(row_deg)
    assert dmax_r == max(row_deg)
    h = _alist_h(text)
    np.testing.assert_array_equal(h, _dense_h(code))
    # check-side lists agree with the matrix too, ascending, zeros last
    for i in range(m):
        nbr = [int(v) for v in text[4 + n + i].split()]
        assert nbr == [j + 1 for j in np.flatnonzero(h[i])] + [0] * (dmax_r - row_deg[i])
    # variable-side lists are ascending too
    for j in range(n):
        assert text[4 + j].split() == [str(i + 1) for i in np.flatnonzero(h[:, j])]


@pytest.mark.parametrize("shape, digest", [
    ((8, 4, 2, 0), "71ceb84f83f5ac1a"),
    ((64, 16, 3, 1), "a6969d498299b21b"),
    # the code of criterion 8
    ((64, 20, 2, 1), "545bfed51f89d0db"),
    # accepted after 6 rejected offset draws
    ((64, 16, 3, 3), "e8ff213288202961"),
])
def test_alist_bytes_are_pinned(shape, digest):
    q, chain_len, coupling, seed = shape
    text = build_code(q, chain_len, coupling, seed=seed).to_alist()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_decode_clean_word_is_a_fixed_point():
    code = build_code(16, 8, 2, seed=0)
    u = np.random.default_rng(2).integers(0, 2, code.k, dtype=np.uint8)
    x = code.encode(u)
    llrs = 20.0 * (1.0 - 2.0 * x.astype(np.float64))
    res = decode(code, llrs, iterations=1)
    assert np.array_equal(res.bits[code.info_vars], u)
    assert res.converged.all()
    assert res.iterations == code.chain_len


def test_decode_corrects_moderate_noise():
    code = build_code(16, 8, 2, seed=0)
    rng = np.random.default_rng(9)
    u = rng.integers(0, 2, code.k, dtype=np.uint8)
    x = code.encode(u)
    sigma = 0.55
    y = (1.0 - 2.0 * x) + sigma * rng.standard_normal(code.n)
    res = decode(code, 2.0 * y / sigma ** 2)
    assert np.array_equal(res.bits[code.info_vars], u)
    assert res.converged.all()
    # raw hard decisions were not already clean
    assert ((y < 0) != x.astype(bool)).sum() > 20


def test_decode_flags_failure_beyond_threshold():
    code = build_code(16, 8, 2, seed=0)
    rng = np.random.default_rng(10)
    u = rng.integers(0, 2, code.k, dtype=np.uint8)
    x = code.encode(u)
    sigma = 1.4
    y = (1.0 - 2.0 * x) + sigma * rng.standard_normal(code.n)
    res = decode(code, 2.0 * y / sigma ** 2, iterations=8)
    assert (res.bits[code.info_vars] != u).any()
    assert not res.converged.all()


def test_wide_window_agrees_on_correctable_words():
    code = build_code(16, 8, 2, seed=0)
    rng = np.random.default_rng(11)
    u = rng.integers(0, 2, code.k, dtype=np.uint8)
    x = code.encode(u)
    y = (1.0 - 2.0 * x) + 0.55 * rng.standard_normal(code.n)
    llrs = 2.0 * y / 0.55 ** 2
    small = decode(code, llrs)
    full = decode(code, llrs, window=code.chain_len + code.coupling - 1)
    assert np.array_equal(small.bits[code.info_vars], u)
    assert np.array_equal(full.bits[code.info_vars], u)


def test_decode_validation():
    code = build_code(8, 4, 2, seed=0)
    with pytest.raises(ConfigError):
        decode(code, np.zeros(code.n), window=1)
    with pytest.raises(ConfigError):
        decode(code, np.zeros(code.n - 1))
    for saturation in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            decode(code, np.zeros(code.n), saturation=saturation)


def _reference_phi(x, dtype):
    if dtype == np.float64:
        # the float64 arithmetic the decoder used before it moved to float32
        return -np.log(np.tanh(np.maximum(x, 1e-12) / 2.0))
    return np.log1p(2.0 / np.expm1(np.clip(x, np.float32(1e-12), np.float32(88.0))))


def _reference_decode(code, llrs, window=None, iterations=20, saturation=25.0,
                      dtype=np.float32, whole_window=False):
    # the edge-list decoder: re-derives each window's edges, np.unique for
    # its variables, and every float sum as np.add.at over the check-sorted
    # edges, one term at a time in the given dtype (np.bincount would sum
    # in float64 whatever its weights).  float32 is the decoder's arithmetic,
    # float64 the one it replaced.  A step stops once the checks of its
    # first 2w + 1 positions hold, or with whole_window every check of the
    # window, the rule the decoder had before.
    L, w, q, dv, dc = code.chain_len, code.coupling, code.q, code.dv, code.dc
    var, chk = _build_edges(q, L, w, dv, dc, code.offsets)
    order = np.argsort(chk, kind="stable")
    edge_var, edge_check = var[order], chk[order]
    win = 4 * w if window is None else int(window)
    lam = np.asarray(llrs, dtype=dtype).ravel()
    hard = np.zeros(code.n, dtype=np.uint8)
    llr = np.empty(code.n, dtype=dtype)
    min_abs = np.full(L, np.inf)
    total_iter = 0
    for t0 in range(L):
        c_hi = min(t0 + win, L + w - 1)
        chk0, chk1 = t0 * dv * q, c_hi * dv * q
        lo, hi = np.searchsorted(edge_check, [chk0, chk1])
        evar = edge_var[lo:hi]
        echk = edge_check[lo:hi] - chk0
        n_chk = chk1 - chk0
        frozen = (evar // (dc * q)) < t0
        flip = np.bincount(echk[frozen], weights=hard[evar[frozen]].astype(np.float64),
                           minlength=n_chk).astype(np.int64) % 2
        avar = evar[~frozen]
        achk = echk[~frozen]
        uvar, inv = np.unique(avar, return_inverse=True)
        lam_u = lam[uvar]
        c2v = np.zeros(len(avar), dtype=dtype)
        post = lam_u.copy()
        for _ in range(iterations):
            total_iter += 1
            v2c = np.clip(post[inv] - c2v, -saturation, saturation)
            neg = v2c < 0.0
            ph = _reference_phi(np.abs(v2c), dtype)
            ph_sum = np.zeros(n_chk, dtype=dtype)
            np.add.at(ph_sum, achk, ph)
            arg = ph_sum[achk] - ph
            mag = _reference_phi(arg, dtype)
            if dtype == np.float32:
                mag[arg >= 88.0] = 0.0
            n_neg = np.bincount(achk, weights=neg, minlength=n_chk).astype(np.int64)
            par = (n_neg[achk] - neg + flip[achk]) % 2
            c2v = np.where(par == 0, mag, -mag)
            v_sum = np.zeros(len(uvar), dtype=dtype)
            np.add.at(v_sum, inv, c2v)
            post = lam_u + v_sum
            hb = (post < 0.0).astype(np.float64)
            syn = np.bincount(achk, weights=hb[inv], minlength=n_chk).astype(np.int64) + flip
            if not np.any(syn[:None if whole_window else (2 * w + 1) * dv * q] % 2):
                break
        sel = (uvar // (dc * q)) == t0
        hard[uvar[sel]] = post[sel] < 0.0
        llr[uvar[sel]] = post[sel]
        min_abs[t0] = np.abs(post[sel]).min()
    syn = code.syndrome(hard)
    clean = syn.reshape(L + w - 1, dv * q).sum(axis=1) == 0
    flags = np.empty(L, dtype=bool)
    for t in range(L):
        flags[t] = bool(clean[t:min(t + w, L + w - 1)].all()) and min_abs[t] > 0.0
    return hard, flags, total_iter, llr


def _noisy_llrs(code, sigma, zero_frac, rng):
    x = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
    lam = 2.0 * ((1.0 - 2.0 * x) + sigma * rng.standard_normal(code.n)) / sigma ** 2
    lam[rng.random(code.n) < zero_frac] = 0.0
    return lam


def _assert_matches_reference(code, lam, whole_window=False, **kw):
    res = decode(code, lam, **kw)
    bits, flags, iters, llr = _reference_decode(code, lam, whole_window=whole_window, **kw)
    assert np.array_equal(res.bits, bits)
    assert np.array_equal(res.converged, flags)
    assert res.iterations == iters
    # bits and flags shrug off a last-place change in one message; the
    # posteriors show any change in the order of a sum
    assert np.array_equal(res.posteriors, llr)


@st.composite
def _decode_cases(draw):
    q = draw(st.sampled_from([8, 16, 32]))
    w = draw(st.sampled_from([2, 3]))
    chain_len = draw(st.integers(w, 8))
    window = draw(st.none() | st.integers(w, chain_len + w - 1))
    return q, chain_len, w, window


@settings(max_examples=150, deadline=None)
@given(case=_decode_cases(), iterations=st.integers(1, 30),
       saturation=st.sampled_from([3.0, 8.0, 25.0, 60.0, 100.0]), sigma=st.floats(0.3, 1.5),
       zero_frac=st.sampled_from([0.0, 0.05, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_decode_matches_edge_list_reference(case, iterations, saturation, sigma, zero_frac, seed):
    q, chain_len, w, window = case
    code = _shared_code(q, chain_len, w)
    lam = _noisy_llrs(code, sigma, zero_frac, np.random.default_rng(seed))
    _assert_matches_reference(code, lam, window=window, iterations=iterations,
                              saturation=saturation)


def test_window_steps_stop_on_their_first_2w_plus_1_positions():
    # with the default window of 4w positions the two stopping rules part
    # ways here; the decoder takes the prefix rule's iterations
    code = _shared_code(16, 12, 2)
    lam = _noisy_llrs(code, 0.5, 0.0, np.random.default_rng(1))
    _assert_matches_reference(code, lam)
    assert decode(code, lam).iterations == 35
    assert _reference_decode(code, lam, whole_window=True)[2] == 42


@settings(max_examples=80, deadline=None)
@given(case=_decode_cases(), iterations=st.integers(1, 30), sigma=st.floats(0.3, 1.5),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_short_windows_decode_as_under_the_whole_window_rule(case, iterations, sigma, seed,
                                                            data):
    # a window of at most 2w + 1 positions is all prefix: every bit,
    # posterior and iteration count is the whole-window rule's
    q, chain_len, w, _ = case
    window = data.draw(st.integers(w, 2 * w + 1), label="window")
    code = _shared_code(q, chain_len, w)
    lam = _noisy_llrs(code, sigma, 0.0, np.random.default_rng(seed))
    _assert_matches_reference(code, lam, whole_window=True, window=window,
                              iterations=iterations)


def test_one_layout_serves_every_window():
    code = build_code(16, 8, 3, seed=1)
    lam = _noisy_llrs(code, 0.8, 0.02, np.random.default_rng(4))
    for window in (4, 10, 4):
        _assert_matches_reference(code, lam, window=window, iterations=12)


@settings(max_examples=60, deadline=None)
@given(case=_decode_cases(), snr_db=st.floats(-1.0, 6.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_stop_truncates_the_full_decode(case, snr_db, seed, data):
    q, chain_len, w, window = case
    code = _shared_code(q, chain_len, w)
    sigma = 10.0 ** (-snr_db / 20.0)
    lam = _noisy_llrs(code, sigma, 0.0, np.random.default_rng(seed))
    full = decode(code, lam, window=window)
    span = code.dc * code.q

    seen = []

    def watch(t, bits):
        # each call sees the committed positions of the full decode, 0 after
        cut = (t + 1) * span
        assert np.array_equal(bits[:cut], full.bits[:cut]) and not bits[cut:].any()
        seen.append(t)
        return False

    never = decode(code, lam, window=window, stop=watch)
    assert seen == list(range(chain_len))
    assert np.array_equal(never.bits, full.bits)
    assert np.array_equal(never.posteriors, full.posteriors)
    assert np.array_equal(never.converged, full.converged)
    assert never.iterations == full.iterations

    p = data.draw(st.integers(0, chain_len - 1), label="stop position")
    seen.clear()
    stopped = decode(code, lam, window=window, stop=lambda t, bits: seen.append(t) or t == p)
    assert seen == list(range(p + 1))
    cut = (p + 1) * span
    assert np.array_equal(stopped.bits[:cut], full.bits[:cut]) and not stopped.bits[cut:].any()
    assert np.array_equal(stopped.posteriors[:cut], full.posteriors[:cut])
    assert not stopped.posteriors[cut:].any()
    assert not stopped.converged.any()
    assert stopped.iterations <= full.iterations
    if p == chain_len - 1:
        assert stopped.iterations == full.iterations


def test_phi_keeps_its_float32_tail():
    # -ln tanh(x/2) in float32 reads 0 from x near 17 on; small codes still
    # decode with that, long ones pick up errors (criterion 8)
    x = np.geomspace(1e-12, 87.9, 4000).astype(np.float32)
    got = _phi(x, out=np.empty_like(x))
    assert got.dtype == np.float32
    exact = np.log1p(2.0 / np.expm1(x.astype(np.float64)))
    np.testing.assert_allclose(got, exact, rtol=1e-6, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(case=_decode_cases(), iterations=st.integers(1, 30), sigma=st.floats(0.3, 1.2),
       seed=st.integers(0, 2**32 - 1))
def test_float32_decode_agrees_with_float64_on_converged_words(case, iterations, sigma, seed):
    q, chain_len, w, window = case
    code = _shared_code(q, chain_len, w)
    lam = _noisy_llrs(code, sigma, 0.0, np.random.default_rng(seed))
    bits, flags, _, _ = _reference_decode(code, lam, window=window, iterations=iterations,
                                          dtype=np.float64)
    if flags.all():
        res = decode(code, lam, window=window, iterations=iterations)
        assert np.array_equal(res.bits, bits)
        assert np.array_equal(res.converged, flags)


@pytest.mark.parametrize("n_zeros", [200, None])
def test_decode_raises_no_floating_point_error(n_zeros):
    # a check whose other inputs sit at the phi floor asks phi of up to
    # 14 * phi(1e-12), about 396, far past where float32 expm1 overflows
    code = build_code(16, 8, 2, seed=0)
    if n_zeros is None:
        lam = np.zeros(code.n)
    else:
        lam = _noisy_llrs(code, 0.8, 0.0, np.random.default_rng(3))
        lam[:n_zeros] = 0.0
    with np.errstate(all="raise"):
        res = decode(code, lam, saturation=60.0)
    if n_zeros is None:
        # every check of this code has 7 or more edges, so each message
        # asks phi of at least 6 * phi(1e-12), past the ceiling: no input
        # carries anything, no message does, and no position is decoded
        assert not res.posteriors.any()
        assert not res.bits.any()
        assert not res.converged.any()


def test_saturation_above_the_phi_ceiling_raises_no_floating_point_error():
    # a saturation past _PHI_CEIL leaves phi's own ceiling in force; a
    # clean word of strong LLRs asks phi of inputs near 100, where float32
    # expm1 overflows
    code = build_code(16, 8, 2, seed=0)
    x = code.encode(np.random.default_rng(6).integers(0, 2, code.k, dtype=np.uint8))
    with np.errstate(all="raise"):
        res = decode(code, 100.0 * (1.0 - 2.0 * x.astype(np.float64)), saturation=100.0)
    assert np.array_equal(res.bits, x)
    assert res.converged.all()


def _reference_gf2_solver(m):
    # plain uint8 Gauss-Jordan elimination, one byte per entry
    n_rows, n_cols = m.shape
    a = (m % 2).astype(np.uint8)
    t = np.eye(n_rows, dtype=np.uint8)
    pivots = []
    r = 0
    for col in range(n_cols):
        rows = np.flatnonzero(a[r:, col]) + r
        if len(rows) == 0:
            continue
        if rows[0] != r:
            a[[r, rows[0]]] = a[[rows[0], r]]
            t[[r, rows[0]]] = t[[rows[0], r]]
        hit = np.flatnonzero(a[:, col])
        hit = hit[hit != r]
        a[hit] ^= a[r]
        t[hit] ^= t[r]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return t, np.array(pivots, dtype=np.int64), r


@settings(max_examples=80, deadline=None)
@given(n_rows=st.integers(1, 150), n_cols=st.integers(1, 150),
       density=st.sampled_from([0.02, 0.1, 0.5]), inner=st.none() | st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(n_rows=128, n_cols=128, density=0.5, inner=None, seed=0)
@example(n_rows=65, n_cols=64, density=0.1, inner=60, seed=1)
# several panels, with a rank deficiency that crosses them
@example(n_rows=200, n_cols=260, density=0.5, inner=150, seed=2)
# sparse like the termination system, about 3 ones per row
@example(n_rows=300, n_cols=300, density=0.01, inner=None, seed=3)
def test_packed_gf2_solver_matches_plain_elimination(n_rows, n_cols, density, inner, seed):
    rng = np.random.default_rng(seed)
    if inner is None:
        m = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
    else:
        # a product through `inner` dimensions: rank at most inner
        a = (rng.random((n_rows, inner)) < density).astype(np.int64)
        b = (rng.random((inner, n_cols)) < density).astype(np.int64)
        m = ((a @ b) % 2).astype(np.uint8)
    t_words, pivots, rank = _gf2_solver(_pack_rows(m), n_cols)
    t_ref, pivots_ref, rank_ref = _reference_gf2_solver(m)
    assert rank == rank_ref
    assert np.array_equal(pivots, pivots_ref)
    assert t_words.dtype == np.uint64 and t_words.shape == (n_rows, -(-n_rows // 64))
    assert np.array_equal(_unpack_rows(t_words, n_rows), t_ref)


def _pack_rows(m):
    # rows of 0/1 entries into little-endian uint64 words, as the solver
    # takes them: column j is bit j % 64 of word j // 64
    packed = np.packbits(m, axis=1, bitorder="little")
    words = np.zeros((len(m), -(-m.shape[1] // 64) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view("<u8")


def _unpack_rows(words, n_cols):
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :n_cols]


def _dense_tail_system(q, chain_len, coupling, dc, offsets):
    # the termination system as one byte per entry, from the whole edge list
    dv = DEFAULT_DV
    var, chk = _build_edges(q, chain_len, coupling, dv, dc, offsets)
    tail = np.flatnonzero(_var_roles(q, chain_len, coupling, dv, dc) == 2)
    col = np.full(dc * q * chain_len, -1, dtype=np.int64)
    col[tail] = np.arange(len(tail))
    unknown = col[var] >= 0
    m = np.zeros((len(tail), len(tail)), dtype=np.uint8)
    np.add.at(m, (chk[unknown] - (chain_len - coupling + 1) * dv * q, col[var][unknown]), 1)
    return m % 2


@pytest.mark.parametrize("q, chain_len, coupling, dc", [
    (8, 8, 2, 15), (16, 8, 2, 15), (64, 16, 3, 15), (8, 6, 2, 6),
    (32, 12, 2, 15), (4, 3, 3, 9), (8, 2, 2, 6), (16, 5, 3, 7),
])
def test_packed_tail_system_matches_dense(q, chain_len, coupling, dc):
    rng = np.random.default_rng(q * chain_len + dc)
    for offsets in (build_code(q, chain_len, coupling, seed=2, dc=dc).offsets,
                    rng.integers(0, q, (DEFAULT_DV, dc))):
        _, chk = _build_edges(q, chain_len, coupling, DEFAULT_DV, dc, offsets)
        words = _tail_system(q, chain_len, coupling, DEFAULT_DV, dc, chk)
        m = _dense_tail_system(q, chain_len, coupling, dc, offsets)
        assert words.dtype == np.uint64 and words.shape == (len(m), -(-len(m) // 64))
        assert np.array_equal(_unpack_rows(words, len(m)), m)


def _reference_greedy_offsets(q, w, dv, dc, rng):
    # the offset search with an explicit tracker of the assigned edges,
    # pairing an edge with every assigned edge of its column in row order
    offsets = np.zeros((dv, dc), dtype=np.int64)
    seen = {}
    violations = 0
    assigned = [[False] * dc for _ in range(dv)]

    def diffs(r, c, val):
        out = []
        for r2 in range(dv):
            if r2 == r or not assigned[r2][c]:
                continue
            a, b = (r, r2) if r < r2 else (r2, r)
            da = _spread_index(a, c, w, dv, dc) - _spread_index(b, c, w, dv, dc)
            v = val if a == r else offsets[a, c]
            v2 = offsets[b, c] if a == r else val
            out.append(((a, b, da), (v - v2) % q))
        return out
    for c in range(dc):
        for r in range(dv):
            if c >= dc - dv and r == c - (dc - dv):
                cand = [0]
            else:
                cand = list(rng.permutation(q))
            chosen = None
            for v in cand:
                if all(d not in seen.get(key, ()) for key, d in diffs(r, c, v)):
                    chosen = v
                    break
            if chosen is None:
                chosen = cand[0]
                violations += 1
            offsets[r, c] = chosen
            assigned[r][c] = True
            for key, d in diffs(r, c, chosen):
                seen.setdefault(key, set()).add(d)
    return offsets, violations


@settings(max_examples=80, deadline=None)
@given(q=st.integers(2, 64), w=st.sampled_from([2, 3]), dc=st.sampled_from([6, 7, 9, 12, 15]),
       seed=st.integers(0, 2**32 - 1))
@example(q=4, w=3, dc=15, seed=0)
@example(q=64, w=3, dc=15, seed=1)
def test_offset_search_matches_the_tracker_reference(q, w, dc, seed):
    # small lifts force violations, large ones leave room; both must draw
    # and choose as the tracker version does
    got, n_bad = _greedy_offsets(q, w, DEFAULT_DV, dc, np.random.default_rng(seed))
    ref, n_ref = _reference_greedy_offsets(q, w, DEFAULT_DV, dc, np.random.default_rng(seed))
    assert np.array_equal(got, ref) and got.dtype == ref.dtype
    assert n_bad == n_ref
