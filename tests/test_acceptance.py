"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line on the live terminal so the
whole gate can be read at a glance from `pytest tests/test_acceptance.py`.
Everything runs on fixed seeds, so reruns are byte-stable.  The margins
of the stochastic checks are not all wide, though.  Rerun with only its
seed changed, criterion 8 passed at 7 of 10 seeds (80-89): each failure
came from one or two failed words of 100.  Criterion 9 passed at 3 of 8
seeds (90-97): spread and interleaved placement drifted more than
0.3 dB apart at the others.  A pass here holds at the seed shown, not
at every seed.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from relaycm.channel import (
    NOISELESS_SNR,
    DmcMatrix,
    complex_noise_unit,
    derived_rng,
    transition_matrix,
    transmit,
)
from relaycm.constellation import build_constellation, indices_for_bits
from relaycm.container import STRATEGIES, plan_container, relay_add
from relaycm.demapper import Demapper
from relaycm.gmi import (
    RelayGmiEvaluator,
    gmi_from_llrs,
    optimal_llr_scale,
    required_snr2_db,
    single_hop_gmi,
)
from relaycm.harness import main
from relaycm.scldpc import build_code, decode

pytestmark = pytest.mark.slow


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_01_identity_relay_reduction(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for name in ("qam16", "qam32"):
        c = build_constellation(name)
        ident = DmcMatrix(probs=np.eye(c.order))
        rng = np.random.default_rng(100)
        y = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        snr = 10 ** 1.1
        gap = np.max(np.abs(Demapper.equivalent(c, snr, ident).llrs(y)
                            - Demapper.conventional(c, snr).llrs(y)))
        worst = max(worst, float(gap))
    dt = time.monotonic() - t0
    ok = worst < 1e-9 and dt < 10.0
    _report(capsys, 1, ok, f"identity-relay demap gap {worst:.2e} on 1e4 points, {dt:.1f}s")


def test_criterion_02_transition_matrix_routes_agree(capsys):
    c = build_constellation("qam16")
    n = 1_000_000
    worst_sigma = 0.0
    worst_col = 0.0
    for snr_db in (8.0, 12.0, 16.0):
        snr = 10 ** (snr_db / 10)
        wa = transition_matrix(c, snr, method="analytic")
        wm = transition_matrix(c, snr, method="mc", mc_samples=n, seed=8)
        se = np.sqrt(wa.probs * (1.0 - wa.probs) / n)
        diff = np.abs(wm.probs - wa.probs)
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = diff / se
        sig[diff == 0.0] = 0.0
        worst_sigma = max(worst_sigma, float(np.max(sig)))
        worst_col = max(worst_col, float(np.max(np.abs(wm.probs.sum(axis=0) - 1.0))),
                        float(np.max(np.abs(wa.probs.sum(axis=0) - 1.0))))
    ok = worst_sigma <= 3.0 and worst_col < 1e-9
    _report(capsys, 2, ok,
            f"analytic vs mc(1e6) worst deviation {worst_sigma:.2f} binomial SE, "
            f"column sums off by {worst_col:.1e}")


def test_criterion_03_llr_scale_recovery(capsys):
    c = build_constellation("qam16")
    snr = 10 ** 1.2
    bits = derived_rng(30, 0).integers(0, 2, size=50_000 * 4, dtype=np.uint8)
    x = c.symbols[indices_for_bits(c, bits)]
    y = transmit(x, snr, complex_noise_unit(derived_rng(30, 1), len(x)))
    llrs = Demapper.conventional(c, snr).llrs(y)
    bits = bits.reshape(-1, 4)
    s1 = optimal_llr_scale(llrs, bits).scale
    s2 = optimal_llr_scale(2.0 * llrs, bits).scale
    ok = abs(s1 - 1.0) <= 0.02 and abs(s2 - 0.5) <= 0.02
    _report(capsys, 3, ok, f"matched scale {s1:.4f}, pre-doubled scale {s2:.4f}")


def test_criterion_04_rate_limits_and_oracle(capsys):
    c = build_constellation("qam16")
    full = single_hop_gmi(c, NOISELESS_SNR, 4000, seed=0).value
    zero = gmi_from_llrs(np.zeros((1000, 4)), np.zeros((1000, 4), dtype=np.uint8)).value

    snr = 10 ** 2.0
    t, w = hermgauss(40)
    sd = math.sqrt(0.5 / snr)
    noise = math.sqrt(2.0) * sd * (t[:, None] + 1j * t[None, :]).ravel()
    wt = (w[:, None] * w[None, :]).ravel() / math.pi
    dem = Demapper.conventional(c, snr)
    loss_total = 0.0
    for j in range(c.order):
        llrs = dem.llrs(c.symbols[j] + noise)
        z = (1.0 - 2.0 * c.labels[j][None, :]) * llrs
        loss_total += float(wt @ (np.logaddexp(0.0, -z) / math.log(2.0)).sum(axis=1))
    oracle = 4.0 - loss_total / c.order
    est = single_hop_gmi(c, snr, 120_000, seed=11)
    ok = (abs(full - 4.0) <= 1e-3 and zero == 0.0
          and abs(est.value - oracle) <= est.ci95)
    _report(capsys, 4, ok,
            f"noiseless {full:.5f}, zero-llr {zero:.1f}, 20dB mc {est.value:.4f} "
            f"vs quadrature {oracle:.4f} (ci {est.ci95:.4f})")


_GRID_DB = [float(v) for v in np.linspace(15.0, 24.0, 10)]


def _required_curve(variant, f, n_symbols, seed_base, tol=0.02):
    c = build_constellation("qam16")
    out = []
    for gi, snr1_db in enumerate(_GRID_DB):
        ev = RelayGmiEvaluator(c, 10 ** (snr1_db / 10), variant, n_symbols,
                               seed=seed_base + 131 * gi)
        req = required_snr2_db(
            lambda db: ev.mixture_margin(10 ** (db / 10), f, 0.8),
            lo_db=-2.0, hi_db=30.0, tol_db=tol, continuous=True,
        )
        out.append(req)
    return out


def test_criterion_05_relay_variant_ordering(capsys):
    hd = _required_curve("hd_matched", 0.0, 50_000, seed_base=700)
    sc = _required_curve("scale", 0.0, 50_000, seed_base=700)
    lg = _required_curve("hd_legacy_sopt", 0.0, 50_000, seed_base=700)
    worst_margin = min(b - a for a, b in zip(hd, sc))
    gap_ls = max(abs(a - b) for a, b in zip(lg, hd))
    ok = all(a <= b + 0.02 for a, b in zip(hd, sc)) and gap_ls <= 0.3
    _report(capsys, 5, ok,
            f"hd<=scale at all 10 points (worst margin {worst_margin:+.2f} dB), "
            f"legacy within {gap_ls:.3f} dB of matched")


def test_criterion_06_load_flattens_the_contour(capsys):
    c = build_constellation("qam16")
    curves = {0.0: [], 0.5: [], 0.9: []}
    for gi, snr1_db in enumerate(_GRID_DB):
        ev = RelayGmiEvaluator(c, 10 ** (snr1_db / 10), "hd_matched", 60_000,
                               seed=900 + 17 * gi)
        for f in curves:
            req = required_snr2_db(
                lambda db: ev.mixture_margin(10 ** (db / 10), f, 0.8),
                lo_db=-2.0, hi_db=30.0, tol_db=0.02, continuous=True,
            )
            curves[f].append(req)
    spreads = [max(curves[f]) - min(curves[f]) for f in (0.0, 0.5, 0.9)]
    ok = spreads[0] >= spreads[1] >= spreads[2]
    _report(capsys, 6, ok,
            "required-snr2 spread vs injected load: "
            + ", ".join(f"f={f:g}:{s:.3f}dB" for f, s in zip((0, 0.5, 0.9), spreads)))


def test_criterion_07_distributed_encoding_identity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(70)
    exact = True
    codes = {2: build_code(8, 8, 2, seed=3), 3: build_code(8, 9, 3, seed=3)}
    for i in range(100):
        code = codes[2 + (i // 3) % 2]
        strategy = STRATEGIES[i % 3]
        cont = plan_container(code, float(rng.uniform(0.2, 0.8)), strategy)
        us = rng.integers(0, 2, len(cont.source_slots), dtype=np.uint8)
        ur = rng.integers(0, 2, len(cont.relay_slots), dtype=np.uint8)
        cont.write_source(us)
        spliced = relay_add(cont, cont.encode(), ur)
        exact = exact and np.array_equal(spliced, code.encode(cont.payload))
    dt = time.monotonic() - t0
    ok = exact and dt < 30.0
    _report(capsys, 7, ok, f"relay splice == joint encode on 100 tuples, {dt:.1f}s")


def test_criterion_08_coded_operation_near_threshold(capsys):
    t0 = time.monotonic()
    c = build_constellation("qam16")
    code = build_code(64, 20, 2, seed=1)
    target = 4.0 * code.rate

    def gmi_margin(db):
        return single_hop_gmi(c, 10 ** (db / 10), 200_000, seed=9).value - target

    thr_db = required_snr2_db(gmi_margin, lo_db=6.0, hi_db=14.0, tol_db=0.01, continuous=True)
    op_db = thr_db + 1.5
    snr = 10 ** (op_db / 10)
    dem = Demapper.conventional(c, snr)
    errors = 0
    total = 0
    n_cw = 100
    for j in range(n_cw):
        u = derived_rng(80, j, 0).integers(0, 2, code.k, dtype=np.uint8)
        x = code.encode(u)
        sym = c.symbols[indices_for_bits(c, x)]
        z = derived_rng(80, j, 1).standard_normal((2, sym.size))
        y = sym + math.sqrt(0.5 / snr) * (z[0] + 1j * z[1])
        res = decode(code, dem.llrs(y).ravel(), window=12, iterations=40)
        errors += int(np.count_nonzero(res.bits[code.info_vars] != u))
        total += code.k
    ber = errors / total
    dt = time.monotonic() - t0
    ok = ber < 1e-5 and dt < 1200.0
    _report(capsys, 8, ok,
            f"rate {code.rate:.3f} code, threshold {thr_db:.2f} dB, ber {ber:.2e} "
            f"({errors}/{total} bits over {n_cw} words) 1.5 dB above it, {dt:.0f}s")


def test_criterion_09_strategy_ordering(capsys, tmp_path):
    ini = tmp_path / "coded.ini"
    ini.write_text(
        "[run]\nkind = coded_contour\nseed = 90\n"
        "[link]\nvariants = hd_matched\n"
        "[sweep]\nsnr1_db = 14:17:3\nf = 0.5\nsnr2_lo_db = 6\nsnr2_hi_db = 30\n"
        "[code]\nq = 64\nchain_len = 16\ncoupling = 3\nwindow = 12\n"
        "iterations = 30\nstrategies = blocked, spread_positions, interleaved\n"
        "n_codewords = 10\ntol_db = 0.1\n"
    )
    out = tmp_path / "out"
    assert main(["coded-contour", "--config", str(ini), "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads((out / "coded_record.json").read_text())
    curves = {cnt["strategy"]: [p["y"] for p in cnt["points"]]
              for cnt in record["contours"]}
    a, b, cc = curves["blocked"], curves["spread_positions"], curves["interleaved"]
    finite_bc = all(v is not None for v in b + cc)
    close_bc = finite_bc and max(abs(x - y) for x, y in zip(b, cc)) <= 0.3
    a0 = math.inf if a[0] is None else a[0]
    worse_a = finite_bc and a0 > max(b[0], cc[0]) + 0.1
    ok = close_bc and worse_a
    fmt = lambda v: "unreach" if v is None else f"{v:.2f}"
    _report(capsys, 9, ok,
            f"w=3 boundaries at snr1=[14, 15.5, 17]: blocked [{', '.join(fmt(v) for v in a)}], "
            f"spread [{', '.join(fmt(v) for v in b)}], "
            f"interleaved [{', '.join(fmt(v) for v in cc)}]")


def test_criterion_10_relay_extends_reach(capsys, tmp_path):
    ini = tmp_path / "distance.ini"
    ini.write_text(
        "[run]\nkind = distance_contour\nseed = 21\n"
        "[link]\nvariants = hd_matched\n"
        "[sweep]\nspans1 = 0:10\nf = 0.0\nn_symbols = 60000\n"
    )
    out = tmp_path / "out"
    assert main(["distance-contour", "--config", str(ini), "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads((out / "distance_record.json").read_text())
    points = record["contours"][0]["points"]
    baseline = next(p["y"] for p in points if p["x"] == 0.0)
    totals = {p["x"]: p["x"] + p["y"] for p in points if p["y"] is not None}
    best_n1, best = max(totals.items(), key=lambda kv: kv[1])
    ok = baseline is not None and best >= 1.10 * baseline
    gain = 100.0 * (best - baseline) / baseline
    _report(capsys, 10, ok,
            f"no-relay reach {baseline:.0f} spans, best {best:.0f} spans with the "
            f"relay after span {best_n1:.0f} ({gain:+.0f}%)")


def test_criterion_11_byte_identical_reruns(capsys, tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text(
        "[run]\nkind = snr_region\nseed = 2\n"
        "[link]\nvariants = hd_matched\n"
        "[sweep]\nsnr1_db = 16:20:2\nn_symbols = 3000\ntol_db = 0.2\n"
    )
    dirs = [tmp_path / n for n in ("s1", "s2", "r1", "r2")]
    assert main(["selftest", "--out", str(dirs[0])]) == 0
    assert main(["selftest", "--out", str(dirs[1])]) == 0
    assert main(["snr-region", "--config", str(ini), "--out", str(dirs[2])]) == 0
    assert main(["snr-region", "--config", str(ini), "--out", str(dirs[3])]) == 0
    capsys.readouterr()
    self_same = ((dirs[0] / "selftest.txt").read_bytes()
                 == (dirs[1] / "selftest.txt").read_bytes())
    sweep_same = all(
        (dirs[2] / name).read_bytes() == (dirs[3] / name).read_bytes()
        for name in ("region_hd_matched_f0.csv", "region.dat", "region_record.json")
    )
    ok = self_same and sweep_same
    _report(capsys, 11, ok,
            f"selftest rerun identical={self_same}, sweep rerun identical={sweep_same}")
