import configparser
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycm import harness
from relaycm.channel import (
    complex_noise_unit,
    derived_rng,
    nearest_index,
    power_normalizing_eta,
    scale_relay_equivalent_snr,
    transition_matrix,
    transmit,
)
from relaycm.constellation import bits_for_indices, build_constellation, indices_for_bits
from relaycm.container import STRATEGIES, plan_container, relay_add, select_llrs
from relaycm.demapper import Demapper
from relaycm.errors import ConfigError, NumericalDegeneracyError
from relaycm.gmi import RelayGmiEvaluator, required_snr2_db
from relaycm.harness import (
    _SCHEMA,
    _point_seed,
    config_hash,
    emit_plotdata,
    load_config,
    main,
)
from relaycm.scldpc import decode


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_defaults_fill_missing_sections(tmp_path):
    cfg = load_config(_write(tmp_path / "a.ini", "[run]\nseed = 3\n"))
    assert cfg["run"]["seed"] == 3
    assert cfg["run"]["bus_rate_gbit"] == 250.0
    assert cfg["link"]["constellation"] == "qam16"
    assert cfg["sweep"]["rate"] == 0.8
    assert cfg["sweep"]["snr1_db"] == [float(v) for v in np.linspace(14, 23, 10)]
    assert cfg["code"]["window"] is None


def test_grid_syntax(tmp_path):
    cfg = load_config(_write(tmp_path / "a.ini", (
        "[sweep]\nsnr1_db = 10:20:5\nspans1 = 0:8:2\nf = 0.0, 0.5\n"
    )))
    assert cfg["sweep"]["snr1_db"] == [10.0, 12.5, 15.0, 17.5, 20.0]
    assert cfg["sweep"]["spans1"] == [0, 2, 4, 6, 8]
    assert cfg["sweep"]["f"] == [0.0, 0.5]
    cfg = load_config(_write(tmp_path / "b.ini", "[sweep]\nsnr1_db = 15.5,18\n"))
    assert cfg["sweep"]["snr1_db"] == [15.5, 18.0]
    # the end of an integer range is included whatever the step's sign
    cfg = load_config(_write(tmp_path / "c.ini", "[sweep]\nspans1 = 10:0:-2\n"))
    assert cfg["sweep"]["spans1"] == [10, 8, 6, 4, 2, 0]


def test_rejects_unknown_and_malformed(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "a.ini", "[nope]\nx = 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "b.ini", "[run]\nbogus = 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "c.ini", "[run]\nseed = banana\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "d.ini", "[sweep]\nsnr1_db = 1:2:0\n"))


def test_semantic_validation(tmp_path):
    bad = [
        "[run]\nkind = warp\n",
        "[link]\nconstellation = qam64\n",
        "[link]\nvariants = hd_matched, mystery\n",
        "[link]\nrelay_penalty_db = -1\n",
        "[sweep]\nrate = 0\n",
        "[sweep]\nf = 1.5\n",
        "[link]\nvariants = scale\n[sweep]\nf = 0.0, 0.5\n",
        "[sweep]\nsnr2_lo_db = 10\nsnr2_hi_db = 5\n",
        "[sweep]\ndmc_method = magic\n",
        "[code]\nstrategies = diagonal\n",
        "[code]\nn_codewords = 0\n",
        "[code]\nber_target = 0.7\n",
        "[code]\niterations = 0\n",
        "[code]\nsaturation = 0\n",
        "[code]\nsaturation = -1\n",
    ]
    for i, text in enumerate(bad):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path / f"bad{i}.ini", text))


def test_config_hash_tracks_content_not_layout(tmp_path):
    a = load_config(_write(tmp_path / "a.ini",
                           "[run]\nseed = 5\n[sweep]\nrate = 0.8\n"))
    b = load_config(_write(tmp_path / "b.ini",
                           "[sweep]\nrate = 0.8\n[run]\nseed = 5\n"))
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    int(config_hash(a), 16)
    b["run"]["seed"] = 6
    assert config_hash(a) != config_hash(b)


def test_point_seed_is_stable_and_keyed():
    assert _point_seed(1, 0, 3) == _point_seed(1, 0, 3)
    assert _point_seed(1, 0, 3) != _point_seed(1, 0, 4)
    assert _point_seed(1, 0, 3) != _point_seed(2, 0, 3)


def test_plotdata_blocks_and_missing_markers(tmp_path):
    path = tmp_path / "p.dat"
    blocks = [
        ("first", [{"x": 1.0, "y": 2.0, "gmi_at_solution": 3.0, "ci": 0.1}]),
        ("second", [{"x": 4.0, "y": None, "gmi_at_solution": None, "ci": None}]),
    ]
    emit_plotdata(path, "snr-region", "deadbeef0123", blocks)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# relaycm snr-region"
    assert lines[1] == "# config=deadbeef0123"
    assert "# index 0: first" in lines
    assert "# index 1: second" in lines
    assert "4.0 ? ? ?" in lines
    assert text.count("\n\n") >= 2

    emit_plotdata(path, "snr-region", "deadbeef0123", [])
    assert len(path.read_text().strip().splitlines()) == 3


def test_selftest_runs_twice_identically(tmp_path, capsys):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["selftest", "--out", str(out1)]) == 0
    assert main(["selftest", "--out", str(out2)]) == 0
    capsys.readouterr()
    t1 = (out1 / "selftest.txt").read_text()
    assert t1 == (out2 / "selftest.txt").read_text()
    assert all(line.startswith("PASS") for line in t1.strip().splitlines())


def test_main_error_paths(tmp_path, capsys):
    assert main(["snr-region"]) == 2
    assert main(["snr-region", "--config", str(tmp_path / "none.ini")]) == 2
    cfg = _write(tmp_path / "k.ini", "[run]\nkind = distance_contour\n")
    assert main(["snr-region", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    coded = _write(tmp_path / "c.ini",
                   "[run]\nkind = coded_contour\n[link]\nvariants = hd_legacy_sopt\n")
    assert main(["coded-contour", "--config", str(coded),
                 "--out", str(tmp_path / "o2")]) == 2
    # a negative saturation once clipped every message to it and ran a
    # whole bisection; now it stops before any output
    bad_code = _write(tmp_path / "s.ini", _SMALL_CODED + "saturation = -1\n")
    assert main(["coded-contour", "--config", str(bad_code),
                 "--out", str(tmp_path / "o3")]) == 2
    assert not list((tmp_path / "o3").iterdir())
    # a negative seed, from [run], from [code] or from --seed, once died in
    # np.random.SeedSequence with a traceback
    small = _write(tmp_path / "ok.ini", _SMALL_CODED)
    neg_run = _write(tmp_path / "r.ini", _SMALL_CODED.replace("seed = 6", "seed = -1"))
    neg_code = _write(tmp_path / "n.ini", _SMALL_CODED + "seed = -3\n")
    for ini, extra, out in ((neg_run, [], "o5"), (small, ["--seed", "-2"], "o6"),
                            (neg_code, [], "o7")):
        assert main(["coded-contour", "--config", str(ini), *extra,
                     "--out", str(tmp_path / out)]) == 2
        assert not list((tmp_path / out).iterdir())
    # the 32-cross has no analytic transition matrix, and analytic is the
    # default method
    cross = _write(tmp_path / "x.ini", "[link]\nconstellation = qam32\n"
                   "[sweep]\nsnr1_db = 17\nn_symbols = 200\n")
    assert main(["snr-region", "--config", str(cross), "--out", str(tmp_path / "o4")]) == 2
    # constellation names are exact and lower case, as build_constellation takes them
    upper = _write(tmp_path / "u.ini", "[link]\nconstellation = QAM16\n"
                   "[sweep]\nsnr1_db = 17\nn_symbols = 200\n")
    assert main(["snr-region", "--config", str(upper), "--out", str(tmp_path / "o8")]) == 2
    assert not list((tmp_path / "o8").iterdir())
    # a config path that cannot be read as text, and an output path that is
    # a file, once ended in a traceback
    capsys.readouterr()
    (tmp_path / "d.ini").mkdir()
    latin = tmp_path / "l.ini"
    latin.write_bytes(b"[run]\n# caf\xe9\nseed = 2\n")
    for ini, out in ((tmp_path / "d.ini", "o9"), (latin, "o10")):
        assert main(["snr-region", "--config", str(ini), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list((tmp_path / out).iterdir())
    taken = _write(tmp_path / "taken", "keep\n")
    assert main(["snr-region", "--config", str(small), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert taken.read_text() == "keep\n"
    # an empty sweep once wrote a CSV of no rows, or no CSV at all, and two
    # contours with one CSV name once wrote one over the other
    region = "[sweep]\nsnr1_db = 17\nn_symbols = 200\n"
    for verb, body, out in (
            ("snr-region", region + "f = 0.1, 0.1000001\n", "o11"),
            ("snr-region", region + "[link]\nvariants = hd_matched, hd_matched\n", "o12"),
            ("snr-region", region + "f =\n", "o13"),
            ("distance-contour", "[sweep]\nspans1 = 5:0\nn_symbols = 200\n", "o14")):
        ini = _write(tmp_path / f"{out}.ini", body)
        assert main([verb, "--config", str(ini), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list((tmp_path / out).iterdir())
    # an infinite snr2 bound once bisected forever, since (lo + hi) / 2
    # stays infinite; a NaN tolerance once returned the top of the bracket;
    # a distance contour once wrote lengths and rates from a span of 0 km,
    # a negative span or a negative bus rate
    dist = "[sweep]\nspans1 = 0:2\nn_symbols = 200\n"
    for verb, body, out in (
            ("snr-region", region + "snr2_lo_db = -inf\n", "o15"),
            ("snr-region", region + "snr2_hi_db = inf\n", "o16"),
            ("snr-region", region + "tol_db = nan\n", "o17"),
            ("coded-contour", _SMALL_CODED.replace("tol_db = 0.2", "tol_db = nan"), "o18"),
            ("distance-contour", dist + "[link]\nspan_km = 0\n", "o19"),
            ("distance-contour", dist + "[link]\nspan_km = -80\n", "o20"),
            ("distance-contour", dist + "[run]\nbus_rate_gbit = -250\n", "o21"),
            # a non-finite link budget once raised from math.floor in
            # LinkModel.max_spans_hop2, or wrote inf and nan lengths and rates
            ("distance-contour", dist + "[link]\nsnr_ref_db = nan\n", "o22"),
            ("distance-contour", dist + "[link]\nsnr_ref_db = inf\n", "o23"),
            ("distance-contour", dist + "[link]\nrelay_penalty_db = nan\n", "o24"),
            ("distance-contour", dist + "[link]\nspan_km = inf\n", "o25"),
            ("distance-contour", dist + "[run]\nbus_rate_gbit = inf\n", "o26")):
        ini = _write(tmp_path / f"{out}.ini", body)
        assert main([verb, "--config", str(ini), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list((tmp_path / out).iterdir())


def test_pool_starts_no_more_workers_than_points(monkeypatch):
    # the fork start method launches every worker at the first submit, so
    # a sweep of 4 points under --workers 64 would fork 64 processes
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    tasks = list(range(4))
    assert harness._run_pool(str, tasks, 64) == ["0", "1", "2", "3"]
    assert harness._run_pool(str, tasks, 2) == ["0", "1", "2", "3"]
    assert started == [len(tasks), 2]
    # one worker or one point runs in this process, with no pool at all
    assert harness._run_pool(str, tasks[:1], 64) == ["0"]
    assert harness._run_pool(str, tasks, 1) == ["0", "1", "2", "3"]
    assert started == [len(tasks), 2]


_SMALL_REGION = """
[run]
kind = snr_region
seed = 2
[link]
variants = hd_matched
[sweep]
snr1_db = 16:20:2
n_symbols = 3000
tol_db = 0.2
"""


def test_small_region_sweep_outputs(tmp_path):
    ini = _write(tmp_path / "r.ini", _SMALL_REGION)
    out = tmp_path / "out"
    assert main(["snr-region", "--config", str(ini), "--out", str(out)]) == 0
    csv = (out / "region_hd_matched_f0.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "# relaycm snr-region"
    assert lines[1] == "# config=" + config_hash(load_config(ini))
    assert any(line.startswith("# monotone=") for line in lines)
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "x,y,gmi_at_solution,ci"
    data = [line for line in lines if line and not line.startswith("#")][1:]
    assert len(data) == 2
    for line in data:
        x, y, g, ci = line.split(",")
        assert float(y) < 30.0
        assert float(g) > 0.0
    record = json.loads((out / "region_record.json").read_text())
    assert record["kind"] == "snr_region"
    assert "wall_time_s" not in record
    assert (out / "region.dat").exists()


def test_region_sweep_is_deterministic_and_seed_sensitive(tmp_path):
    ini = _write(tmp_path / "r.ini", _SMALL_REGION)
    o1, o2, o3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    assert main(["snr-region", "--config", str(ini), "--out", str(o1)]) == 0
    assert main(["snr-region", "--config", str(ini), "--out", str(o2)]) == 0
    for name in ("region_hd_matched_f0.csv", "region.dat", "region_record.json"):
        assert (o1 / name).read_bytes() == (o2 / name).read_bytes()
    assert main(["snr-region", "--config", str(ini), "--out", str(o3),
                 "--seed", "9"]) == 0
    assert (o1 / "region.dat").read_text() != (o3 / "region.dat").read_text()
    rec = json.loads((o3 / "region_record.json").read_text())
    assert rec["seed"] == 9


def test_record_flag_adds_wall_time(tmp_path):
    ini = _write(tmp_path / "r.ini", _SMALL_REGION)
    out = tmp_path / "out"
    assert main(["snr-region", "--config", str(ini), "--out", str(out),
                 "--record"]) == 0
    record = json.loads((out / "region_record.json").read_text())
    assert record["wall_time_s"] >= 0.0


_SMALL_DISTANCE = """
[run]
kind = distance_contour
seed = 4
[link]
variants = hd_matched
snr_ref_db = 22
[sweep]
spans1 = 0:2
n_symbols = 3000
tol_db = 0.2
f = 0.5
"""


def test_qam32_distance_contour_without_hd_matched_needs_no_monte_carlo(tmp_path):
    # its no-relay point demaps through a noiseless hop, whose transition
    # matrix is the identity under either method
    body = _SMALL_DISTANCE.replace("hd_matched", "hd_legacy_sopt").replace(
        "[link]", "[link]\nconstellation = qam32")
    csvs = []
    for name, extra in (("default", ""), ("mc", "dmc_method = mc\n")):
        ini = _write(tmp_path / f"{name}.ini", body + extra)
        out = tmp_path / name
        assert main(["distance-contour", "--config", str(ini), "--out", str(out)]) == 0
        lines = (out / "distance_hd_legacy_sopt_f0.5.csv").read_text().splitlines()
        csvs.append([line for line in lines if not line.startswith("# config=")])
    assert csvs[0] == csvs[1]


def test_small_distance_sweep(tmp_path):
    ini = _write(tmp_path / "d.ini", _SMALL_DISTANCE)
    out = tmp_path / "out"
    assert main(["distance-contour", "--config", str(ini), "--out", str(out)]) == 0
    csv = (out / "distance_hd_matched_f0.5.csv").read_text()
    lines = [line for line in csv.splitlines() if line and not line.startswith("#")]
    cols = lines[0].split(",")
    assert cols == ["x", "y", "gmi_at_solution", "ci", "snr1_db", "req_db",
                    "total_km", "r_source", "r_relay"]
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    assert [r["x"] for r in rows] == ["0.0", "1.0", "2.0"]
    # the no-relay row has no first hop
    assert rows[0]["snr1_db"] == ""
    for r in rows:
        assert float(r["r_source"]) == 0.5 * 250.0
        assert float(r["r_relay"]) == 0.5 * 250.0
        if r["y"]:
            want = (float(r["x"]) + float(r["y"])) * 80.0
            assert float(r["total_km"]) == pytest.approx(want)


_SMALL_CODED = """
[run]
kind = coded_contour
seed = 6
[link]
variants = hd_matched
[sweep]
snr1_db = 16:16:1
f = 0.5
[code]
q = 8
chain_len = 8
n_codewords = 2
tol_db = 0.2
"""


def test_small_coded_sweep(tmp_path):
    ini = _write(tmp_path / "c.ini", _SMALL_CODED)
    out = tmp_path / "out"
    assert main(["coded-contour", "--config", str(ini), "--out", str(out)]) == 0
    csv = (out / "coded_hd_matched_interleaved_w2_f0.5.csv").read_text()
    lines = [line for line in csv.splitlines() if line and not line.startswith("#")]
    assert lines[0] == "x,y,ber,realized_f"
    x, y, ber, rf = lines[1].split(",")
    assert float(x) == 16.0
    assert 0.0 < float(rf) < 1.0
    if y:
        assert float(ber) <= 1e-4
    record = json.loads((out / "coded_record.json").read_text())
    assert record["contours"][0]["strategy"] == "interleaved"


@pytest.mark.parametrize("verb, body", [
    ("snr-region", _SMALL_REGION),
    ("distance-contour", _SMALL_DISTANCE.replace("[link]", "[link]\nconstellation = qam32")
     + "dmc_method = mc\ndmc_samples = 4000\n"),
    # two grid points, since a single task runs without a pool
    ("coded-contour", _SMALL_CODED.replace("snr1_db = 16:16:1", "snr1_db = 16, 17")),
], ids=["region", "distance", "coded"])
def test_outputs_do_not_depend_on_worker_count(tmp_path, verb, body):
    # every point derives its own seed, so a pool changes no byte
    ini = _write(tmp_path / "w.ini", body)
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main([verb, "--config", str(ini), "--out", str(out),
                     "--workers", workers]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outs[0]) >= 3
    assert outs[0] == outs[1]


def test_degenerate_numerics_exit_3(tmp_path, monkeypatch, capsys):
    def degenerate(self, y):
        raise NumericalDegeneracyError("zero likelihood under every hypothesis")

    monkeypatch.setattr(Demapper, "llrs", degenerate)
    ini = _write(tmp_path / "r.ini", "[sweep]\nsnr1_db = 17\nn_symbols = 200\n")
    out = tmp_path / "out"
    assert main(["snr-region", "--config", str(ini), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("degenerate numerics: ")
    assert not list(out.iterdir())


def test_readme_schema_block_loads_as_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(_write(tmp_path / "schema.ini", block))
    defaults = load_config(_write(tmp_path / "empty.ini", ""))
    assert cfg["run"]["kind"] == "snr_region"
    cfg["run"]["kind"] = defaults["run"]["kind"]
    assert cfg == defaults
    # and it lists every key
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    cp.read_string(block)
    assert {sec: set(cp[sec]) for sec in cp.sections()} == {
        sec: set(keys) for sec, keys in _SCHEMA.items()}


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    # later blocks use names the earlier ones bound
    ns = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    assert 0.0 < ns["req"] < 30.0
    assert not ns["code"].syndrome(ns["word"]).any()


_TWO_VARIANT_CODED = """
[run]
kind = coded_contour
seed = 3
[link]
variants = scale, hd_matched
[sweep]
snr1_db = 14, 17
f = 0
snr2_lo_db = 4
[code]
q = 8
chain_len = 8
n_codewords = 1
tol_db = 0.3
"""


def test_coded_sweep_writes_one_csv_per_variant(tmp_path):
    ini = _write(tmp_path / "c.ini", _TWO_VARIANT_CODED)
    out = tmp_path / "out"
    assert main(["coded-contour", "--config", str(ini), "--out", str(out)]) == 0
    record = json.loads((out / "coded_record.json").read_text())
    assert [c["variant"] for c in record["contours"]] == ["scale", "hd_matched"]
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "coded_hd_matched_interleaved_w2_f0.csv", "coded_scale_interleaved_w2_f0.csv"]
    for contour in record["contours"]:
        csv = (out / f"coded_{contour['variant']}_interleaved_w2_f0.csv").read_text()
        lines = csv.splitlines()
        assert f"# variant={contour['variant']} strategy=interleaved w=2 f=0" in lines
        cols = lines[lines.index("x,y,ber,realized_f")].split(",")
        rows = [dict(zip(cols, line.split(",")))
                for line in lines[lines.index("x,y,ber,realized_f") + 1:]]
        want = [{k: "" if p[k] is None else repr(float(p[k])) for k in cols}
                for p in contour["points"]]
        assert rows == want


# The coded point as it was before its snr2-free work moved out of the
# probe loop and failing probes stopped early: every probe re-plans,
# re-encodes and decodes every word, and the row evaluates the answer
# once more.  Hop 1, the relay and hop 2 are built here by hand, so that
# this also checks the harness's relay link.
def _reference_coded_ber(t, code, c, dmc, snr1, snr2):
    """(info-bit error rate, decoding iterations) of every word decoded
    in full."""
    cc, seed, variant = t["cfg"]["code"], t["seed"], t["variant"]
    errors = iterations = 0
    for j in range(cc["n_codewords"]):
        cont = plan_container(code, t["f"], t["strategy"])
        rng_bits = derived_rng(seed, j, 0)
        us = rng_bits.integers(0, 2, size=len(cont.source_slots), dtype=np.uint8)
        ur = rng_bits.integers(0, 2, size=len(cont.relay_slots), dtype=np.uint8)
        cont.write_source(us)
        sym = c.symbols[indices_for_bits(c, cont.encode())]
        y1 = transmit(sym, snr1, complex_noise_unit(derived_rng(seed, j, 1), len(sym)))
        eta = power_normalizing_eta(snr1)
        if variant == "scale":
            relay_out = eta * y1
        else:
            idx = nearest_index(y1, c.symbols)
            if len(cont.relay_slots):
                idx = indices_for_bits(c, relay_add(cont, bits_for_indices(c, idx), ur))
            relay_out = c.symbols[idx]
        unit2 = complex_noise_unit(derived_rng(seed, j, 2), sym.size)
        y2 = relay_out + math.sqrt(1.0 / snr2) * unit2
        if variant == "scale":
            dem = Demapper.conventional(c, scale_relay_equivalent_snr(snr1, snr2))
            lam = dem.llrs(y2 / eta).ravel()
        else:
            lam = Demapper.equivalent(c, snr2, dmc).llrs(y2).ravel()
        if len(cont.relay_slots):
            lam = select_llrs(cont, lam, Demapper.conventional(c, snr2).llrs(y2).ravel())
        res = decode(code, lam, window=cc["window"], iterations=cc["iterations"],
                     saturation=cc["saturation"])
        errors += int(np.count_nonzero(res.bits[code.info_vars] != cont.payload))
        iterations += res.iterations
    return errors / (cc["n_codewords"] * code.k), iterations


def _reference_coded_point(t):
    sweep, cc = t["cfg"]["sweep"], t["cfg"]["code"]
    c = build_constellation(t["cfg"]["link"]["constellation"])
    code = harness._cached_code(cc["q"], cc["chain_len"], t["coupling"], cc["seed"])
    snr1 = 10.0 ** (t["x"] / 10.0)
    dmc = None if t["variant"] == "scale" else transition_matrix(
        c, snr1, method=sweep["dmc_method"], mc_samples=sweep["dmc_samples"], seed=t["seed"])
    cont = plan_container(code, t["f"], t["strategy"])

    def full(db):
        return _reference_coded_ber(t, code, c, dmc, snr1, 10.0 ** (db / 10.0))

    searched = []

    def margin(db):
        searched.append(db)
        return cc["ber_target"] - full(db)[0]

    req = required_snr2_db(margin, sweep["snr2_lo_db"], sweep["snr2_hi_db"], cc["tol_db"])
    row = {"x": t["x"], "realized_f": cont.realized_fraction}
    if not math.isinf(req):
        row.update(y=req, ber=full(req)[0])
    return row, full, searched


def _log_probes(m):
    """Patch harness's bisection on the MonkeyPatch m so that it logs
    every (snr2 dB, margin) probe; returns the log."""
    log = []

    def logged(margin_fn, *args, **kwargs):
        def probe(db):
            log.append((db, margin_fn(db)))
            return log[-1][1]
        return required_snr2_db(probe, *args, **kwargs)

    m.setattr(harness, "required_snr2_db", logged)
    return log


def _task(tmp_path, text, **point):
    cfg = load_config(_write(tmp_path / "p.ini", text))
    return {"index": 0, "cfg": cfg, **point}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), f=st.sampled_from([0.0, 0.2, 0.5]),
       strategy=st.sampled_from(STRATEGIES), scale=st.booleans(),
       x=st.sampled_from([12.0, 16.0]),
       ber_target=st.sampled_from([1e-4, 1e-3, 2e-2, 0.1]), n_codewords=st.integers(1, 3))
def test_coded_point_probes_once_and_keeps_its_row(tmp_path_factory, seed, f, strategy, scale,
                                                    x, ber_target, n_codewords):
    variant = "scale" if scale and f == 0.0 else "hd_matched"
    t = _task(tmp_path_factory.mktemp("coded"), f"""
[sweep]
snr2_lo_db = 4
[code]
q = 8
chain_len = 6
n_codewords = {n_codewords}
ber_target = {ber_target!r}
tol_db = 0.5
""", seed=seed, x=x, variant=variant, coupling=2, strategy=strategy, f=f)
    want, full, searched = _reference_coded_point(t)
    decodes = []

    def counted_decode(*args, **kwargs):
        res = decode(*args, **kwargs)
        # the probe log grows as each probe returns: this decode's probe
        decodes.append((len(probes), res.iterations))
        return res

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "decode", counted_decode)
        probes = _log_probes(m)
        row = harness._coded_task(t)
    assert row == want
    dbs = [db for db, _ in probes]
    assert len(set(dbs)) == len(dbs)
    # a coded point keeps plain bisection: an early exit changes no sign
    assert dbs == searched
    assert len(decodes) <= n_codewords * len(dbs)
    for i, (db, margin) in enumerate(probes):
        full_ber, full_iterations = full(db)
        iterations = sum(n for probe, n in decodes if probe == i)
        if margin >= 0.0:
            assert margin == ber_target - full_ber
            assert iterations == full_iterations
        else:
            assert ber_target - full_ber <= margin < 0.0
            assert iterations <= full_iterations


def test_hopeless_coded_probe_stops_after_the_first_position(tmp_path, monkeypatch):
    t = _task(tmp_path, """
[code]
q = 8
chain_len = 6
n_codewords = 3
""", seed=5, x=16.0, variant="hd_matched", coupling=2, strategy="interleaved", f=0.5)
    cc = t["cfg"]["code"]
    code = harness._cached_code(cc["q"], cc["chain_len"], t["coupling"], cc["seed"])
    c = build_constellation("qam16")
    snr1 = 10.0 ** 1.6
    dmc = transition_matrix(c, snr1, seed=t["seed"])
    words = harness._coded_words(t, code, c, snr1, dmc)
    bounds = np.searchsorted(code.info_vars, np.arange(code.chain_len + 1) * code.dc * code.q)
    positions, results = [], []

    def watched_decode(*args, stop, **kwargs):
        def watched(pos, bits):
            positions.append(pos)
            return stop(pos, bits)
        results.append(decode(*args, stop=watched, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "decode", watched_decode)
    ber = harness._coded_ber(t, code, words, bounds, 10.0 ** -0.2)
    assert ber > cc["ber_target"]
    # the first word's first position already breaks the target
    assert positions == [0]
    assert len(results) == 1
    assert results[0].iterations <= cc["iterations"]


def test_rate_points_evaluate_each_snr2_once(tmp_path, monkeypatch):
    probe_log = _log_probes(monkeypatch)
    evaluated = []
    mixture_rate = RelayGmiEvaluator.mixture_rate

    def counted(self, snr2, *args):
        evaluated.append(snr2)
        return mixture_rate(self, snr2, *args)

    monkeypatch.setattr(RelayGmiEvaluator, "mixture_rate", counted)
    region = _task(tmp_path, _SMALL_REGION, seed=11, x=17.0, variant="hd_legacy_sopt", f=0.5)
    row = harness._region_task(region)
    assert len(set(evaluated)) == len(evaluated) == len(probe_log)

    # the row holds what the answer's own probe measured
    cfg = region["cfg"]["sweep"]
    ev = RelayGmiEvaluator(build_constellation("qam16"), 10 ** 1.7, "hd_legacy_sopt",
                           cfg["n_symbols"], 11)
    val, ci = mixture_rate(ev, 10.0 ** (row["y"] / 10.0), 0.5, cfg["rate"])
    assert (row["gmi_at_solution"], row["ci"]) == (val, ci)

    evaluated.clear()
    probe_log.clear()
    distance = _task(tmp_path, _SMALL_DISTANCE, seed=4, x=1, variant="hd_matched", f=0.5)
    row = harness._distance_task(distance)
    assert row["y"] >= 1
    assert len(set(evaluated)) == len(evaluated) == len(probe_log)
