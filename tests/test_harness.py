import configparser
import json
import os
from pathlib import Path

import numpy as np
import pytest

from relaycm.errors import ConfigError
from relaycm.harness import (
    _SCHEMA,
    _point_seed,
    config_hash,
    emit_plotdata,
    load_config,
    main,
)


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


def test_main_error_paths(tmp_path):
    assert main(["snr-region"]) == 2
    assert main(["snr-region", "--config", str(tmp_path / "none.ini")]) == 2
    cfg = _write(tmp_path / "k.ini", "[run]\nkind = distance_contour\n")
    assert main(["snr-region", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    coded = _write(tmp_path / "c.ini",
                   "[run]\nkind = coded_contour\n[link]\nvariants = hd_legacy_sopt\n")
    assert main(["coded-contour", "--config", str(coded),
                 "--out", str(tmp_path / "o2")]) == 2


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
