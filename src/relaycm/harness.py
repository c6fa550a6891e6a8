"""Experiment driver behind the ``relaycm`` command.

Reads an INI config, fans grid points out over a process pool, and writes
per-contour CSV files, a combined gnuplot data file, and a JSON run
record.  Outputs are deterministic for a given config and seed: every
grid point evaluates under its own derived seed, results are emitted in
grid order, and wall-clock time stays out of the record unless asked
for.  Exit codes: 0 on success, 2 for configuration problems, 3 when the
numerics degenerate.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from . import __version__
from .channel import (
    NOISELESS_SNR,
    RelayFunction,
    complex_noise_unit,
    derived_rng,
    nearest_index,
    power_normalizing_eta,
    scale_relay_equivalent_snr,
    transition_matrix,
)
from .constellation import bits_for_indices, build_constellation, indices_for_bits
from .container import STRATEGIES, plan_container, relay_add, select_llrs
from .demapper import Demapper
from .errors import ConfigError, NumericalDegeneracyError
from .gmi import HD_MATCHED, SCALE_RELAY, VARIANTS, RelayGmiEvaluator, required_snr2_db
from .scldpc import build_code, decode

KINDS = ("snr_region", "distance_contour", "coded_contour")

# section -> key -> (parser kind, default)
_SCHEMA = {
    "run": {
        "kind": ("str", ""),
        "seed": ("int", 1),
        "bus_rate_gbit": ("float", 250.0),
    },
    "link": {
        "constellation": ("str", "qam16"),
        "variants": ("strs", ["hd_matched"]),
        "snr_ref_db": ("float", 22.0),
        "span_km": ("float", 80.0),
        "relay_penalty_db": ("float", 0.0),
    },
    "sweep": {
        "rate": ("float", 0.8),
        "snr1_db": ("grid", [float(v) for v in np.linspace(14.0, 23.0, 10)]),
        "spans1": ("intgrid", list(range(0, 11))),
        "f": ("floats", [0.0]),
        "n_symbols": ("int", 100_000),
        "snr2_lo_db": ("float", -2.0),
        "snr2_hi_db": ("float", 30.0),
        "tol_db": ("float", 0.05),
        "dmc_method": ("str", "analytic"),
        "dmc_samples": ("int", 200_000),
    },
    "code": {
        "q": ("int", 32),
        "chain_len": ("int", 12),
        "coupling": ("ints", [2]),
        "seed": ("int", 1),
        "window": ("optint", None),
        "iterations": ("int", 20),
        "saturation": ("float", 25.0),
        "strategies": ("strs", ["interleaved"]),
        "n_codewords": ("int", 10),
        "ber_target": ("float", 1e-4),
        "tol_db": ("float", 0.1),
    },
}


def _parse_value(kind, raw, where):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "strs":
            return [s.strip() for s in raw.split(",") if s.strip()]
        if kind == "floats":
            return [float(s) for s in raw.split(",") if s.strip()]
        if kind == "ints":
            return [int(s) for s in raw.split(",") if s.strip()]
        if kind == "optint":
            return None if raw == "" else int(raw)
        if kind == "grid":
            # start:stop:count or a comma list
            if ":" in raw:
                a, b, n = raw.split(":")
                n = int(n)
                if n < 1:
                    raise ValueError("grid needs at least one point")
                return [float(v) for v in np.linspace(float(a), float(b), n)]
            return [float(s) for s in raw.split(",") if s.strip()]
        if kind == "intgrid":
            # start:stop[:step] inclusive, or a comma list
            if ":" in raw:
                parts = [int(p) for p in raw.split(":")]
                a, b = parts[0], parts[1]
                step = parts[2] if len(parts) > 2 else 1
                return list(range(a, b + 1, step))
            return [int(s) for s in raw.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r} ({exc})") from exc
    raise AssertionError(kind)


def load_config(path):
    """Parse and validate an INI sweep config; unknown keys are errors."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} not found")
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from exc

    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in [{sec}]")

    cfg = {}
    for sec, keys in _SCHEMA.items():
        out = {}
        for key, (kind, default) in keys.items():
            if cp.has_option(sec, key):
                out[key] = _parse_value(kind, cp.get(sec, key).strip(), f"[{sec}] {key}")
            else:
                out[key] = default
        cfg[sec] = out
    _validate(cfg)
    return cfg


def _validate(cfg):
    run, link, sweep, code = cfg["run"], cfg["link"], cfg["sweep"], cfg["code"]
    if run["kind"] and run["kind"] not in KINDS:
        raise ConfigError(f"unknown run kind {run['kind']!r}")
    if link["constellation"] not in ("qam16", "qam32"):
        raise ConfigError(f"unknown constellation {link['constellation']!r}")
    for v in link["variants"]:
        if v not in VARIANTS:
            raise ConfigError(f"unknown link variant {v!r}")
    if not link["variants"]:
        raise ConfigError("need at least one link variant")
    if link["relay_penalty_db"] < 0:
        raise ConfigError("relay penalty cannot be negative")
    if not 0.0 < sweep["rate"] <= 1.0:
        raise ConfigError("code rate must lie in (0, 1]")
    for f in sweep["f"]:
        if not 0.0 <= f <= 1.0:
            raise ConfigError(f"loading factor {f} outside [0, 1]")
    if SCALE_RELAY in link["variants"] and any(f > 0 for f in sweep["f"]):
        raise ConfigError("a scale relay cannot carry injected traffic; use f = 0")
    if sweep["tol_db"] <= 0 or code["tol_db"] <= 0:
        raise ConfigError("bisection tolerance must be positive")
    if not sweep["snr2_hi_db"] > sweep["snr2_lo_db"]:
        raise ConfigError("empty snr2 search bracket")
    if sweep["dmc_method"] not in ("analytic", "mc"):
        raise ConfigError(f"unknown transition method {sweep['dmc_method']!r}")
    for s in code["strategies"]:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown placement strategy {s!r}")
    if any(n < 0 for n in sweep["spans1"]):
        raise ConfigError("span counts cannot be negative")
    if code["n_codewords"] < 1:
        raise ConfigError("need at least one codeword per evaluation")
    if not 0.0 < code["ber_target"] < 0.5:
        raise ConfigError("error-rate target must lie in (0, 0.5)")


def config_hash(cfg) -> str:
    """Twelve hex digits over the canonical JSON form of the config.

    Key order never matters; any semantic change (including the seed)
    changes the hash.
    """
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _point_seed(root, *key) -> int:
    return int(np.random.SeedSequence(root, spawn_key=key).generate_state(1, np.uint64)[0])


def _run_pool(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks))


def _mixture_stats(ev, snr2_lin, f, rate):
    """Value and combined half-width of the mixed rate at one snr2."""
    e2 = ev.two_hop_gmi(snr2_lin)
    share = f * rate
    if share == 0.0:
        return e2.value, e2.ci95
    e1 = ev.single_hop_gmi(snr2_lin)
    val = share * e1.value + (1.0 - share) * e2.value
    ci = math.hypot(share * e1.ci95, (1.0 - share) * e2.ci95)
    return val, ci


def _region_task(a):
    c = build_constellation(a["constellation"])
    snr1 = 10.0 ** (a["snr1_db"] / 10.0)
    ev = RelayGmiEvaluator(
        c, snr1, a["variant"], a["n_symbols"], a["seed"],
        dmc_method=a["dmc_method"], dmc_samples=a["dmc_samples"],
    )
    f, rate = a["f"], a["rate"]

    def margin(db):
        return ev.mixture_margin(10.0 ** (db / 10.0), f, rate)

    req = required_snr2_db(margin, a["lo"], a["hi"], a["tol"])
    row = {"index": a["index"], "x": a["snr1_db"]}
    if math.isinf(req):
        row.update(y=None, gmi_at_solution=None, ci=None)
    else:
        val, ci = _mixture_stats(ev, 10.0 ** (req / 10.0), f, rate)
        row.update(y=req, gmi_at_solution=val, ci=ci)
    return row


def _distance_task(a):
    c = build_constellation(a["constellation"])
    n1 = a["n1"]
    if n1 == 0:
        # no relay: one uninterrupted link, rate budget all on the source
        snr1, variant, f, penalty = NOISELESS_SNR, HD_MATCHED, 0.0, 0.0
        snr1_db = None
    else:
        snr1_db = a["snr_ref_db"] - 10.0 * math.log10(n1)
        snr1 = 10.0 ** (snr1_db / 10.0)
        variant, f, penalty = a["variant"], a["f"], a["penalty_db"]
    ev = RelayGmiEvaluator(
        c, snr1, variant, a["n_symbols"], a["seed"],
        dmc_method=a["dmc_method"], dmc_samples=a["dmc_samples"],
    )
    rate = a["rate"]

    def margin(db):
        return ev.mixture_margin(10.0 ** (db / 10.0), f, rate)

    req = required_snr2_db(margin, a["lo"], a["hi"], a["tol"])
    row = {"index": a["index"], "x": float(n1), "snr1_db": snr1_db}
    if math.isinf(req):
        row.update(y=None, gmi_at_solution=None, ci=None, req_db=None)
        return row
    avail_db = a["snr_ref_db"] - penalty - req
    n2 = int(math.floor(10.0 ** (avail_db / 10.0) + 1e-9))
    if n2 < 1:
        row.update(y=None, gmi_at_solution=None, ci=None, req_db=req)
        return row
    val, ci = _mixture_stats(ev, 10.0 ** (req / 10.0), f, rate)
    row.update(y=float(n2), gmi_at_solution=val, ci=ci, req_db=req)
    return row


@lru_cache(maxsize=8)
def _cached_code(q, chain_len, coupling, seed):
    return build_code(q, chain_len, coupling, seed=seed)


def _coded_ber(a, code, dmc, c, snr2):
    """Info-bit error rate over a batch of container codewords.

    Randomness is pinned per codeword index, and second-hop noise is a
    fixed unit draw rescaled by snr2, so repeated queries during a
    bisection reuse identical bits and noise.
    """
    snr1 = 10.0 ** (a["snr1_db"] / 10.0)
    f, strategy, variant = a["f"], a["strategy"], a["variant"]
    errors = 0
    total = 0
    for j in range(a["n_codewords"]):
        cont = plan_container(code, f, strategy)
        rng_bits = derived_rng(a["seed"], j, 0)
        us = rng_bits.integers(0, 2, size=len(cont.source_slots), dtype=np.uint8)
        ur = rng_bits.integers(0, 2, size=len(cont.relay_slots), dtype=np.uint8)
        cont.write_source(us)
        x = cont.encode()
        sym = c.symbols[indices_for_bits(c, x)]
        z1 = derived_rng(a["seed"], j, 1).standard_normal((2, sym.size))
        y1 = sym + math.sqrt(0.5 / snr1) * (z1[0] + 1j * z1[1])
        unit2 = complex_noise_unit(derived_rng(a["seed"], j, 2), sym.size)

        if variant == SCALE_RELAY:
            relay_out = power_normalizing_eta(snr1) * y1
            y2 = relay_out + math.sqrt(1.0 / snr2) * unit2
            eta = power_normalizing_eta(snr1)
            dem = Demapper.conventional(c, scale_relay_equivalent_snr(snr1, snr2))
            lam = dem.llrs(y2 / eta).ravel()
        else:
            xh = bits_for_indices(c, nearest_index(y1, c.symbols))
            x2 = relay_add(cont, xh, ur) if len(cont.relay_slots) else xh
            sym2 = c.symbols[indices_for_bits(c, x2)]
            y2 = sym2 + math.sqrt(1.0 / snr2) * unit2
            lam2 = Demapper.equivalent(c, snr2, dmc).llrs(y2).ravel()
            if len(cont.relay_slots):
                lam1 = Demapper.conventional(c, snr2).llrs(y2).ravel()
                lam = select_llrs(cont, lam2, lam1)
            else:
                lam = lam2
        res = decode(code, lam, window=a["window"], iterations=a["iterations"],
                     saturation=a["saturation"])
        errors += int(np.count_nonzero(res.info_bits(code) != cont.payload))
        total += code.k
    return errors / total


def _coded_task(a):
    c = build_constellation(a["constellation"])
    code = _cached_code(a["q"], a["chain_len"], a["coupling"], a["code_seed"])
    snr1 = 10.0 ** (a["snr1_db"] / 10.0)
    if a["variant"] == SCALE_RELAY:
        dmc = None
    else:
        dmc = transition_matrix(c, snr1, RelayFunction.hard_decision(),
                                method=a["dmc_method"], mc_samples=a["dmc_samples"],
                                seed=a["seed"])
    cont = plan_container(code, a["f"], a["strategy"])

    def margin(db):
        return a["ber_target"] - _coded_ber(a, code, dmc, c, 10.0 ** (db / 10.0))

    req = required_snr2_db(margin, a["lo"], a["hi"], a["tol"])
    row = {"index": a["index"], "x": a["snr1_db"],
           "realized_f": cont.realized_fraction}
    if math.isinf(req):
        row.update(y=None, ber=None)
    else:
        row.update(y=req, ber=_coded_ber(a, code, dmc, c, 10.0 ** (req / 10.0)))
    return row


def _fmt(v):
    return "" if v is None else repr(float(v))


def _write_csv(path, kind, cfg_hash, meta, columns, rows):
    lines = [f"# relaycm {kind}", f"# config={cfg_hash}"]
    lines += [f"# {m}" for m in meta]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plotdata(path, kind, cfg_hash, blocks):
    """Write gnuplot-style indexed blocks; an empty sweep leaves only the
    header."""
    lines = [f"# relaycm {kind}", f"# config={cfg_hash}",
             "# columns: x y gmi_or_ber ci_or_blank"]
    for i, (label, rows) in enumerate(blocks):
        lines.append("")
        lines.append("")
        lines.append(f"# index {i}: {label}")
        for row in rows:
            vals = [row.get("x"), row.get("y"),
                    row.get("gmi_at_solution", row.get("ber")), row.get("ci")]
            lines.append(" ".join(_fmt(v) if v is not None else "?" for v in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _contour_monotone(rows, tol):
    ys = [r["y"] for r in rows if r["y"] is not None]
    return all(b <= a + tol for a, b in zip(ys, ys[1:]))


def _write_record(out_dir, name, record, with_time, t0):
    if with_time:
        record["wall_time_s"] = round(time.monotonic() - t0, 3)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_snr_region(cfg, out_dir, workers, with_time=False):
    t0 = time.monotonic()
    h = config_hash(cfg)
    link, sweep = cfg["link"], cfg["sweep"]
    root = cfg["run"]["seed"]
    grid = sweep["snr1_db"]
    tasks = []
    layout = []
    for vi, variant in enumerate(link["variants"]):
        for fi, f in enumerate(sweep["f"]):
            layout.append((variant, f))
            for gi, snr1_db in enumerate(grid):
                tasks.append({
                    "index": len(tasks), "variant": variant, "f": f,
                    "snr1_db": snr1_db, "rate": sweep["rate"],
                    "constellation": link["constellation"],
                    "n_symbols": sweep["n_symbols"],
                    "dmc_method": sweep["dmc_method"],
                    "dmc_samples": sweep["dmc_samples"],
                    "lo": sweep["snr2_lo_db"], "hi": sweep["snr2_hi_db"],
                    "tol": sweep["tol_db"],
                    # common random numbers across variants at one point
                    "seed": _point_seed(root, fi, gi),
                })
    results = _run_pool(_region_task, tasks, workers)
    results.sort(key=lambda r: r["index"])

    blocks = []
    contours = []
    npts = len(grid)
    for ci_, (variant, f) in enumerate(layout):
        rows = results[ci_ * npts:(ci_ + 1) * npts]
        mono = _contour_monotone(rows, sweep["tol_db"] + 1e-9)
        label = f"variant={variant} f={f:g}"
        name = f"region_{variant}_f{f:g}.csv"
        _write_csv(os.path.join(out_dir, name), "snr-region", h,
                   [label, f"rate={sweep['rate']:g}", f"monotone={'yes' if mono else 'no'}"],
                   ["x", "y", "gmi_at_solution", "ci"], rows)
        blocks.append((label, rows))
        contours.append({
            "variant": variant, "f": f, "monotone": mono,
            "points": [{k: r[k] for k in ("x", "y", "gmi_at_solution", "ci")} for r in rows],
        })
    emit_plotdata(os.path.join(out_dir, "region.dat"), "snr-region", h, blocks)
    record = {"kind": "snr_region", "config_hash": h, "version": __version__,
              "seed": root, "contours": contours}
    _write_record(out_dir, "region_record.json", record, with_time, t0)
    return record


def run_distance_contour(cfg, out_dir, workers, with_time=False):
    t0 = time.monotonic()
    h = config_hash(cfg)
    run, link, sweep = cfg["run"], cfg["link"], cfg["sweep"]
    root = run["seed"]
    spans = sweep["spans1"]
    tasks = []
    layout = []
    for vi, variant in enumerate(link["variants"]):
        for fi, f in enumerate(sweep["f"]):
            layout.append((variant, f))
            for gi, n1 in enumerate(spans):
                tasks.append({
                    "index": len(tasks), "variant": variant, "f": f, "n1": n1,
                    "rate": sweep["rate"], "constellation": link["constellation"],
                    "snr_ref_db": link["snr_ref_db"],
                    "penalty_db": link["relay_penalty_db"],
                    "n_symbols": sweep["n_symbols"],
                    "dmc_method": sweep["dmc_method"],
                    "dmc_samples": sweep["dmc_samples"],
                    "lo": sweep["snr2_lo_db"], "hi": sweep["snr2_hi_db"],
                    "tol": sweep["tol_db"],
                    "seed": _point_seed(root, fi, gi),
                })
    results = _run_pool(_distance_task, tasks, workers)
    results.sort(key=lambda r: r["index"])

    bus = run["bus_rate_gbit"]
    span_km = link["span_km"]
    blocks = []
    contours = []
    npts = len(spans)
    for ci_, (variant, f) in enumerate(layout):
        rows = results[ci_ * npts:(ci_ + 1) * npts]
        for row in rows:
            row["r_source"] = (1.0 - f) * bus
            row["r_relay"] = f * bus
            row["total_km"] = None if row["y"] is None else (row["x"] + row["y"]) * span_km
        label = f"variant={variant} f={f:g}"
        name = f"distance_{variant}_f{f:g}.csv"
        _write_csv(os.path.join(out_dir, name), "distance-contour", h,
                   [label, f"rate={sweep['rate']:g}",
                    f"bus_rate_gbit={bus:g}", f"span_km={span_km:g}"],
                   ["x", "y", "gmi_at_solution", "ci", "snr1_db", "req_db",
                    "total_km", "r_source", "r_relay"], rows)
        blocks.append((label, rows))
        keep = ("x", "y", "gmi_at_solution", "ci", "snr1_db", "req_db",
                "total_km", "r_source", "r_relay")
        contours.append({"variant": variant, "f": f,
                         "points": [{k: r.get(k) for k in keep} for r in rows]})
    emit_plotdata(os.path.join(out_dir, "distance.dat"), "distance-contour", h, blocks)
    record = {"kind": "distance_contour", "config_hash": h, "version": __version__,
              "seed": root, "contours": contours}
    _write_record(out_dir, "distance_record.json", record, with_time, t0)
    return record


def run_coded_contour(cfg, out_dir, workers, with_time=False):
    t0 = time.monotonic()
    h = config_hash(cfg)
    link, sweep, code = cfg["link"], cfg["sweep"], cfg["code"]
    for v in link["variants"]:
        if v not in (HD_MATCHED, SCALE_RELAY):
            raise ConfigError("coded sweeps support the hd_matched and scale variants")
    root = cfg["run"]["seed"]
    grid = sweep["snr1_db"]
    tasks = []
    layout = []
    for vi, variant in enumerate(link["variants"]):
        for wi, w in enumerate(code["coupling"]):
            for si, strategy in enumerate(code["strategies"]):
                for fi, f in enumerate(sweep["f"]):
                    layout.append((variant, w, strategy, f))
                    for gi, snr1_db in enumerate(grid):
                        tasks.append({
                            "index": len(tasks), "variant": variant,
                            "strategy": strategy, "f": f, "snr1_db": snr1_db,
                            "constellation": link["constellation"],
                            "q": code["q"], "chain_len": code["chain_len"],
                            "coupling": w, "code_seed": code["seed"],
                            "window": code["window"],
                            "iterations": code["iterations"],
                            "saturation": code["saturation"],
                            "n_codewords": code["n_codewords"],
                            "ber_target": code["ber_target"],
                            "dmc_method": sweep["dmc_method"],
                            "dmc_samples": sweep["dmc_samples"],
                            "lo": sweep["snr2_lo_db"], "hi": sweep["snr2_hi_db"],
                            "tol": code["tol_db"],
                            "seed": _point_seed(root, wi, fi, gi),
                        })
    results = _run_pool(_coded_task, tasks, workers)
    results.sort(key=lambda r: r["index"])

    blocks = []
    contours = []
    npts = len(grid)
    for ci_, (variant, w, strategy, f) in enumerate(layout):
        rows = results[ci_ * npts:(ci_ + 1) * npts]
        label = f"variant={variant} strategy={strategy} w={w} f={f:g}"
        name = f"coded_{strategy}_w{w}_f{f:g}.csv"
        _write_csv(os.path.join(out_dir, name), "coded-contour", h,
                   [label, f"ber_target={code['ber_target']:g}"],
                   ["x", "y", "ber", "realized_f"], rows)
        blocks.append((label, rows))
        contours.append({
            "variant": variant, "coupling": w, "strategy": strategy, "f": f,
            "points": [{k: r.get(k) for k in ("x", "y", "ber", "realized_f")}
                       for r in rows],
        })
    emit_plotdata(os.path.join(out_dir, "coded.dat"), "coded-contour", h, blocks)
    record = {"kind": "coded_contour", "config_hash": h, "version": __version__,
              "seed": root, "contours": contours}
    _write_record(out_dir, "coded_record.json", record, with_time, t0)
    return record


def run_selftest(out_dir):
    """Quick deterministic end-to-end checks; returns True when all pass."""
    lines = []
    ok = True

    def check(name, good, detail):
        nonlocal ok
        ok = ok and good
        lines.append(f"{'PASS' if good else 'FAIL'} {name} {detail}")

    from .constellation import packaged_table

    c16 = build_constellation("qam16")
    c32 = build_constellation("qam32")
    tables_ok = (c16.to_table() == packaged_table("qam16_gray.txt")
                 and c32.to_table() == packaged_table("qam32_gmi32.txt"))
    t16 = hashlib.sha256(c16.to_table().encode()).hexdigest()[:8]
    t32 = hashlib.sha256(c32.to_table().encode()).hexdigest()[:8]
    check("tables", tables_ok, f"{t16} {t32}")

    rng = np.random.default_rng(11)
    y = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * 0.6
    ident = transition_matrix(c16, NOISELESS_SNR, RelayFunction.hard_decision())
    d_eq = Demapper.equivalent(c16, 10 ** 1.2, ident)
    d_cv = Demapper.conventional(c16, 10 ** 1.2)
    gap = float(np.max(np.abs(d_eq.llrs(y) - d_cv.llrs(y))))
    check("identity-relay", gap < 1e-9, f"max_gap={gap:.3e}")

    dmc = transition_matrix(c16, 10 ** 0.8, RelayFunction.hard_decision())
    col = float(np.max(np.abs(dmc.probs.sum(axis=0) - 1.0)))
    check("transition-columns", col < 1e-9,
          hashlib.sha256(dmc.probs.tobytes()).hexdigest()[:8])

    from .gmi import single_hop_gmi
    est = single_hop_gmi(c16, 10 ** 1.2, 20_000, seed=7)
    check("single-hop-rate", 0.0 < est.value < 4.0, f"{est.value:.6f}")

    from .scldpc import build_code as _bc, decode as _dec
    code = _bc(8, 8, 2, seed=3)
    u = np.random.default_rng(5).integers(0, 2, code.k, dtype=np.uint8)
    x = code.encode(u)
    syn = int(code.syndrome(x).sum())
    res = _dec(code, (1.0 - 2.0 * x) * 6.0)
    clean = syn == 0 and bool(res.converged.all()) and np.array_equal(res.bits, x)
    check("code-roundtrip", clean, f"n={code.n} k={code.k} rate={code.rate:.4f}")

    good = True
    for strat in STRATEGIES:
        cont = plan_container(code, 0.4, strat)
        rs = np.random.default_rng(6)
        us = rs.integers(0, 2, len(cont.source_slots), dtype=np.uint8)
        ur = rs.integers(0, 2, len(cont.relay_slots), dtype=np.uint8)
        cont.write_source(us)
        x_src = cont.encode()
        merged = relay_add(cont, x_src, ur)
        good = good and np.array_equal(merged, code.encode(cont.payload))
    check("container-splice", good, "3 strategies")

    from .demapper import piecewise_linear_fit
    fit = piecewise_linear_fit(lambda t: 2.5 * t + 1.0, 2)
    check("pwl-fit", fit.max_error < 1e-9, f"err={fit.max_error:.3e}")

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir:
        with open(os.path.join(out_dir, "selftest.txt"), "w") as fh:
            fh.write(text)
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="relaycm",
        description="Sweep driver for relay-span coded modulation studies.",
    )
    p.add_argument("verb", choices=["snr-region", "distance-contour",
                                    "coded-contour", "selftest"])
    p.add_argument("--config", help="INI sweep description")
    p.add_argument("--seed", type=int, help="override the configured root seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--record", action="store_true",
                   help="include wall time in the run record")
    args = p.parse_args(argv)

    try:
        os.makedirs(args.out, exist_ok=True)
        if args.verb == "selftest":
            return 0 if run_selftest(args.out) else 1
        if not args.config:
            raise ConfigError(f"{args.verb} needs --config")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        kind = args.verb.replace("-", "_")
        if cfg["run"]["kind"] and cfg["run"]["kind"] != kind:
            raise ConfigError(
                f"config is for {cfg['run']['kind']}, but verb is {args.verb}")
        runner = {"snr_region": run_snr_region,
                  "distance_contour": run_distance_contour,
                  "coded_contour": run_coded_contour}[kind]
        runner(cfg, args.out, args.workers, with_time=args.record)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"degenerate numerics: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
