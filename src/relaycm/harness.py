"""Experiment driver behind the ``relaycm`` command.

Reads an INI config, fans grid points out over a process pool, and writes
per-contour CSV files, a combined gnuplot data file, and a JSON run
record.  Outputs are deterministic for a given config and seed: every
grid point evaluates under its own seed, which the worker that runs it
derives from the root seed and the point's grid key, results are
emitted in grid order, and wall-clock time stays out of the record
unless asked for.  Exit codes: 0 on success, 2 for configuration
problems, 3 when the numerics degenerate.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import os
import sys
import time
from functools import lru_cache, partial

import numpy as np

from . import __version__
from .channel import (
    ANALYTIC,
    MONTE_CARLO,
    NOISELESS_SNR,
    LinkModel,
    derived_rng,
    nearest_index,  # unused here; perfbench/spans.py wraps harness.nearest_index
    transition_matrix,
)
from .constellation import (
    TABLES,
    bits_for_indices,
    build_constellation,
    indices_for_bits,
    packaged_table,
)
from .container import STRATEGIES, plan_container, relay_add, select_llrs
from .demapper import Demapper, piecewise_linear_fit
from .errors import ConfigError, NumericalDegeneracyError
from .gmi import (
    HD_MATCHED,
    SCALE_RELAY,
    VARIANTS,
    RelayGmiEvaluator,
    RelayLink,
    decodability_margin,
    required_snr2_db,
    single_hop_gmi,
)
from .scldpc import build_code, decode


def _items(cast):
    """Parser of a comma list; blank items are skipped."""
    return lambda raw: [cast(s) for s in raw.split(",") if s.strip()]


def _grid(raw):
    # start:stop:count or a comma list
    if ":" not in raw:
        return _items(float)(raw)
    a, b, n = raw.split(":")
    if int(n) < 1:
        raise ValueError("grid needs at least one point")
    return [float(v) for v in np.linspace(float(a), float(b), int(n))]


def _intgrid(raw):
    # start:stop[:step], stop included whatever the step's sign, or a comma list
    if ":" not in raw:
        return _items(int)(raw)
    parts = [int(p) for p in raw.split(":")]
    step = parts[2] if len(parts) > 2 else 1
    return list(range(parts[0], parts[1] + (1 if step > 0 else -1), step))


# section -> key -> (parser, default); a parser raises ValueError on bad text
_SCHEMA = {
    "run": {
        "kind": (str, ""),
        "seed": (int, 1),
        "bus_rate_gbit": (float, 250.0),
    },
    "link": {
        "constellation": (str, "qam16"),
        "variants": (_items(str.strip), ["hd_matched"]),
        "snr_ref_db": (float, 22.0),
        "span_km": (float, 80.0),
        "relay_penalty_db": (float, 0.0),
    },
    "sweep": {
        "rate": (float, 0.8),
        "snr1_db": (_grid, [float(v) for v in np.linspace(14.0, 23.0, 10)]),
        "spans1": (_intgrid, list(range(0, 11))),
        "f": (_items(float), [0.0]),
        "n_symbols": (int, 100_000),
        "snr2_lo_db": (float, -2.0),
        "snr2_hi_db": (float, 30.0),
        "tol_db": (float, 0.05),
        "dmc_method": (str, "analytic"),
        "dmc_samples": (int, 200_000),
    },
    "code": {
        "q": (int, 32),
        "chain_len": (int, 12),
        "coupling": (_items(int), [2]),
        "seed": (int, 1),
        "window": (lambda raw: int(raw) if raw else None, None),
        "iterations": (int, 20),
        "saturation": (float, 25.0),
        "strategies": (_items(str.strip), ["interleaved"]),
        "n_codewords": (int, 10),
        "ber_target": (float, 1e-4),
        "tol_db": (float, 0.1),
    },
}


def load_config(path):
    """Parse and validate an INI sweep config; unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {path!r} not found") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
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
        for key, (parse, default) in keys.items():
            if not cp.has_option(sec, key):
                out[key] = default
                continue
            raw = cp.get(sec, key).strip()
            try:
                out[key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{sec}] {key}: {raw!r} ({exc})") from exc
        cfg[sec] = out
    _validate(cfg)
    return cfg


def _validate(cfg):
    run, link, sweep, code = cfg["run"], cfg["link"], cfg["sweep"], cfg["code"]
    if run["kind"] and run["kind"] not in _SWEEPS:
        raise ConfigError(f"unknown run kind {run['kind']!r}")
    if run["seed"] < 0 or code["seed"] < 0:
        raise ConfigError("seeds cannot be negative")
    if link["constellation"] not in TABLES:
        raise ConfigError(f"unknown constellation {link['constellation']!r}")
    for v in link["variants"]:
        if v not in VARIANTS:
            raise ConfigError(f"unknown link variant {v!r}")
    if not link["variants"]:
        raise ConfigError("need at least one link variant")
    budget = (link["snr_ref_db"], link["relay_penalty_db"], link["span_km"], run["bus_rate_gbit"])
    if not all(map(math.isfinite, budget)):
        raise ConfigError("link budget values must be finite")
    if not link["relay_penalty_db"] >= 0:
        raise ConfigError("relay penalty cannot be negative")
    if not 0.0 < sweep["rate"] <= 1.0:
        raise ConfigError("code rate must lie in (0, 1]")
    for f in sweep["f"]:
        if not 0.0 <= f <= 1.0:
            raise ConfigError(f"loading factor {f} outside [0, 1]")
    if SCALE_RELAY in link["variants"] and any(f > 0 for f in sweep["f"]):
        raise ConfigError("a scale relay cannot carry injected traffic; use f = 0")
    if not (sweep["tol_db"] > 0 and code["tol_db"] > 0):
        raise ConfigError("bisection tolerance must be positive")
    lo, hi = sweep["snr2_lo_db"], sweep["snr2_hi_db"]
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ConfigError("the snr2 search bracket must be finite and not empty")
    if not (link["span_km"] > 0 and run["bus_rate_gbit"] > 0):
        raise ConfigError("span length and bus rate must be positive")
    if sweep["dmc_method"] not in (ANALYTIC, MONTE_CARLO):
        raise ConfigError(f"unknown transition method {sweep['dmc_method']!r}")
    for s in code["strategies"]:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown placement strategy {s!r}")
    if any(n < 0 for n in sweep["spans1"]):
        raise ConfigError("span counts cannot be negative")
    if code["n_codewords"] < 1:
        raise ConfigError("need at least one codeword per evaluation")
    if code["iterations"] < 1:
        raise ConfigError("the decoder needs at least one iteration")
    if not code["saturation"] > 0:
        raise ConfigError("decoder saturation must be positive")
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


def _seeded(task, t):
    # in the worker: a pooled sweep's parent then never loads numpy.random
    return task(dict(t, seed=_point_seed(*t["seed_key"])))


def _run_pool(fn, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # deferred: one worker needs no pool

    # the pool forks all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
        return list(ex.map(fn, tasks))


def _required_snr2(cfg, snr1, variant, f, seed):
    """Smallest snr2 (dB) of one grid point at which its mixed rate
    carries the code rate (inf when none does), and the probes of its
    search as {snr2 dB: (rate, ci95)}; the answer is always one of them."""
    sweep = cfg["sweep"]
    c = build_constellation(cfg["link"]["constellation"])
    ev = RelayGmiEvaluator(c, snr1, variant, sweep["n_symbols"], seed,
                           dmc_method=sweep["dmc_method"], dmc_samples=sweep["dmc_samples"])
    probes = {}

    def margin(db):
        probes[db] = ev.mixture_rate(10.0 ** (db / 10.0), f, sweep["rate"])
        return decodability_margin(c, probes[db][0], sweep["rate"])

    req = required_snr2_db(margin, sweep["snr2_lo_db"], sweep["snr2_hi_db"], sweep["tol_db"],
                           continuous=True)
    return req, probes


def _region_task(t):
    req, probes = _required_snr2(t["cfg"], 10.0 ** (t["x"] / 10.0), t["variant"], t["f"],
                                 t["seed"])
    row = {"x": t["x"]}
    if not math.isinf(req):
        val, ci = probes[req]
        row.update(y=req, gmi_at_solution=val, ci=ci)
    return row


def _distance_task(t):
    cfg, f = t["cfg"], t["f"]
    link, bus = cfg["link"], cfg["run"]["bus_rate_gbit"]
    budget = LinkModel(link["snr_ref_db"], link["span_km"], link["relay_penalty_db"],
                       spans_hop1=t["x"])
    snr1_db = budget.hop1_snr_db()
    row = {"x": float(t["x"]), "snr1_db": snr1_db,
           "r_source": (1.0 - f) * bus, "r_relay": f * bus}
    if snr1_db is None:
        # no relay: one uninterrupted link, rate budget all on the source
        snr1, variant, f = NOISELESS_SNR, HD_MATCHED, 0.0
    else:
        snr1, variant = 10.0 ** (snr1_db / 10.0), t["variant"]
    req, probes = _required_snr2(cfg, snr1, variant, f, t["seed"])
    if math.isinf(req):
        return row
    row["req_db"] = req
    n2 = budget.max_spans_hop2(req)
    if n2 >= 1:
        val, ci = probes[req]
        row.update(y=float(n2), gmi_at_solution=val, ci=ci,
                   total_km=(row["x"] + float(n2)) * budget.span_length_km)
    return row


@lru_cache(maxsize=8)
def _cached_code(q, chain_len, coupling, seed):
    return build_code(q, chain_len, coupling, seed=seed)


def _coded_words(t, code, c, snr1, dmc):
    """What every bisection probe of a coded point shares, as one
    (container, link) pair per codeword.  The container holds the payload
    and slots.  The RelayLink carries the encoded word over both hops,
    the relay splicing its own bits into the relay slots, and holds the
    hop-2 noise that each probe rescales to its snr2.

    Codeword j draws its bits from derived_rng(seed, j, 0) and its link
    is keyed (seed, j), so repeated probes see identical bits and noise.
    """
    seed = t["seed"]
    words = []
    for j in range(t["cfg"]["code"]["n_codewords"]):
        cont = plan_container(code, t["f"], t["strategy"])
        rng_bits = derived_rng(seed, j, 0)
        us = rng_bits.integers(0, 2, size=len(cont.source_slots), dtype=np.uint8)
        ur = rng_bits.integers(0, 2, size=len(cont.relay_slots), dtype=np.uint8)
        cont.write_source(us)
        sym = c.symbols[indices_for_bits(c, cont.encode())]
        splice = None
        if len(cont.relay_slots):
            def splice(idx):
                return indices_for_bits(c, relay_add(cont, bits_for_indices(c, idx), ur))
        words.append((cont, RelayLink(c, sym, snr1, t["variant"], (seed, j), dmc, splice)))
    return words


def _coded_ber(t, code, words, bounds, snr2):
    """Info-bit error rate of the words of _coded_words at snr2.

    bounds splits code.info_vars by position: those of position p are
    info_vars[bounds[p]:bounds[p + 1]].  Decoding counts the errors of
    each position as the decoder commits it and stops, mid-word, at the
    first position where the errors so far put the rate above
    ber_target: the margin cannot recover from there, and the bisection
    reads only its sign.  A failing probe thus returns a lower bound; a
    passing one always decodes every word in full, and its count is the
    same integer a whole-word count gives.
    """
    cc = t["cfg"]["code"]
    total = cc["n_codewords"] * code.k
    errors = 0
    for cont, link in words:
        y2 = link.receive(snr2)
        lam = link.llrs(y2, snr2).ravel()
        if len(cont.relay_slots):
            # relay-injected positions only crossed hop 2
            lam = select_llrs(cont, lam, Demapper.conventional(link.c, snr2).llrs(y2).ravel())

        def failed(pos, bits):
            nonlocal errors
            lo, hi = bounds[pos], bounds[pos + 1]
            errors += int(np.count_nonzero(bits[code.info_vars[lo:hi]] != cont.payload[lo:hi]))
            return cc["ber_target"] - errors / total < 0

        decode(code, lam, window=cc["window"], iterations=cc["iterations"],
               saturation=cc["saturation"], stop=failed)
        if cc["ber_target"] - errors / total < 0:
            break
    return errors / total


def _coded_task(t):
    sweep, cc = t["cfg"]["sweep"], t["cfg"]["code"]
    c = build_constellation(t["cfg"]["link"]["constellation"])
    code = _cached_code(cc["q"], cc["chain_len"], t["coupling"], cc["seed"])
    snr1 = 10.0 ** (t["x"] / 10.0)
    dmc = None if t["variant"] != HD_MATCHED else transition_matrix(
        c, snr1, method=sweep["dmc_method"], mc_samples=sweep["dmc_samples"], seed=t["seed"])
    words = _coded_words(t, code, c, snr1, dmc)
    bounds = np.searchsorted(code.info_vars, np.arange(code.chain_len + 1) * code.dc * code.q)
    bers = {}

    def margin(db):
        bers[db] = _coded_ber(t, code, words, bounds, 10.0 ** (db / 10.0))
        return cc["ber_target"] - bers[db]

    # bisection, not the continuous search: the BER moves in steps, and a
    # failing probe's early exit leaves only a lower bound on it
    req = required_snr2_db(margin, sweep["snr2_lo_db"], sweep["snr2_hi_db"], cc["tol_db"])
    row = {"x": t["x"], "realized_f": words[0][0].realized_fraction}
    if not math.isinf(req):
        row.update(y=req, ber=bers[req])
    return row


# Per sweep kind: output file stem and title, the [sweep] key of the grid,
# the contour axes as (name, section, key) in nesting order, the axes
# whose index joins the grid index in a point's seed, and per contour the
# CSV name, label, further header lines and columns.
_SWEEPS = {
    "snr_region": {
        "stem": "region", "title": "snr-region", "grid": "snr1_db",
        "axes": (("variant", "link", "variants"), ("f", "sweep", "f")),
        "seed_axes": ("f",),
        "csv": "region_{variant}_f{f:g}.csv",
        "label": "variant={variant} f={f:g}",
        "header": ("rate={sweep[rate]:g}",),
        "monotone": True,
        "columns": ("x", "y", "gmi_at_solution", "ci"),
    },
    "distance_contour": {
        "stem": "distance", "title": "distance-contour", "grid": "spans1",
        "axes": (("variant", "link", "variants"), ("f", "sweep", "f")),
        "seed_axes": ("f",),
        "csv": "distance_{variant}_f{f:g}.csv",
        "label": "variant={variant} f={f:g}",
        "header": ("rate={sweep[rate]:g}", "bus_rate_gbit={run[bus_rate_gbit]:g}",
                   "span_km={link[span_km]:g}"),
        "columns": ("x", "y", "gmi_at_solution", "ci", "snr1_db", "req_db",
                    "total_km", "r_source", "r_relay"),
    },
    "coded_contour": {
        "stem": "coded", "title": "coded-contour", "grid": "snr1_db",
        "axes": (("variant", "link", "variants"), ("coupling", "code", "coupling"),
                 ("strategy", "code", "strategies"), ("f", "sweep", "f")),
        "seed_axes": ("coupling", "f"),
        "csv": "coded_{variant}_{strategy}_w{coupling}_f{f:g}.csv",
        "label": "variant={variant} strategy={strategy} w={coupling} f={f:g}",
        "header": ("ber_target={code[ber_target]:g}",),
        "columns": ("x", "y", "ber", "realized_f"),
    },
}


def _fmt(v):
    return "" if v is None else repr(float(v))


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plotdata(path, kind, cfg_hash, blocks):
    """Write gnuplot-style indexed blocks; an empty sweep leaves only the
    header."""
    lines = [f"# relaycm {kind}", f"# config={cfg_hash}",
             "# columns: x y gmi_or_ber ci_or_blank"]
    for i, (label, rows) in enumerate(blocks):
        lines += ["", "", f"# index {i}: {label}"]
        for row in rows:
            vals = [row.get("x"), row.get("y"),
                    row.get("gmi_at_solution", row.get("ber")), row.get("ci")]
            lines.append(" ".join(_fmt(v) if v is not None else "?" for v in vals))
    _write_lines(path, lines)


def _sweep(kind, task, cfg, out_dir, workers, with_time):
    """Evaluate every (contour, grid point) of a sweep over the pool and
    write one CSV per contour, the gnuplot data file and the run record."""
    t0 = time.monotonic()
    spec = _SWEEPS[kind]
    h = config_hash(cfg)
    root = cfg["run"]["seed"]
    grid = cfg["sweep"][spec["grid"]]
    names = [name for name, _, _ in spec["axes"]]
    contours = []
    tasks = []
    for combo in itertools.product(*(enumerate(cfg[sec][key]) for _, sec, key in spec["axes"])):
        contour = {name: v for name, (_, v) in zip(names, combo)}
        key = [i for name, (i, _) in zip(names, combo) if name in spec["seed_axes"]]
        contours.append(contour)
        for gi, x in enumerate(grid):
            # the seed leaves the variant out: common random numbers across
            # variants; "index" names the point to a tracer (perfbench/spans.py)
            tasks.append({"index": len(tasks), "seed_key": (root, *key, gi),
                          "cfg": cfg, "x": x, **contour})
    csvs = [spec["csv"].format(**contour) for contour in contours]
    if not tasks:
        raise ConfigError(f"the {spec['title']} sweep has no grid points or no contours")
    if len(set(csvs)) < len(csvs):
        raise ConfigError(f"two contours would both write {max(csvs, key=csvs.count)}")
    results = _run_pool(partial(_seeded, task), tasks, workers)

    cols = spec["columns"]
    blocks = []
    for i, contour in enumerate(contours):
        rows = results[i * len(grid):(i + 1) * len(grid)]
        label = spec["label"].format(**contour)
        header = [label] + [line.format(**cfg) for line in spec["header"]]
        if spec.get("monotone"):
            ys = [r["y"] for r in rows if r.get("y") is not None]
            tol = cfg["sweep"]["tol_db"] + 1e-9
            contour["monotone"] = all(b <= a + tol for a, b in zip(ys, ys[1:]))
            header.append(f"monotone={'yes' if contour['monotone'] else 'no'}")
        lines = [f"# relaycm {spec['title']}", f"# config={h}", *(f"# {m}" for m in header),
                 ",".join(cols), *(",".join(_fmt(r.get(k)) for k in cols) for r in rows)]
        _write_lines(os.path.join(out_dir, csvs[i]), lines)
        blocks.append((label, rows))
        contour["points"] = [{k: r.get(k) for k in cols} for r in rows]
    emit_plotdata(os.path.join(out_dir, f"{spec['stem']}.dat"), spec["title"], h, blocks)
    record = {"kind": kind, "config_hash": h, "version": __version__,
              "seed": root, "contours": contours}
    if with_time:
        record["wall_time_s"] = round(time.monotonic() - t0, 3)
    _write_lines(os.path.join(out_dir, f"{spec['stem']}_record.json"),
                 [json.dumps(record, sort_keys=True, indent=2)])
    return record


def run_snr_region(cfg, out_dir, workers, with_time=False):
    return _sweep("snr_region", _region_task, cfg, out_dir, workers, with_time)


def run_distance_contour(cfg, out_dir, workers, with_time=False):
    return _sweep("distance_contour", _distance_task, cfg, out_dir, workers, with_time)


def run_coded_contour(cfg, out_dir, workers, with_time=False):
    if not set(cfg["link"]["variants"]) <= {HD_MATCHED, SCALE_RELAY}:
        raise ConfigError("coded sweeps support the hd_matched and scale variants")
    return _sweep("coded_contour", _coded_task, cfg, out_dir, workers, with_time)


def run_selftest(out_dir):
    """Quick deterministic end-to-end checks; returns True when all pass."""
    lines = []
    ok = True

    def check(name, good, detail):
        nonlocal ok
        ok = ok and good
        lines.append(f"{'PASS' if good else 'FAIL'} {name} {detail}")

    c16 = build_constellation("qam16")
    c32 = build_constellation("qam32")
    tables_ok = (c16.to_table() == packaged_table("qam16_gray.txt")
                 and c32.to_table() == packaged_table("qam32_gmi32.txt"))
    t16 = hashlib.sha256(c16.to_table().encode()).hexdigest()[:8]
    t32 = hashlib.sha256(c32.to_table().encode()).hexdigest()[:8]
    check("tables", tables_ok, f"{t16} {t32}")

    rng = np.random.default_rng(11)
    y = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * 0.6
    ident = transition_matrix(c16, NOISELESS_SNR)
    d_eq = Demapper.equivalent(c16, 10 ** 1.2, ident)
    d_cv = Demapper.conventional(c16, 10 ** 1.2)
    gap = float(np.max(np.abs(d_eq.llrs(y) - d_cv.llrs(y))))
    check("identity-relay", gap < 1e-9, f"max_gap={gap:.3e}")

    dmc = transition_matrix(c16, 10 ** 0.8)
    col = float(np.max(np.abs(dmc.probs.sum(axis=0) - 1.0)))
    check("transition-columns", col < 1e-9,
          hashlib.sha256(dmc.probs.tobytes()).hexdigest()[:8])

    est = single_hop_gmi(c16, 10 ** 1.2, 20_000, seed=7)
    check("single-hop-rate", 0.0 < est.value < 4.0, f"{est.value:.6f}")

    code = build_code(8, 8, 2, seed=3)
    u = np.random.default_rng(5).integers(0, 2, code.k, dtype=np.uint8)
    x = code.encode(u)
    syn = int(code.syndrome(x).sum())
    res = decode(code, (1.0 - 2.0 * x) * 6.0)
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
    p.add_argument("verb", choices=[k.replace("_", "-") for k in _SWEEPS] + ["selftest"])
    p.add_argument("--config", help="INI sweep description")
    p.add_argument("--seed", type=int, help="override the configured root seed")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--record", action="store_true",
                   help="include wall time in the run record")
    args = p.parse_args(argv)

    try:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {args.out!r}: {exc}") from exc
        if args.verb == "selftest":
            return 0 if run_selftest(args.out) else 1
        if not args.config:
            raise ConfigError(f"{args.verb} needs --config")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
            _validate(cfg)
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
