"""Workload definitions, metric declarations and output checks.

Each workload is one ``relaycm`` CLI sweep: a verb, a worker count and an
INI file that the benchmark writes itself.  The root seed of every run
comes from the benchmark's ``--seed`` argument and reaches the program
only as the CLI's ``--seed``.

Sizes are chosen so that one CLI invocation takes a few seconds on a
2-core machine, so a run of ``RUN_SECONDS`` holds several back-to-back
invocations and reports their median, and so that no grid point sits on
a reachability edge where the seed would change how many bisection
probes it costs.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os

# The root seed written into every INI; the reference boundaries in
# reference.json were recorded at this seed.
DEFAULT_SEED = 1

RUN_SECONDS = 35

WORKLOADS = {
    "region-qam16": {
        "verb": "snr-region",
        "workers": 1,
        "why": "demapper and LLR-scale search dominate; analytic DMC, no code, no pool",
        "ini": """\
[run]
kind = snr_region
seed = 1

[link]
constellation = qam16
variants = hd_matched, hd_legacy_sopt, scale

[sweep]
rate = 0.8
snr1_db = 17
f = 0
n_symbols = 20000
dmc_method = analytic
tol_db = 0.05
""",
    },
    "reach-qam32-mc": {
        "verb": "distance-contour",
        "workers": 2,
        "why": "Monte Carlo DMC and cross-constellation slicer; the only workload where the pool splits unequal points",
        "ini": """\
[run]
kind = distance_contour
seed = 1

[link]
constellation = qam32
variants = hd_matched
snr_ref_db = 24

[sweep]
rate = 0.8
spans1 = 0:6:2
f = 0.5
n_symbols = 10000
dmc_method = mc
dmc_samples = 50000
tol_db = 0.05
""",
    },
    "coded-sc64": {
        "verb": "coded-contour",
        "workers": 1,
        "why": "windowed SC-LDPC decoding dominates; many small demaps of one codeword each",
        "ini": """\
[run]
kind = coded_contour
seed = 1

[link]
constellation = qam16
variants = hd_matched

[sweep]
snr1_db = 16
f = 0.5
snr2_lo_db = 6
snr2_hi_db = 30
dmc_method = analytic

[code]
q = 64
chain_len = 16
coupling = 3
seed = 1
window = 12
iterations = 30
strategies = interleaved
n_codewords = 1
tol_db = 0.1
""",
    },
}

# name -> (unit, better, bound); bounds are shares of the parent's median
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# name -> (unit, better); every name is reported on every workload, as 0 where the
# layer does not run
PER_LAYER = {
    "channel.self_s": ("s", "lower"),
    "channel.dmc_s": ("s", "lower"),
    "channel.dmc_calls": ("count", "lower"),
    "channel.mc_draws": ("count", "lower"),
    "channel.slice_s": ("s", "lower"),
    "channel.slice_points": ("count", "lower"),
    "channel.slice_ns_per_point": ("ns", "lower"),
    "constellation.self_s": ("s", "lower"),
    "constellation.map_s": ("s", "lower"),
    "demapper.self_s": ("s", "lower"),
    "demapper.llrs_s": ("s", "lower"),
    "demapper.llrs_calls": ("count", "lower"),
    "demapper.points": ("count", "lower"),
    "demapper.ns_per_point": ("ns", "lower"),
    "demapper.equivalent_s": ("s", "lower"),
    "demapper.conventional_s": ("s", "lower"),
    "gmi.self_s": ("s", "lower"),
    "gmi.evaluator_setup_s": ("s", "lower"),
    "gmi.rate_s": ("s", "lower"),
    "gmi.scale_search_s": ("s", "lower"),
    "gmi.scale_search_calls": ("count", "lower"),
    "gmi.bisections": ("count", "lower"),
    "gmi.probes": ("count", "lower"),
    "gmi.probes_per_bisection": ("ratio", "lower"),
    "gmi.probe_s": ("s", "lower"),
    "gmi.reachable_frac": ("ratio", "higher"),
    "scldpc.self_s": ("s", "lower"),
    "scldpc.build_s": ("s", "lower"),
    "scldpc.encode_s": ("s", "lower"),
    "scldpc.encode_calls": ("count", "lower"),
    "scldpc.encodes_per_word": ("ratio", "lower"),
    "scldpc.decode_s": ("s", "lower"),
    "scldpc.words": ("count", "lower"),
    "scldpc.iterations": ("count", "lower"),
    "scldpc.ms_per_iteration": ("ms", "lower"),
    "scldpc.converged_word_frac": ("ratio", "higher"),
    "container.self_s": ("s", "lower"),
    "container.plan_s": ("s", "lower"),
    "container.plan_calls": ("count", "lower"),
    "container.splice_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.point_s_max": ("s", "lower"),
    "harness.pool_efficiency": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

RECORD_FILE = {
    "snr-region": "region_record.json",
    "distance-contour": "distance_record.json",
    "coded-contour": "coded_record.json",
}


def manifest() -> dict:
    """The BENCHMARK.json document for these workloads and metrics."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


def output_hashes(out_dir) -> dict:
    """sha256 of every file a sweep wrote, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def load_record(workload, out_dir) -> dict:
    with open(os.path.join(out_dir, RECORD_FILE[WORKLOADS[workload]["verb"]])) as fh:
        return json.load(fh)


def boundaries(record) -> list:
    """One (curve label, x, boundary dB or None) per grid point.

    The boundary is the bisection result: ``y`` for region and coded
    sweeps, the required second-hop snr ``req_db`` for reach sweeps, whose
    ``y`` is a span count.
    """
    key = "req_db" if record["kind"] == "distance_contour" else "y"
    out = []
    for c in record["contours"]:
        label = " ".join(f"{k}={c[k]}" for k in sorted(c) if k != "points" and k != "monotone")
        for p in c["points"]:
            y = p[key]
            if record["kind"] == "distance_contour" and p["y"] is None:
                y = None
            out.append((label, p["x"], y))
    return out


def _parse_ini(text):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(text)
    return cp


def _tolerance(workload) -> float:
    """The bisection width of the workload's boundaries, in dB."""
    cp = _parse_ini(WORKLOADS[workload]["ini"])
    sec = "code" if cp.has_option("code", "tol_db") else "sweep"
    return cp.getfloat(sec, "tol_db")


def invariant_errors(record, ini_text) -> list:
    """Domain invariants that hold at any seed; returns a list of failures."""
    cp = _parse_ini(ini_text)
    errors = []
    kind = record["kind"]
    if kind == "snr_region":
        tol = cp.getfloat("sweep", "tol_db")
        ys = {c["variant"]: [p["y"] for p in c["points"]] for c in record["contours"]}
        for i, (m, s) in enumerate(zip(ys.get("hd_matched", []), ys.get("scale", []))):
            if s is not None and (m is None or m > s + tol):
                errors.append(f"point {i}: hd_matched {m} above scale {s} + {tol}")
    elif kind == "distance_contour":
        for c in record["contours"]:
            direct = [p["total_km"] for p in c["points"] if p["x"] == 0.0]
            relayed = [p["total_km"] for p in c["points"]
                       if p["x"] > 0.0 and p["total_km"] is not None]
            if direct and direct[0] is not None and (not relayed or max(relayed) < direct[0]):
                errors.append(f"best relayed reach {max(relayed, default=None)} km "
                              f"below the no-relay reach {direct[0]} km")
    elif kind == "coded_contour":
        target = cp.getfloat("code", "ber_target", fallback=1e-4)
        for c in record["contours"]:
            for p in c["points"]:
                if p["y"] is not None and p["ber"] > target:
                    errors.append(f"x={p['x']}: BER {p['ber']} above target {target}")
    return errors


def reference_errors(workload, record, reference) -> list:
    """Compare boundaries with the committed reference at the default seed."""
    tol = _tolerance(workload)
    want = reference[workload]
    got = boundaries(record)
    if len(got) != len(want):
        return [f"{len(got)} grid points, reference has {len(want)}"]
    errors = []
    for (label, x, y), (rlabel, rx, ry) in zip(got, want):
        where = f"{label} x={x}"
        if (label, x) != (rlabel, rx):
            errors.append(f"{where}: reference point is {rlabel} x={rx}")
        elif (y is None) != (ry is None):
            errors.append(f"{where}: reachability {y is not None}, reference {ry is not None}")
        elif y is not None and abs(y - ry) > tol + 1e-9:
            errors.append(f"{where}: boundary {y} dB, reference {ry} dB, tol {tol}")
    return errors


def check_outputs(workload, out_dir, seed, reference) -> list:
    """Every failure of one sweep's outputs; empty when they are correct."""
    try:
        record = load_record(workload, out_dir)
    except (OSError, ValueError) as exc:
        return [f"no readable run record: {exc}"]
    errors = invariant_errors(record, WORKLOADS[workload]["ini"])
    if seed == DEFAULT_SEED:
        errors += reference_errors(workload, record, reference)
    return errors
