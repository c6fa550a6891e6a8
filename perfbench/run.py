"""Benchmark of the ``relaycm`` CLI sweeps, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload region-qam16 --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --all              # every workload, writes the baseline
    python3 perfbench/run.py --write-reference  # re-record reference.json

``--trace 0`` is a closed loop with one client: fresh ``python -m
relaycm.harness`` processes run back to back for ``--seconds``, after a
few set-up probes, and the median of each end-to-end metric is reported.
``--trace 1`` runs the same sweep in this process, once untraced and once
with every layer wrapped (see spans.py), and reports per-layer metrics.
Every sweep's outputs are checked, and all sweeps of one run must write
byte-identical files.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

# Pinned before numpy loads here or in any child, so that workers x BLAS
# threads never exceeds the cores; parallelism comes only from --workers.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    boundaries,
    check_outputs,
    load_record,
    manifest,
    output_hashes,
)

SETUP_REPS = 5
MIN_INVOCATIONS = 3

SETUP_SNIPPET = """\
import sys
from relaycm.harness import load_config
cfg = load_config(sys.argv[1])
if cfg["run"]["kind"] == "coded_contour":
    from relaycm.scldpc import build_code
    c = cfg["code"]
    build_code(c["q"], c["chain_len"], c["coupling"][0], seed=c["seed"])
"""

FACTS_SNIPPET = """\
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}))
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_facts():
    """Versions as a child sees them, read in a child so that this process
    stays small (see _spawn)."""
    facts = json.loads(subprocess.run([sys.executable, "-c", FACTS_SNIPPET], env=_child_env(),
                                      capture_output=True, text=True, check=True).stdout)
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    facts.update(nproc=len(os.sched_getaffinity(0)), cpu_model=model,
                 openblas_num_threads=os.environ["OPENBLAS_NUM_THREADS"])
    return facts


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _spawn(argv, log_path):
    """Run one child to completion; returns (wall s, exit code, peak RSS MB).

    The RSS is ``ru_maxrss`` of the child's ``wait4`` rusage, which also
    covers the descendants it waited for (the sweep's pool workers).  Linux
    folds the peak of the address space the child had before ``exec`` into
    it, which is this process's when the child is spawned with vfork, so
    untraced runs keep this process free of numpy and relaycm.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                             stdout=subprocess.DEVNULL, stderr=log)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss / 1024.0


def _last_line(path):
    with open(path, errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_reference():
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)


def _cli(name, ini, out, seed, workers):
    w = WORKLOADS[name]
    return [sys.executable, "-m", "relaycm.harness", w["verb"], "--config", str(ini),
            "--out", str(out), "--workers", str(workers), "--seed", str(seed)]


class Run:
    """Scratch space and failure accounting of one benchmark run."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        base = ROOT / ".perfbench"
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
        self.ini = self.dir / "sweep.ini"
        self.ini.write_text(WORKLOADS[name]["ini"])
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.hashes = None
        self.errors = []

    def out_dir(self, tag):
        path = self.dir / tag
        path.mkdir()
        return path

    def check(self, tag, out, rc):
        """Count one sweep; it fails on a nonzero exit, a failed output
        check, or outputs that differ from the run's first sweep."""
        self.attempted += 1
        if rc:
            errors = [f"exit code {rc}"]
        else:
            if self.reference is None:
                self.reference = load_reference()
            errors = check_outputs(self.name, out, self.seed, self.reference)
            hashes = output_hashes(out)
            if self.hashes is None:
                self.hashes = hashes
            elif hashes != self.hashes:
                errors.append("outputs differ from the run's first sweep")
        if errors:
            self.failed += 1
            self.errors += [f"{tag}: {e}" for e in errors]
        return not errors

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def run_untraced(name, seed, seconds):
    """Closed loop of fresh CLI processes; end-to-end metrics."""
    run = Run(name, seed)
    try:
        t0 = time.perf_counter()
        setups = []
        for i in range(SETUP_REPS):
            log = run.dir / f"setup{i}.log"
            wall, rc, _ = _spawn([sys.executable, "-c", SETUP_SNIPPET, str(run.ini)], log)
            if rc:
                raise RuntimeError(f"set-up probe failed ({rc}): {_last_line(log)}")
            setups.append(wall)
        walls, rss = [], []
        # stop before an invocation that would likely end past the deadline
        while (len(walls) < MIN_INVOCATIONS
               or time.perf_counter() - t0 + statistics.median(walls) <= seconds):
            tag = f"inv{len(walls)}"
            out = run.out_dir(tag)
            log = run.dir / f"{tag}.log"
            wall, rc, peak = _spawn(_cli(name, run.ini, out, seed, WORKLOADS[name]["workers"]), log)
            if not run.check(tag, out, rc) and rc:
                run.errors.append(f"{tag}: {_last_line(log)}")
            walls.append(wall)
            rss.append(peak)
        samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        return run, samples
    finally:
        run.close()


def _import_relaycm():
    sys.path.insert(0, str(SRC))
    from relaycm import harness

    if Path(harness.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"relaycm imported from {harness.__file__}, not from {SRC}")
    return harness


def run_traced(name, seed, seconds):
    """In-process sweeps, untraced and traced in turn; per-layer metrics."""
    harness = _import_relaycm()
    workers = WORKLOADS[name]["workers"]
    run = Run(name, seed)
    n_codewords = harness.load_config(str(run.ini))["code"]["n_codewords"]

    def sweep(tag, n_workers):
        out = run.out_dir(tag)
        harness._cached_code.cache_clear()
        t = time.perf_counter()
        rc = harness.main(_cli(name, run.ini, out, seed, n_workers)[3:])
        wall = time.perf_counter() - t
        run.check(tag, out, rc)
        return wall

    try:
        t0 = time.perf_counter()
        reps = []
        round_s = 0.0
        while not reps or time.perf_counter() - t0 + round_s <= seconds:
            i = len(reps)
            t_round = time.perf_counter()
            tracer = spans.Tracer()

            def traced():
                with spans.installed(tracer):
                    return sweep(f"traced{i}", 1)

            def plain():
                return sweep(f"plain{i}", 1)

            t_pool = sweep(f"pool{i}", workers) if workers > 1 else None
            # alternate the order so that neither side always runs warm
            if i % 2:
                t_traced, t_plain = traced(), plain()
            else:
                t_plain, t_traced = plain(), traced()
            t_pool = t_pool or t_plain
            m = spans.layer_metrics(tracer.spans, t_traced, n_codewords)
            point_s = sum(s.duration for s in tracer.spans if s.name == "harness.point")
            m["harness.pool_efficiency"] = point_s / (workers * t_pool)
            m["trace.overhead_frac"] = (t_traced - t_plain) / t_plain
            reps.append(m)
            round_s = time.perf_counter() - t_round
        samples = {k: [m[k] for m in reps] for k in PER_LAYER}
        return run, samples
    finally:
        run.close()


def run_workload(name, seed, seconds, trace):
    facts = machine_facts()
    facts["loadavg_start"] = loadavg()
    run, samples = (run_traced if trace else run_untraced)(name, seed, seconds)
    facts["loadavg_end"] = loadavg()
    units = {k: v[0] for k, v in (PER_LAYER if trace else END_TO_END).items()}
    metrics = {}
    detail = {}
    for k, unit in units.items():
        vals = samples[k]
        lo, hi = quartiles(vals)
        metrics[k] = {"value": statistics.median(vals), "unit": unit}
        detail[k] = {"median": statistics.median(vals), "q1": lo, "q3": hi, "n": len(vals)}
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted, "errors": run.errors,
        "output_sha256": run.hashes, "machine": facts,
        "metrics": metrics, "detail": detail,
    }


def print_result(res):
    name = res["workload"]
    print(f"# {name} seed={res['seed']} trace={res['trace']} "
          f"machine={json.dumps(res['machine'], sort_keys=True)}")
    for k, d in res["detail"].items():
        unit = res["metrics"][k]["unit"]
        print(f"{name:16s} {k:28s} {d['median']:.6g} {unit} "
              f"(q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, n={d['n']})")
    print(f"{name:16s} {'failed_frac':28s} {res['failed_frac']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    if res["trace"]:
        wall = res["metrics"]["trace.wall_s"]["value"]
        shares = {layer: res["metrics"][f"{layer}.self_s"]["value"] / wall
                  for layer in spans.LAYERS}
        shares["unattributed"] = res["metrics"]["trace.unattributed_s"]["value"] / wall
        print(f"# {name} self-time shares of the traced sweep: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for file, digest in sorted((res["output_sha256"] or {}).items()):
        print(f"# sha256 {file} {digest}")
    for e in res["errors"]:
        print(f"! {e}", file=sys.stderr)


def write_reference():
    """Record every boundary of every workload at the default seed."""
    ref = {}
    for name, w in WORKLOADS.items():
        run = Run(name, DEFAULT_SEED)
        try:
            out = run.out_dir("ref")
            log = run.dir / "ref.log"
            _, rc, _ = _spawn(_cli(name, run.ini, out, DEFAULT_SEED, w["workers"]), log)
            if rc:
                raise RuntimeError(f"{name}: exit code {rc}: {_last_line(log)}")
            ref[name] = boundaries(load_record(name, out))
        finally:
            run.close()
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


def run_all(seconds):
    """Every workload, untraced and traced, at the default seed; writes the
    baseline and BENCHMARK.json."""
    results = []
    # untraced first: traced runs load relaycm into this process (see _spawn)
    for trace in (False, True):
        for name in WORKLOADS:
            res = run_workload(name, DEFAULT_SEED, seconds, trace)
            print_result(res)
            results.append(res)
    (BENCH / "baseline.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    return all(r["correct"] for r in results)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload and write the baseline")
    p.add_argument("--write-reference", action="store_true",
                   help="record the default-seed boundaries in reference.json")
    args = p.parse_args(argv)

    if not (SRC / "relaycm" / "harness.py").is_file():
        print(f"no relaycm sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.all:
        return 0 if run_all(args.seconds) else 1
    if not args.workload:
        p.error("--workload is required")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
