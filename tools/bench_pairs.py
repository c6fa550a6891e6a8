"""Paired before/after benchmark of two commits, written to BENCH_<pr>.json.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr 8 \\
        --workload region-qam16:1,7 --workload reach-qam32-mc --pairs 10 --criterion 09

A workload runs at the seeds after its colon, or else at ``--seeds``.

The parent revision is unpacked with ``git archive`` into ``.bench_build/``,
and so is ``--change`` when given; without it the change side is a copy
there of this working tree's files: the tracked ones that still exist
and the untracked ones that git does not ignore.  Neither side then
carries caches such as ``__pycache__`` or ``.hypothesis/``.  For every
workload and seed, ``perfbench/run.py --trace 0`` runs on the two sides
in turn for ``--pairs`` pairs, each run as long as the ``run_seconds``
of ``BENCHMARK.json``, and the side that goes first alternates from pair
to pair, so that neither side always runs on a warmer or quieter
machine.  Each named acceptance criterion then
runs under ``pytest --durations=0`` on both sides, alternating the same
way, for ``--criterion-pairs`` pairs.

The output holds both revisions as typed and the commits that they
resolve to (none for a working tree), each side's total line count of
``src/relaycm/*.py`` as ``wc -l`` reads it, every run's result line (the last
line that ``perfbench/run.py`` prints), and per workload, seed and
end-to-end metric of ``BENCHMARK.json``: each side's median and
quartiles over the pairs, and in how many pairs the change was better
than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
_DURATION = re.compile(r"^\s*([0-9.]+)s call\s+\S+::(\S+)")


def resolve(rev: str) -> str:
    """The commit that rev names."""
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def unpack(rev: str, base: Path) -> Path:
    """The committed files of rev, in a new directory under base."""
    dest = Path(tempfile.mkdtemp(prefix=f"{rev.replace('/', '_')}-", dir=base))
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    tar_path = dest / ".archive.tar"
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()
    return dest


def snapshot(base: Path) -> Path:
    """The working tree's tracked and unignored untracked files, in a new
    directory under base."""
    dest = Path(tempfile.mkdtemp(prefix="working-tree-", dir=base))
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout
    for name in listed.decode().split("\0"):
        src = ROOT / name
        if name and os.path.lexists(src):
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)
    return dest


def package_lines(checkout: Path) -> int:
    """Newlines in src/relaycm/*.py, the total that wc -l prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "relaycm").glob("*.py"))


def order(pair: int):
    """Sides in the order they run in the given pair."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0", "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} failed ({out.returncode}):\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_criteria(checkout: Path, criteria) -> dict:
    """Seconds of each named acceptance criterion's test call, and whether
    every selected test passed."""
    select = " or ".join(f"criterion_{c}" for c in criteria)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_acceptance.py", "-k", select, "--durations=0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    durations = {}
    for line in out.stdout.splitlines():
        m = _DURATION.match(line)
        if m:
            durations[m.group(2)] = float(m.group(1))
    return {"passed": out.returncode == 0, "durations_s": durations}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs, metrics) -> dict:
    """Per side median and quartiles of every metric, and the pairs the
    change won; runs holds one {side: result line} per pair."""
    out = {}
    for name, better in metrics:
        entry = {}
        for side in SIDES:
            vals = [r[side]["metrics"][name]["value"] for r in runs]
            q1, q3 = quartiles(vals)
            entry[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                           "values": vals}
        sign = 1.0 if better == "lower" else -1.0
        entry["change_wins"] = sum(
            sign * (r["change"]["metrics"][name]["value"] - r["parent"]["metrics"][name]["value"])
            < 0 for r in runs)
        entry["pairs"] = len(runs)
        out[name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision of the parent side")
    p.add_argument("--change", help="revision of the change side (default: this working tree)")
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--workload", action="append", default=[],
                   help="NAME or NAME:SEED,SEED,...; repeatable")
    p.add_argument("--seeds", type=int, nargs="+", default=[1],
                   help="seeds of a workload named without its own")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--criterion", action="extend", nargs="+", default=[],
                   help="acceptance criterion numbers, e.g. 05 09; repeatable")
    p.add_argument("--criterion-pairs", type=int, default=1)
    args = p.parse_args(argv)

    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    made = []
    try:
        made.append(unpack(args.parent, base))
        made.append(unpack(args.change, base) if args.change else snapshot(base))
        dirs = dict(zip(SIDES, made))
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
        seconds = float(bench["run_seconds"])

        doc = {
            "parent": args.parent, "change": args.change or "working tree",
            "parent_commit": resolve(args.parent),
            "change_commit": resolve(args.change) if args.change else None,
            "package_lines": {side: package_lines(dirs[side]) for side in SIDES},
            "command": "perfbench/run.py --trace 0", "seconds_per_run": seconds,
            "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "platform": platform.platform()},
            "runs": [], "summary": {}, "criteria": {"runs": [], "summary": {}},
        }
        for spec in args.workload:
            workload, _, own = spec.partition(":")
            for seed in [int(v) for v in own.split(",")] if own else args.seeds:
                pairs = []
                for i in range(args.pairs):
                    pair = {}
                    for side in order(i):
                        pair[side] = run_perfbench(dirs[side], workload, seed, seconds)
                        doc["runs"].append({"workload": workload, "seed": seed, "pair": i,
                                            "side": side, "result": pair[side]})
                        print(f"{workload} seed {seed} pair {i} {side}: "
                              + " ".join(f"{k}={v['value']:.4g}"
                                         for k, v in pair[side]["metrics"].items()),
                              flush=True)
                    pairs.append(pair)
                doc["summary"][f"{workload} seed={seed}"] = summarize(pairs, metrics)

        crit = doc["criteria"]
        for i in range(args.criterion_pairs if args.criterion else 0):
            for side in order(i):
                res = run_criteria(dirs[side], args.criterion)
                crit["runs"].append({"pair": i, "side": side, **res})
                print(f"criteria pair {i} {side}: {res}", flush=True)
        for side in SIDES:
            runs = [r for r in crit["runs"] if r["side"] == side]
            tests = sorted({t for r in runs for t in r["durations_s"]})
            crit["summary"][side] = {
                t: statistics.median(r["durations_s"][t] for r in runs if t in r["durations_s"])
                for t in tests}

        out = ROOT / f"BENCH_{args.pr}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {out}")
        correct = all(r["result"]["correct"] and not r["result"]["failed"] for r in doc["runs"])
        return 0 if correct and all(r["passed"] for r in crit["runs"]) else 1
    finally:
        for d in made:
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
