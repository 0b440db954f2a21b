"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent PARENT [--change CHANGE]
        [--pairs 10] [--seconds 30] [--workloads validate resolve cli]
        [--seed N] --out BENCH_N.json

PARENT and CHANGE are each a directory holding a checkout (with
``perfbench/run.py`` and ``src/``) or a git revision of this repository,
which is exported to a temporary directory.  CHANGE defaults to the
checkout that holds this script.

For each workload the script runs ``perfbench/run.py --workload W`` (with
tracing off) once on each side per pair, alternating which side runs
first, and reads the result line of every run.  It writes, per workload
and per end-to-end metric of ``BENCHMARK.json``: the median and quartiles
of each side, the change's wins (pairs in which it reads better), whether
the change's median is worse than the parent's by more than the metric's
bound, and whether it is a gain by the rule of nine wins in ten with a
median gap wider than the parent's interquartile range.  The file also
records the Python and numpy versions, the core count and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def checkout(where: str, tmp: Path, option: str) -> Path:
    """The directory of a checkout: ``where`` itself, or the git revision
    ``where`` of this repository exported under ``tmp``.  Exits 2 with an
    ``error:`` line, naming ``option``, when ``where`` is neither."""
    path = Path(where)
    if (path / "perfbench" / "run.py").is_file():
        return path.resolve()
    out = tmp / where.replace("/", "_")
    out.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", where], capture_output=True)
    if archive.returncode != 0:
        print(f"error: {option} {where!r} is neither a checkout directory nor a revision "
              f"that git can export from {ROOT}; a directory holding perfbench/run.py works",
              file=sys.stderr)
        raise SystemExit(2)
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
    return out


def run_once(side: Path, workload: str, seconds: float, seed) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{side}: {workload} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list, change: list) -> dict:
    """One metric of one workload over paired runs."""
    higher = metric["better"] == "higher"
    p, c = spread(parent), spread(change)
    wins = sum((y > x) if higher else (y < x) for x, y in zip(parent, change))
    bound = metric["bound"]
    if higher:
        regressed = c["median"] < p["median"] * (1 - bound)
    else:
        regressed = c["median"] > p["median"] * (1 + bound)
    gap = abs(c["median"] - p["median"])
    better = (c["median"] > p["median"]) if higher else (c["median"] < p["median"])
    return {"unit": metric["unit"], "better": metric["better"], "bound": bound,
            "parent": p, "change": c,
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "wins": wins, "pairs": len(parent), "regressed": regressed,
            "gain": better and wins >= 0.9 * len(parent) and gap > p["q3"] - p["q1"]}


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cores": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=str(ROOT))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", default=["validate", "resolve", "cli"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": checkout(args.parent, Path(tmp), "--parent"),
                 "change": checkout(args.change, Path(tmp), "--change")}
        result = {"parent": args.parent, "change": args.change, "pairs": args.pairs,
                  "seconds": args.seconds, "seed": args.seed,
                  "environment": environment(), "workloads": {}}
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in order:
                    start = time.perf_counter()
                    runs[name].append(run_once(sides[name], workload, args.seconds, args.seed))
                    print(f"{workload} pair {i + 1}/{args.pairs} {name}: "
                          f"{time.perf_counter() - start:.0f} s", file=sys.stderr, flush=True)
            result["workloads"][workload] = {
                "correct": all(r["correct"] for side in runs.values() for r in side),
                "failed": {name: [r["failed"] for r in side] for name, side in runs.items()},
                "attempted": {name: [r["attempted"] for r in side] for name, side in runs.items()},
                "metrics": {m["name"]: compare(m, [r["metrics"][m["name"]]["value"]
                                                   for r in runs["parent"]],
                                               [r["metrics"][m["name"]]["value"]
                                                for r in runs["change"]])
                            for m in metrics},
            }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for workload, res in result["workloads"].items():
        for name, m in res["metrics"].items():
            flag = "REGRESSED" if m["regressed"] else ("gain" if m["gain"] else "")
            print(f"{workload}/{name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
                  f"{m['unit']} (x{m['ratio']:.3g}, {m['wins']}/{m['pairs']} wins) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
