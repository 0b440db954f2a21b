"""Run one effalg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload validate|resolve|cli [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # each workload in turn

The program is imported from ``src/`` of the checkout that holds this
file.  With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("validate", "resolve", "cli")


def program_env() -> dict:
    """Environment for this process and every child: BLAS threads capped at
    the cores this process may use, the enlarged carrier cap criterion 01
    needs, and the checkout's sources first on the path."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    env["EA_MAX_CARRIER"] = "600000"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_all(args) -> int:
    """Each workload in a fresh process; one metrics table at the end."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    for name, res in rows:
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {name}/{metric} = {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": all(res["correct"] for _, res in rows),
        "attempted": sum(res["attempted"] for _, res in rows),
        "failed": sum(res["failed"] for _, res in rows),
        "metrics": {f"{name}/{metric}": m for name, res in rows
                    for metric, m in res["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "effalg" / "__init__.py").is_file():
        print(f"error: no effalg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(program_env())  # before numpy is imported
    if args.workload == "all":
        return run_all(args)

    # import perfbench as a package, never its modules by bare name
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(SRC), str(ROOT)] + [p for p in sys.path if Path(p or ".").resolve() != here]
    from perfbench import common, tracing

    workload = importlib.import_module(f"perfbench.wl_{args.workload}")
    ref = common.reference_ms()
    start = time.perf_counter()
    import effalg  # noqa: F401  (set-up is timed from this import on)
    import effalg.cli  # noqa: F401
    took = time.perf_counter() - start
    run = common.Run(setup_s=took / ((ref + common.reference_ms()) / 2))
    if Path(effalg.__file__).resolve().parent != SRC / "effalg":
        print(f"error: effalg was imported from {effalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        run.tracer = tracing.Tracer()
        run.tracer.enabled = False
        run.tracer.install()

    workload.main(run, args.seed, args.seconds)

    if args.trace:
        metrics = tracing.layer_metrics(run.tracer, run.runs)
        traced = common.end_to_end(run)["ops_per_s"]["value"]
        print(f"traced ops_per_s {traced:.6g} 1/s (tracing on; not a result)")
    else:
        metrics = common.end_to_end(run)
        _, pct = common.tail(run.latencies)
        print(f"op_tail_ms is p{pct:.1f} of {len(run.latencies)} ops")
        if len(run.latencies) < 40:
            print("fewer than 40 ops: op_tail_ms is no tail; run longer")
    for error in run.errors[:20]:
        print(f"WRONG {error}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
