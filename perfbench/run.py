"""MRC benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every end-to-end metric, by name

Workloads (see BENCHMARK.json for why each is there):

  matrix  the 9-cell acceptance matrix, each cell one `mrc solve` call
  floor   a Robin solve on cosine_bump driven to the round-off floor (library call)
  sweep   one `mrc sweep` over 4 source directions x 3 tolerances on a spheroid

Load model: a closed loop with one client; one case runs at a time and the
next starts when it returns. A run starts fresh worker processes
(worker.py) one after the other, so set-up time and peak RSS belong to the
workload alone. Each worker runs a fixed warm-up solve, so the cold first
LAPACK call is not in the timed passes, then passes over the cases for its
share of --seconds.
BLAS threads are pinned to BLAS_THREADS in the workers' environment; the
setting is recorded with each result.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced passes, which run
after untraced ones in the same process (trace.overhead_frac compares the
two). Every case of every pass goes through the correctness gate of
worker.py; a failing case counts in "failed". The full result, with the
machine description, goes to .perfbench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("matrix", "floor", "sweep")
# Workers per run: timings differ more between processes than between passes
# of one process, so the passes are spread over several. Each worker also
# gives one set-up sample; setup_s is their median.
PROCESSES = 3
# One BLAS thread: on a 2-core machine, floor passes spread 14.0-17.6 s with
# OpenBLAS's default of two threads and 14.2-14.5 s with one.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class BenchmarkError(Exception):
    pass


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in THREAD_VARIABLES:
        env[name] = BLAS_THREADS
    return env


class Worker:
    """A worker process, killed if it outlives the run's budget."""

    def __init__(self, argv: list[str], env: dict, root: Path, deadline: float):
        self.started = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                     stdout=subprocess.PIPE, text=True, env=env, cwd=root)
        self.timer = threading.Timer(max(1.0, deadline - self.started), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> float:
        """Seconds from spawn to the end of the worker's warm-up solve."""
        line = self.proc.stdout.readline()
        elapsed = perf_counter() - self.started
        if line.strip() != "ready":
            self.finish()
            raise BenchmarkError(f"worker failed before its warm-up ended (exit {self.proc.returncode})")
        return elapsed

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
        finally:
            self.proc.stdout.close()
            self.proc.wait()
            self.timer.cancel()
        if self.proc.returncode != 0:
            raise BenchmarkError(f"worker exited {self.proc.returncode}")
        return out


def median(values) -> float:
    return statistics.median(list(values))


def run_workload(name: str, args, root: Path, spec: dict, run_dir: Path, deadline: float) -> dict:
    """Run the workload in PROCESSES fresh workers, one after the other.

    Worker i runs passes until its share of --seconds ends (at least one
    pass). A worker that would overrun --seconds only sets up, so every run
    still yields PROCESSES set-up samples.
    """
    env = worker_env(root)
    tmp = run_dir / f"tmp-{os.getpid()}-{name}"
    common = ["--workload", name, "--seed", str(args.seed), "--tmp", str(tmp)]
    start = perf_counter()
    setups, docs = [], []
    next_worker_s = 0.0  # set-up plus one pass (or untraced + traced pair) of the last worker
    try:
        for i in range(PROCESSES):
            spawned = perf_counter()
            if docs and spawned + next_worker_s > start + args.seconds:
                w = Worker(common + ["--seconds", "0", "--setup-only"], env, root, deadline)
                setups.append(w.wait_ready())
                w.finish()
                continue
            share_end = start + args.seconds * (i + 1) / PROCESSES
            seconds = max(0.0, share_end - spawned - (median(setups) if setups else 0.0))
            argv = common + ["--seconds", f"{seconds:.3f}", "--trace", str(args.trace)]
            if args.trace:
                argv += ["--spans", str(run_dir / f"spans-{name}-seed{args.seed}-p{i}.jsonl")]
            w = Worker(argv, env, root, deadline)
            setups.append(w.wait_ready())
            docs.append(json.loads(w.finish().strip().splitlines()[-1]))
            iterations = sum(not p["traced"] for p in docs[-1]["passes"])
            next_worker_s = setups[-1] + (perf_counter() - spawned - setups[-1]) / iterations
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = [p for doc in docs for p in doc["passes"]]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    cases = [c for p in passes for c in p["cases"]]
    failed = [c for c in cases if c["failures"]]
    pass_s = median(p["seconds"] for p in plain)

    if args.trace:
        overhead = (median(p["seconds"] for p in traced) - pass_s) / pass_s
        metrics = {m["name"]: (overhead if m["name"] == "trace.overhead_frac"
                               else median(p["layers"].get(m["name"], 0.0) for p in traced))
                   for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": median(setups),
            "pass_s": pass_s,
            "slowest_case_s": median(p["slowest_case_s"] for p in plain),
            "peak_rss_mb": median(doc["peak_rss_mb"] for doc in docs),
        }
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    return {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_samples_s": setups,
        "worker_processes": len(docs),
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "attempted": len(cases),
        "failed": len(failed),
        "failed_frac": len(failed) / len(cases),
        "failures": [{"case": c["case"], "failures": c["failures"]} for c in failed],
        "missing_trace_targets": sorted({m for p in traced for m in p.get("missing", ())}),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "environment": docs[0]["environment"],
        "svd_flop_formula": docs[0]["svd_flop_formula"],
        "passes": passes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "mrc" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a checkout (src/mrc and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    run_dir = root / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    budget = RUN_BUDGET_S * len(names)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args, root, spec, run_dir, start + budget))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    provenance = {"git_revision": git_revision(root), "seed": args.seed,
                  "blas_threads_pinned": BLAS_THREADS, **results[0]["environment"]}
    print("provenance " + json.dumps(provenance))
    for r in results:
        r["provenance"] = provenance
        for key, m in r["metrics"].items():
            print(f"{r['workload']:7s} {key:40s} {m['value']:.6g} {m['unit']}")
        print(f"{r['workload']:7s} {'failed_frac':40s} {r['failed_frac']:.6g} ({r['failed']} of {r['attempted']} cases, "
              f"{r['passes_untraced']} untraced + {r['passes_traced']} traced passes in {r['worker_processes']} workers)")
        for f in sorted({f"{f['case']}: {'; '.join(f['failures'])}" for f in r["failures"]}):
            print(f"{r['workload']:7s} FAILED {f}")
        if r["missing_trace_targets"]:
            print(f"{r['workload']:7s} not traced (missing): {', '.join(r['missing_trace_targets'])}")
        out = run_dir / f"result-{r['workload']}-trace{args.trace}-seed{args.seed}.json"
        out.write_text(json.dumps(r, indent=1) + "\n")

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): m for r in results for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
