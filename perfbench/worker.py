"""One workload run in a fresh process: warm-up, timed passes, correctness gate.

Started by run.py, never by hand. The worker prints ``ready`` on stdout when
its warm-up solve has returned (run.py times set-up from spawn to that line),
then, unless ``--setup-only``, runs passes over the workload's cases until
``--seconds`` is used up and prints one JSON line with every case result.
With ``--trace 1`` each untraced pass is followed by a traced one.
Anything the package prints goes to stderr, so stdout carries only the
protocol.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import mrc
from mrc import cli, config, driver, fields, geometry, harmonics, lsq

from tracer import SVD_FLOP_FORMULA, Tracer, layer_metrics

MODULES = {"geometry": geometry, "harmonics": harmonics, "lsq": lsq, "driver": driver,
           "fields": fields, "config": config, "cli": cli}

POINT_SOURCE = {"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0}

# The acceptance matrix of tests/test_acceptance.py, with the chosen_L the
# unmodified solver returns for each cell (all converged).
MATRIX_SURFACES = {
    "sphere": {"preset": "sphere", "params": {"a": 1.2}},
    "spheroid": {"preset": "spheroid", "params": {"a": 1.0, "e": 0.5}},
    "cosine_bump": {"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "k": 2, "p": 3}},
}
MATRIX_BCS = {"dirichlet": 0.0, "neumann": 0.0, "robin": 1.0}
MATRIX_CHOSEN_L = (9, 11, 11, 10, 12, 12, 11, 13, 13)

FLOOR_HISTORY_ROWS = 28

SWEEP_EPSILONS = (1e-4, 1e-6, 1e-8)
SWEEP_DEFAULT_SEED = 0
# chosen_L per sweep.csv row for SWEEP_DEFAULT_SEED (source-major, epsilon-minor).
SWEEP_CHOSEN_L = (6, 10, 13, 7, 10, 13, 7, 10, 14, 6, 10, 13)

CRITERION_5_FACTOR = 10.0  # L2(S_R) error <= 10 x boundary residual


def solve_doc(surface: dict, bc: str, sigma: float, epsilon: float) -> dict:
    return {
        "surface": dict(surface),
        "bc": {"kind": bc, "sigma": sigma},
        "data": dict(POINT_SOURCE),
        "mrc": {"epsilon": epsilon, "L_start": 2, "L_max": 40},
        "quadrature": "auto",
        "outputs": {},
    }


def write_json(path: Path, doc: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def case_result(name, seconds, chosen_L, termination, final_residual, failures):
    return {"case": name, "seconds": seconds, "chosen_L": chosen_L, "termination": termination,
            "final_residual": final_residual, "failures": failures}


def criterion_5(sr_error: float, residual: float) -> list[str]:
    if sr_error <= CRITERION_5_FACTOR * residual:
        return []
    return [f"criterion 5: L2(S_R) error {sr_error!r} > {CRITERION_5_FACTOR} x residual {residual!r}"]


def raised(name: str, seconds: float) -> dict:
    traceback.print_exc()
    return case_result(name, seconds, None, None, None, [f"raised {sys.exc_info()[1]!r}"])


@contextmanager
def call_clock(owner, attr: str):
    """Record the wall time of each call to owner.attr while active."""
    fn = getattr(owner, attr)
    times: list[float] = []

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(perf_counter() - t0)

    setattr(owner, attr, timed)
    try:
        yield times
    finally:
        setattr(owner, attr, fn)


class Matrix:
    """The 9-cell acceptance matrix, each cell one `mrc solve` call."""

    def __init__(self, seed: int, tmp: Path):
        self.cases = []
        cells = itertools.product(MATRIX_SURFACES.items(), MATRIX_BCS.items())
        for ((sname, surface), (bc, sigma)), ref_L in zip(cells, MATRIX_CHOSEN_L):
            name = f"{sname}-{bc}"
            cfg = write_json(tmp / name / "config.json", solve_doc(surface, bc, sigma, 1e-6))
            self.cases.append((name, cfg, tmp / name / "out", ref_L))
        self.warm_cfg = write_json(tmp / "warm-up" / "config.json",
                                   solve_doc(MATRIX_SURFACES["sphere"], "dirichlet", 0.0, 1e-6))
        self.warm_out = tmp / "warm-up" / "out"

    def warm_up(self) -> None:
        code = cli.main(["solve", str(self.warm_cfg), "--out", str(self.warm_out)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"warm-up solve exited {code}")

    def run_pass(self, tracer) -> tuple[list[dict], float, int]:
        results, nbytes = [], 0
        for name, cfg, out, ref_L in self.cases:
            fresh_dir(out)
            t0 = perf_counter()
            try:
                with tracer.case(name) if tracer else nullcontext():
                    code = cli.main(["solve", str(cfg), "--out", str(out)])
            except Exception:
                results.append(raised(name, perf_counter() - t0))
                continue
            seconds = perf_counter() - t0
            nbytes += dir_bytes(out)
            results.append(self.check(name, seconds, code, out, ref_L))
        return results, sum(r["seconds"] for r in results), nbytes

    @staticmethod
    def check(name, seconds, code, out, ref_L) -> dict:
        failures = []
        if code != cli.EXIT_OK:
            failures.append(f"exit code {code}, expected {cli.EXIT_OK}")
        try:
            report = json.loads((out / "report.json").read_text())
            with open(out / "field_errors.csv", newline="") as fh:
                sr_error = float(list(csv.DictReader(fh))[0]["l2_error"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"unreadable output: {exc!r}")
            return case_result(name, seconds, None, None, None, failures)
        chosen_L, termination, residual = report["chosen_L"], report["termination"], report["final_residual"]
        if termination != driver.CONVERGED or chosen_L != ref_L:
            failures.append(f"got {termination} at L={chosen_L}, expected converged at L={ref_L}")
        failures += criterion_5(sr_error, residual)
        return case_result(name, seconds, chosen_L, termination, residual, failures)


class Floor:
    """A Robin solve on cosine_bump driven to the round-off floor, as a library call."""

    def __init__(self, seed: int, tmp: Path):
        """The inputs are fixed: the seed does not change them."""

    @staticmethod
    def solve(epsilon: float):
        spec = geometry.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
        rule = geometry.build_quadrature(spec, 42, 82)
        oracle = fields.PointSource(POINT_SOURCE["z"])
        data = fields.boundary_data_from_oracle(rule, oracle, lsq.ROBIN, 1.0)
        report = driver.run_mrc(spec, rule, data, driver.MrcConfig(epsilon=epsilon, L_max=40))
        err = fields.error_on_enclosing_sphere(report.field, oracle, 2.0 * report.field.r_max)
        return report, err

    def warm_up(self) -> None:
        self.solve(1e-6)

    def run_pass(self, tracer) -> tuple[list[dict], float, int]:
        t0 = perf_counter()
        try:
            with tracer.case("floor") if tracer else nullcontext():
                report, err = self.solve(1e-15)
        except Exception:
            seconds = perf_counter() - t0
            return [raised("floor", seconds)], seconds, 0
        seconds = perf_counter() - t0
        failures = []
        if report.termination != driver.STAGNATED or len(report.history) != FLOOR_HISTORY_ROWS:
            failures.append(f"got {report.termination} after {len(report.history)} degrees, "
                            f"expected {driver.STAGNATED} after {FLOOR_HISTORY_ROWS}")
        failures += criterion_5(err.l2, report.final_residual)
        return [case_result("floor", seconds, report.chosen_L, report.termination,
                            report.final_residual, failures)], seconds, 0


def tetrahedron_sources(seed: int, radius: float = 0.3) -> list[list[float]]:
    """The vertices of a regular tetrahedron under a random rotation.

    The tetrahedron is a spherical 2-design: the mean of cos^2 of the polar
    angle over its vertices is 1/3 in every orientation, so on an
    axisymmetric surface the mix of polar and equatorial sources, and with
    it the total work of a sweep, varies little from seed to seed.
    """
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    rotation = q * np.sign(np.diag(r))
    vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
    return [[float(v) for v in radius * rotation @ x] for x in vertices]


class Sweep:
    """`mrc sweep` over source direction x epsilon on a Dirichlet spheroid."""

    def __init__(self, seed: int, tmp: Path):
        surface = MATRIX_SURFACES["spheroid"]
        doc = solve_doc(surface, "dirichlet", 0.0, 1e-6)
        doc["outputs"] = {"sweep_csv": "sweep.csv"}
        self.sources = tetrahedron_sources(seed)
        self.reference = SWEEP_CHOSEN_L if seed == SWEEP_DEFAULT_SEED else None
        self.cfg = write_json(tmp / "sweep" / "config.json",
                              dict(doc, grid={"data.z": self.sources, "mrc.epsilon": list(SWEEP_EPSILONS)}))
        self.out = tmp / "sweep" / "out"
        self.warm_cfg = write_json(tmp / "warm-up" / "config.json",
                                   dict(doc, grid={"mrc.epsilon": [SWEEP_EPSILONS[0]]}))
        self.warm_out = tmp / "warm-up" / "out"

    def warm_up(self) -> None:
        code = cli.main(["sweep", str(self.warm_cfg), "--out", str(self.warm_out)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"warm-up sweep exited {code}")

    def run_pass(self, tracer) -> tuple[list[dict], float, int]:
        fresh_dir(self.out)
        names = [f"cell-{i}" for i in range(len(self.sources) * len(SWEEP_EPSILONS))]
        t0 = perf_counter()
        try:
            # The time of a cell is the time of its run_mrc call: the sweep
            # is one CLI call, and the solver is the only per-cell entry point.
            with call_clock(driver, "run_mrc") as cell_times:
                with tracer.case("sweep") if tracer else nullcontext():
                    code = cli.main(["sweep", str(self.cfg), "--out", str(self.out)])
        except Exception:
            seconds = perf_counter() - t0
            return [raised(name, seconds / len(names)) for name in names], seconds, 0
        seconds = perf_counter() - t0
        if len(cell_times) != len(names):
            print(f"warning: {len(cell_times)} run_mrc calls for {len(names)} sweep cells; "
                  "cell times fall back to the sweep's mean", file=sys.stderr)
            cell_times = [seconds / len(names)] * len(names)
        try:
            with open(self.out / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            rows = []
            print(f"sweep.csv unreadable: {exc!r}", file=sys.stderr)
        results = []
        for i, name in enumerate(names):
            failures = [] if code == cli.EXIT_OK else [f"sweep exited {code}"]
            row = rows[i] if i < len(rows) else None
            if row is None:
                results.append(case_result(name, cell_times[i], None, None, None, failures + ["row missing"]))
                continue
            results.append(self.check(name, cell_times[i], row, i, failures))
        return results, seconds, dir_bytes(self.out)

    def check(self, name, seconds, row, i, failures) -> dict:
        if row["error"]:
            failures.append(f"cell error: {row['error']}")
            return case_result(name, seconds, None, "error", None, failures)
        chosen_L = int(row["chosen_L"]) if row["chosen_L"] else None
        termination, residual = row["termination"], float(row["final_residual"])
        expected_L = self.reference[i] if self.reference else chosen_L
        if termination != driver.CONVERGED or chosen_L != expected_L:
            failures.append(f"got {termination} at L={chosen_L}, expected converged at L={expected_L}")
        failures += criterion_5(float(row["sr_error"]), residual)
        return case_result(name, seconds, chosen_L, termination, residual, failures)


WORKLOADS = {"matrix": Matrix, "floor": Floor, "sweep": Sweep}


def run_pass(workload, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    restored = True
    if tracer:
        tracer.install(MODULES)
    try:
        cases, seconds, nbytes = workload.run_pass(tracer)
    finally:
        if tracer:
            restored = tracer.restore()
    result = {
        "traced": traced,
        "seconds": seconds,
        "slowest_case_s": max(c["seconds"] for c in cases),
        "cases": cases,
    }
    if tracer:
        result.update(layers=dict(layer_metrics(tracer.spans), **{"cli.bytes_written": nbytes}),
                      missing=tracer.missing, restored=restored, spans=tracer.spans)
    return result


def compare_traced(plain: dict, traced: dict) -> None:
    """A traced case must return exactly what the untraced one did."""
    for p, t in zip(plain["cases"], traced["cases"]):
        keys = ("chosen_L", "termination", "final_residual")
        if any(p[k] != t[k] for k in keys):
            t["failures"].append("traced result differs: " + ", ".join(f"{k} {p[k]!r} vs {t[k]!r}" for k in keys))
    if not traced["restored"]:
        for t in traced["cases"]:
            t["failures"].append("a wrapper was not restored after the traced pass")


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "mrc_version": getattr(mrc, "__version__", "unknown"),
        "mrc_path": str(Path(mrc.__file__).parent),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    protocol, sys.stdout = sys.stdout, sys.stderr
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    workload.warm_up()
    print("ready", file=protocol, flush=True)
    if args.setup_only:
        return 0

    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workload, traced=False))
        if args.trace:
            passes.append(run_pass(workload, traced=True))
            compare_traced(passes[-2], passes[-1])
        if perf_counter() + (perf_counter() - t0) > deadline:
            break

    if args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w") as fh:
            for i, p in enumerate(passes):
                for span in p.pop("spans", ()):
                    fh.write(json.dumps(dict(span, **{"pass": i})) + "\n")
    for p in passes:
        p.pop("spans", None)
    doc = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "svd_flop_formula": SVD_FLOP_FORMULA,
    }
    print(json.dumps(doc), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
