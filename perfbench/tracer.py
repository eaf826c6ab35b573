"""Spans around the public functions of the mrc modules, for the traced run.

Wrappers are installed on module attributes (``mrc.harmonics.ylm``,
``mrc.lsq.solve``, ...) and on ``RunConfig`` for its static loaders,
because that is where the package looks its functions up at call time; the
names re-exported by ``mrc/__init__`` are never called by the package and
are left alone. Each call records (id, name, start, end, parent id, case
id) in memory, plus a few sizes computed from array shapes. A target the
package no longer defines is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). Both radius scans share one name, as do
# the two config loaders: each pair is one layer operation.
TARGETS = (
    ("geometry", "build_quadrature", "geometry.build_quadrature"),
    ("geometry", "enclosing_radius", "geometry.radius_scan"),
    ("geometry", "inscribed_radius", "geometry.radius_scan"),
    ("harmonics", "ylm", "harmonics.ylm"),
    ("harmonics", "basis_on_nodes", "harmonics.basis_on_nodes"),
    ("harmonics", "eval_h", "harmonics.eval_h"),
    ("harmonics", "eval_grad_h", "harmonics.eval_grad_h"),
    ("lsq", "assemble", "lsq.assemble"),
    ("lsq", "solve", "lsq.solve"),
    ("driver", "run_mrc", "driver.run_mrc"),
    ("fields", "boundary_data_from_oracle", "fields.boundary_data_from_oracle"),
    ("fields", "sup_residual", "fields.sup_residual"),
    ("fields", "error_on_enclosing_sphere", "fields.error_on_enclosing_sphere"),
    ("config", "RunConfig.load", "config.load"),
    ("config", "RunConfig.from_dict", "config.load"),
    ("cli", "write_reports", "cli.write_reports"),
)

# Thin-SVD flop count for an m x n matrix (m >= n) returning Sigma, U1 and V:
# the R-SVD entry of Golub & Van Loan, Matrix Computations, table 5.4.1.
SVD_FLOP_FORMULA = "6*m*n^2 + 20*n^3 (thin R-SVD: Sigma, U1, V; Golub & Van Loan table 5.4.1)"


def _svd_gflop(m: int, n: int) -> float:
    m, n = max(m, n), min(m, n)
    return (6.0 * m * n * n + 20.0 * n**3) / 1e9


def _ylm_sizes(args, kwargs, result):
    return {"harmonics.ylm.mvalues": sum(a.size for a in result) / 1e6}


def _basis_sizes(args, kwargs, result):
    grads = result.gradients
    nbytes = result.values.nbytes + (grads.nbytes if grads is not None else 0)
    return {"harmonics.basis_on_nodes.computed_mb": nbytes / 1e6}


def _grad_sizes(args, kwargs, result):
    return {"harmonics.eval_grad_h.computed_mb": result.nbytes / 1e6}


def _solve_sizes(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    m, n = problem.matrix.shape
    return {"lsq.solve.gflop": _svd_gflop(m, n), "lsq.solve.rank_deficit": n - result.rank}


def _history_sizes(args, kwargs, result):
    history = result.history
    return {
        "driver.degrees": len(history),
        "driver.useful_columns": (history[-1].L + 1) ** 2,
        "driver.tried_columns": sum((h.L + 1) ** 2 for h in history),
    }


SIZES = {
    "harmonics.ylm": _ylm_sizes,
    "harmonics.basis_on_nodes": _basis_sizes,
    "harmonics.eval_grad_h": _grad_sizes,
    "lsq.solve": _solve_sizes,
    "driver.run_mrc": _history_sizes,
}


class Tracer:
    """In-memory span recorder; install() patches, restore() undoes it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._case = None
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def case(self, case_id: str):
        """A root span for one benchmark case; nested spans carry its id."""
        self._case = case_id
        try:
            with self._span("case"):
                yield
        finally:
            self._case = None

    @contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "case": self._case, "start": perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf_counter()

    def _wrap(self, name: str, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._span(name) as rec:
                result = fn(*args, **kwargs)
            if sizes is not None:
                try:
                    rec.update(sizes(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the function changed shape; its size metrics read 0
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for module_name, attr, name in TARGETS:
            owner = modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                patched = type(raw)(self._wrap(name, raw.__func__))
            else:
                patched = self._wrap(name, raw)
            setattr(owner, attr, patched)
            self._installed.append((owner, attr, raw))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        ok = all(vars(owner)[attr] is raw for owner, attr, raw in self._installed)
        self._installed.clear()
        return ok


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Calls, self time, total time and sizes per span name.

    A call whose parent span has the same name (RunConfig.load calling
    from_dict) is a re-entry: its time counts, but not as another call.
    Self time is span time minus the time of its direct children.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        out[f"{name}.self_s"] += dur - child_time[s["id"]]
        if s["parent"] is None or spans[s["parent"]]["name"] != name:
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += dur
        for key, value in s.items():
            if "." in key:
                out[key] += value
    tried = out.pop("driver.tried_columns", 0.0)
    useful = out.pop("driver.useful_columns", 0.0)
    out["driver.column_reuse"] = useful / tried if tried else 0.0
    return dict(out)
