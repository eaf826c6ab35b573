"""Adaptive degree loop: grow the expansion until the boundary residual
falls below the target.

The basis columns are nested by degree, so the weighted design matrix is
tabulated once per run and grown as L rises: each step builds only the
columns of its new degrees, solves the system for degrees 0..L by a
Householder QR and a truncated SVD of its R (lsq.solve), and adds a row to
one table: the DegreeRecord of every data vector, and the fit; every row
keeps its fit. On a surface the spec declares axisymmetric (sphere,
spheroid) the system is grown as lsq.OrderSystem, one small block per
azimuthal order, and the n_nodes x (L+1)^2 matrix of lsq.GrowingSystem is
never built. Any other surface is grown as lsq.GrowingSystem with the
order g = gcd(spec.rotation_order, n_phi) of the rule: one block per
rotation class when g > 1 (a p-fold cosine_bump on a rule p divides), the
whole matrix when g = 1. One lsq.solve body factors the blocks of either.
One rule, stop, ends a vector's history at an epsilon: at the first row <= epsilon
(converged); else after stagnation_patience steps in a row, each above
stagnation_factor x the step before (stagnated); else where it runs out:
at L_max or, if LAPACK fails part-way, as stagnated. A stagnated run
reports its last fit, not its best: near the round-off floor the residual
can rise (a Neumann run to the floor: 1.6e-12 at L=25, 4.0e-12 at L=28).

The loop runs a group of cells at once (run_mrc_grid): data vectors on one
surface, rule and bc, each under several epsilons, are the right-hand sides
of one system. It ends once stop ends every vector at the smallest epsilon;
each report is the table sliced at its stop.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field, fields as dc_fields

import numpy as np

from . import fields, geometry, harmonics, lsq
from .errors import ConfigError, GeometryError, SolverError, require_number

CONVERGED = "converged"
L_MAX_REACHED = "L_max_reached"
STAGNATED = "stagnated"


@dataclass(frozen=True)
class MrcConfig:
    """Parameters of an adaptive run; epsilon is in the same units as the
    discrete L2(S) norm of the data (reports also carry residual/||f||).
    The defaults here are the only ones: a run config's "mrc" section is
    passed in as keyword arguments."""

    epsilon: float
    L_start: int = 2
    L_step: int = 1
    L_max: int = 40
    svd_rtol: float = lsq.SVD_RTOL
    stagnation_factor: float = 0.999
    stagnation_patience: int = 3

    def __post_init__(self):
        for f in dc_fields(self):
            kind = int if f.type in ("int", int) else float
            object.__setattr__(self, f.name, require_number(f.name, getattr(self, f.name), kind))
        for holds, requirement in (
            (self.epsilon > 0, "epsilon > 0"),
            (0 <= self.L_start <= self.L_max <= harmonics.ELL_MAX, f"0 <= L_start <= L_max <= {harmonics.ELL_MAX}"),
            (self.L_step >= 1, "L_step >= 1"),
            (0 < self.stagnation_factor < 1, "0 < stagnation_factor < 1"),
            (self.stagnation_patience >= 1, "stagnation_patience >= 1"),
            (0 < self.svd_rtol < 1, "0 < svd_rtol < 1"),  # from 1 up a fit keeps at most sigma_max
        ):
            if not holds:
                raise ConfigError(f"MRC parameters need {requirement}, got {self}")


@dataclass(frozen=True)
class DegreeRecord:
    """Diagnostics for one degree of the adaptive loop."""

    L: int
    residual_l2: float
    residual_rel: float
    sup_residual: float
    rank: int
    cond_estimate: float


@dataclass(frozen=True)
class SolveReport:
    history: tuple[DegreeRecord, ...]
    chosen_L: int | None
    coefficients: np.ndarray
    termination: str
    f_norm: float
    epsilon: float
    svd_rtol: float
    bc: str
    sigma: float
    rule_refined: bool
    fd_derivatives: bool
    field: fields.ExteriorField = dc_field(repr=False, default=None)

    @property
    def final_residual(self) -> float:
        return self.history[-1].residual_l2

    def to_dict(self) -> dict:
        return {
            "chosen_L": self.chosen_L,
            "termination": self.termination,
            "epsilon": self.epsilon,
            "svd_rtol": self.svd_rtol,
            "bc": self.bc,
            "sigma": self.sigma,
            "f_norm": self.f_norm,
            "final_residual": self.final_residual,
            "rule_refined": self.rule_refined,
            "fd_derivatives": self.fd_derivatives,
            "history": [asdict(h) for h in self.history],
            "coefficients": [dict(zip(("ell", "m"), harmonics.unflatten(k)), value=float(v))
                             for k, v in enumerate(self.coefficients)],
        }


def stop(residuals: list[float], epsilon: float, cfg: MrcConfig) -> tuple[int, str | None]:
    """(rows up to the stop, termination or None if they ran out) of residuals at epsilon; cfg.epsilon is unread."""
    stagnant = 0
    for n, residual in enumerate(residuals, 1):
        stagnant = stagnant + 1 if n > 1 and residual > cfg.stagnation_factor * residuals[n - 2] else 0
        if residual <= epsilon or stagnant >= cfg.stagnation_patience:
            return n, CONVERGED if residual <= epsilon else STAGNATED
    return len(residuals), None


def run_mrc(spec: geometry.SurfaceSpec, rule: geometry.QuadratureRule,
            data: fields.BoundaryData, cfg: MrcConfig) -> SolveReport:
    """Adaptive fit of exterior harmonics to the boundary data; see run_mrc_grid."""
    return run_mrc_grid(spec, rule, [data], cfg, [cfg.epsilon])[0][0]


def run_mrc_grid(spec: geometry.SurfaceSpec, rule: geometry.QuadratureRule, data: list[fields.BoundaryData],
                 cfg: MrcConfig, epsilons: list[float]) -> list[list[SolveReport]]:
    """reports[i][j] is the fit of data[i] with cfg at epsilons[j] (cfg.epsilon is not read).

    The data share bc, sigma and whether they have an oracle. If geometry.max_degree of the rule is
    below L_max, the rule is refined (and the data resampled via its oracle); tabulated data instead
    caps L_max at it, a ConfigError if that is below L_start (a RunConfig checks this at load).
    Either adjustment is recorded in the report as rule_refined. Data that differ in bc, sigma or
    having an oracle, or a rule built about another center than spec's, are a ValueError, a data
    vector with an infinite L2(S) norm a ConfigError, a surface whose inscribed radius to the power
    L_max + 2 underflows a GeometryError."""
    if rule.center != spec.center:
        raise ValueError(f"the rule is built about {rule.center}, the surface about {spec.center}")
    if len({(d.bc, d.sigma, d.oracle is None) for d in data}) > 1:
        raise ValueError("the data of one grid must share bc, sigma and whether they have an oracle")
    refined = geometry.max_degree(rule.n_theta, rule.n_phi) < cfg.L_max
    if refined and data[0].oracle is not None:
        rule = geometry.auto_quadrature(spec, cfg.L_max)
        data = [fields.boundary_data_from_oracle(rule, d.oracle, d.bc, d.sigma) for d in data]
    L_max = min(cfg.L_max, geometry.max_degree(rule.n_theta, rule.n_phi))
    if L_max < cfg.L_start:
        raise ConfigError("quadrature rule cannot resolve L_start and tabulated data cannot be resampled")

    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        f_norms = [float(np.sqrt(np.sum(rule.weights * d.values**2))) for d in data]
    if not np.all(np.isfinite(f_norms)):
        raise ConfigError(f"boundary data norms {f_norms} are not all finite")
    values = np.stack([d.values for d in data])
    system = (lsq.OrderSystem(rule, values, data[0].bc, data[0].sigma) if spec.axisymmetric else
              lsq.GrowingSystem(rule, values, data[0].bc, data[0].sigma, math.gcd(spec.rotation_order, rule.n_phi)))
    r_min, r_max = geometry.radius_bounds(spec)
    if r_min < np.finfo(float).tiny ** (1.0 / (L_max + 2)):  # r_min^(L_max+2), a column's divisor, underflows
        raise GeometryError(f"the surface is too small: its inscribed radius {r_min} to the power L_max + 2 = "
                            f"{L_max + 2} underflows (fitting in the surface's own unit of length is ROADMAP item 8)")
    table, ran_out = [], L_MAX_REACHED  # one row per degree, (records, fits): every row is kept whole

    def stop_at(i: int, epsilon: float) -> tuple[int, str | None]:
        return stop([records[i].residual_l2 for records, _ in table], epsilon, cfg)
    for L in range(cfg.L_start, L_max + 1, cfg.L_step):
        if all(stop_at(i, min(epsilons))[1] for i in range(len(data))):
            break
        try:
            sol = lsq.solve(system.extend(L), cfg.svd_rtol)
        except SolverError:
            ran_out = STAGNATED
            break
        table.append((tuple(DegreeRecord(L, r, r / f if f > 0 else 0.0, sup, sol.rank, sol.cond_estimate)
                            for r, sup, f in zip(sol.residual_l2.tolist(), sol.sup_residual.tolist(), f_norms)),
                      sol.coefficients))
    if not table:
        raise SolverError("adaptive loop terminated before completing a single solve")

    def report(i: int, epsilon: float) -> SolveReport:
        n, termination = stop_at(i, epsilon)
        records, fit = table[n - 1]
        return SolveReport(
            history=tuple(row[0][i] for row in table[:n]), chosen_L=records[i].L if termination == CONVERGED else None,
            coefficients=fit[i], termination=termination or ran_out, f_norm=f_norms[i], epsilon=epsilon,
            svd_rtol=cfg.svd_rtol, bc=data[i].bc, sigma=data[i].sigma, rule_refined=refined,
            fd_derivatives=spec.uses_fd_derivatives, field=fields.ExteriorField(spec.center, fit[i], r_min, r_max),
        )

    return [[report(i, epsilon) for epsilon in epsilons] for i in range(len(data))]
