"""Weighted least-squares fitting of exterior harmonics to boundary data.

The discrete functional is the quadrature approximation of the squared
L2(S) misfit; scaling rows of the design matrix and right-hand side by
sqrt(w_i) makes ||A c - b||_2 equal that norm exactly. The solve is a
truncated SVD: small matrices and severe ill-conditioning on nonspherical
surfaces. A is first reduced by a Householder QR and the SVD taken of its
R, so A's m x n left factor is never built. A is stored column-major:
numpy's raw QR returns the transpose of a copy in A's layout, so each
stored reflector is a contiguous row. One factorisation serves every
right-hand side, each fitted by its own reflections and matrix-vector
products, so a fit is the same to the last bit alone or among others.
The retained singular values are a prefix (they come sorted): the
factors are sliced, not copied.

On a surface of revolution the system is block-diagonal in the azimuthal
order m, and OrderSystem builds only its blocks: one small system per
|m|, each factored by the same route, with the residuals measured on
every node of the rule as above (see _solve_orders).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .geometry import max_degree, uniform_phi_line
from .harmonics import ELL_MAX, azimuthal, azimuthal_coefficients, line_blocks, n_terms, node_blocks

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
ROBIN = "robin"
BC_KINDS = (DIRICHLET, NEUMANN, ROBIN)
SVD_RTOL = 1e-12  # default relative truncation of the singular values


@dataclass(frozen=True)
class LsqProblem:
    """sqrt(w)-scaled design matrix and right-hand side(s)."""

    matrix: np.ndarray  # (n_nodes, n_cols)
    rhs: np.ndarray  # (n_nodes,), or (k, n_nodes): one right-hand side per row
    sqrt_w: np.ndarray  # (n_nodes,) row scaling, kept for diagnostics


@dataclass(frozen=True)
class OrderProblem:
    """The system of OrderSystem for degrees 0..L, one block per order |m| = k."""

    factors: tuple  # factors[k]: (n_theta, L+1-k) theta-line factors of the bc trace, degrees k..L, unscaled
    sqrt_w: np.ndarray  # (n_theta,) sqrt of each theta-line's node weight
    azimuthal: np.ndarray  # (n_phi, 2L+1) factors of the orders m = -L..L (harmonics.azimuthal)
    projections: np.ndarray  # (n_theta, 2L+1), or (k, n_theta, 2L+1): harmonics.azimuthal_coefficients of the values
    values: np.ndarray  # (n_theta, n_phi), or (k, n_theta, n_phi): the data on the grid


@dataclass(frozen=True)
class LsqSolution:
    coefficients: np.ndarray  # (n_cols,), or (k, n_cols) for k right-hand sides; then each residual has k entries
    residual_l2: float | np.ndarray
    sup_residual: float | np.ndarray  # max_i |A c - b|_i / sqrt(w_i): the node-max misfit of the trace
    rank: int
    cond_estimate: float


def bc_trace(bc: str, sigma: float, values, normal_derivatives):
    """The trace a bc of kind `bc` prescribes, from a function's values and
    normal derivatives at the nodes: Dirichlet u, Neumann du/dn, Robin
    du/dn + sigma * u. A kind does not read the input it does not use."""
    if bc == DIRICHLET:
        return values
    if bc == NEUMANN:
        return normal_derivatives
    if bc == ROBIN:
        return normal_derivatives + sigma * values
    raise ValueError(f"unknown boundary condition {bc!r}")


def _checked_data(rule, values, bc: str, sigma: float) -> np.ndarray:
    """The data as floats; a ValueError for a negative Robin coefficient or a length that is not the rule's."""
    if bc == ROBIN and sigma < 0:
        raise ValueError("Robin coefficient must be >= 0")
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != rule.n_nodes:
        raise ValueError("boundary data length does not match the quadrature rule")
    return values


class GrowingSystem:
    """The weighted system for the given boundary-condition kind and
    degrees 0..L, grown as L rises; each row of `values` is a right-hand side.

    Columns: the bc_trace of each h_k about the rule's center at the nodes
    x_i; all rows carry sqrt(w_i). Each `extend` draws from node_blocks
    (up to ELL_MAX) only the degrees not seen yet and appends their
    columns, so a loop over nested degrees builds every column once.
    The matrix is column-major (see the module docstring).
    """

    def __init__(self, rule, values: np.ndarray, bc: str, sigma: float):
        values = _checked_data(rule, values, bc, sigma)
        self._bc, self._sigma = bc, sigma
        self._blocks = node_blocks(ELL_MAX, rule, gradients=bc != DIRICHLET)
        self._sqrt_w = np.sqrt(rule.weights)
        self._rhs = values * self._sqrt_w
        self._matrix = np.empty((rule.n_nodes, 0))
        self._ell_max = -1

    def extend(self, ell_max: int) -> LsqProblem:
        """The system for degrees 0..ell_max; ValueError below the current degree or above ELL_MAX."""
        if not self._ell_max <= ell_max <= ELL_MAX:
            raise ValueError(f"degree {ell_max} is outside [{self._ell_max}, {ELL_MAX}]")
        new = [bc_trace(self._bc, self._sigma, v, dn) * self._sqrt_w[:, None]
               for v, dn in itertools.islice(self._blocks, ell_max - self._ell_max)]
        out = np.empty((self._matrix.shape[0], self._matrix.shape[1] + sum(b.shape[1] for b in new)), order="F")
        self._matrix = np.concatenate([self._matrix, *new], axis=1, out=out)
        self._ell_max = ell_max
        return LsqProblem(self._matrix, self._rhs, self._sqrt_w)


class OrderSystem:
    """GrowingSystem's system on a surface of revolution about the z-axis through the rule's center,
    split by azimuthal order; the n_nodes x (L+1)^2 matrix is never built.

    The phi-lines are uniform, and the weights, radii and normal components are constant along each
    theta-line, so the system is exactly block-diagonal in m. Block k = |m| has one row per
    theta-line, scaled by sqrt(n_phi w_i), and one column per degree l >= k: the bc_trace of the
    theta-line factors of harmonics.line_blocks. Blocks m and -m are equal. Each data vector is
    projected on its own onto the azimuthal factors (harmonics.azimuthal_coefficients, values @ az /
    n_phi per theta-line), which is exact while 2L < n_phi: `extend(L)` refuses an L above
    geometry.max_degree of the rule. A rule whose weights vary along a theta-line, or whose
    phi-lines are not geometry.uniform_phi_line, is a ValueError.
    """

    def __init__(self, rule, values: np.ndarray, bc: str, sigma: float):
        values = _checked_data(rule, values, bc, sigma)
        weights = rule.weights.reshape(rule.n_theta, rule.n_phi)
        if np.any(weights != weights[:, :1]) or not np.array_equal(rule.phi_line, uniform_phi_line(rule.n_phi)):
            raise ValueError("the rule is not a surface of revolution on uniform phi-lines: "
                             "its weights vary along a theta-line, or its phi-lines are not 2*pi*j/n_phi")
        self._bc, self._sigma = bc, sigma
        self._ell_cap = min(max_degree(rule.n_theta, rule.n_phi), ELL_MAX)
        self._lines = line_blocks(self._ell_cap, rule, gradients=bc != DIRICHLET)
        self._factors = np.empty((self._ell_cap + 1, self._ell_cap + 1, rule.n_theta))  # [k, l, theta-line]
        self._sqrt_w = np.sqrt(weights[:, 0])
        self._az = azimuthal(self._ell_cap, rule.phi_line)
        self._values = values.reshape(values.shape[:-1] + weights.shape)
        self._projections = np.stack([azimuthal_coefficients(v, self._ell_cap)
                                      for v in self._values.reshape((-1,) + weights.shape)])
        self._ell_max = -1

    def extend(self, ell_max: int) -> OrderProblem:
        """The system for degrees 0..ell_max; ValueError below the current degree or above the rule's."""
        if not self._ell_max <= ell_max <= self._ell_cap:
            raise ValueError(f"degree {ell_max} is outside [{self._ell_max}, {self._ell_cap}]")
        for ell, (h, dn) in enumerate(itertools.islice(self._lines, ell_max - self._ell_max), self._ell_max + 1):
            self._factors[: ell + 1, ell] = bc_trace(self._bc, self._sigma, h, dn).T
        self._ell_max = ell_max
        orders = slice(self._ell_cap - ell_max, self._ell_cap + ell_max + 1)
        return OrderProblem(factors=tuple(self._factors[k, k : ell_max + 1].T for k in range(ell_max + 1)),
                            sqrt_w=self._sqrt_w, azimuthal=self._az[:, orders],
                            projections=self._projections[..., orders].reshape(self._values.shape[:-1] + (-1,)),
                            values=self._values)


def _householder_qtb(h, tau, rhs):
    """The first min(m, n) entries of Q^T rhs, for (h, tau) = np.linalg.qr(A, mode="raw")."""
    y = rhs.copy()
    for k, t in enumerate(tau):  # reflector k is I - t v v^T, v = (1, h[k, k+1:]), on y[k:]
        d = t * (y[k] + h[k, k + 1:] @ y[k + 1:])
        y[k] -= d
        y[k + 1:] -= d * h[k, k + 1:]
    return y[:len(tau)]


def solve(problem: LsqProblem | OrderProblem, svd_rtol: float = SVD_RTOL) -> LsqSolution:
    """Truncated-SVD minimum-norm least squares of any shape: A = QR is solved
    from the SVD of R (upper trapezoidal if A is wide), which has A's singular values.

    Singular values below svd_rtol * sigma_max are discarded; the solution
    is the minimum-norm minimizer over the retained subspace. Both reported
    residuals, ||A c - b||_2 and the node-max misfit, are recomputed from
    the returned coefficients. A LAPACK failure is raised as SolverError.
    The factors die with the call: only the fits are returned. An
    OrderProblem is solved block by block by the same route (_solve_orders).
    """
    if isinstance(problem, OrderProblem):
        return _solve_orders(problem, svd_rtol)
    A, b = problem.matrix, problem.rhs
    if A.size == 0:
        raise SolverError("empty system")
    m, n = A.shape
    if m < n:
        warnings.warn(f"underdetermined system ({m} rows < {n} cols)", stacklevel=2)
    try:
        h, tau = np.linalg.qr(A, mode="raw")
        U, svals, Vt = np.linalg.svd(np.triu(h[:, :n].T))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD failed: {exc}") from exc
    keep = svals >= svd_rtol * svals[0] if svals[0] > 0 else np.zeros_like(svals, bool)
    rank = int(keep.sum())
    if rank == 0:
        raise SolverError("all singular values fall below the truncation threshold")

    U, svals, Vt = U[:, :rank], svals[:rank], Vt[:rank]  # keep is a prefix: svals are sorted
    fits = []
    for rhs in np.atleast_2d(b):  # each right-hand side projected and fitted as if it were alone
        c = Vt.T @ ((U.T @ _householder_qtb(h, tau, rhs)) / svals)
        misfit = A @ c - rhs
        fits.append((c, float(np.linalg.norm(misfit)), float(np.max(np.abs(misfit) / problem.sqrt_w))))
    c, residual, sup = fits[0] if b.ndim == 1 else map(np.array, zip(*fits))
    return LsqSolution(coefficients=c, residual_l2=residual, sup_residual=sup, rank=rank,
                       cond_estimate=float(svals[0] / svals[-1]))


def _solve_orders(problem: OrderProblem, svd_rtol: float) -> LsqSolution:
    """solve for an OrderProblem: each block is factored as a full system is, and truncated against
    the largest singular value of all blocks. Rank and condition number are those of the union of
    the blocks' singular values, each block of an order k > 0 counted twice (for m = k and m = -k):
    the singular values of the n_nodes x (L+1)^2 system. Each data vector's fit is synthesised on
    every node, its theta-line factors of each order times the azimuthal factors, and both
    residuals are measured there."""
    L, (n_theta, n_phi) = len(problem.factors) - 1, problem.values.shape[-2:]
    scale = np.sqrt(n_phi) * problem.sqrt_w  # the row scaling sqrt(n_phi w_i)
    try:
        factored = []
        for F in problem.factors:
            h, tau = np.linalg.qr(scale[:, None] * F, mode="raw")
            factored.append((h, tau, *np.linalg.svd(np.triu(h[:, : F.shape[1]].T))))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD failed: {exc}") from exc
    s_max = max(svals[0] for _, _, _, svals, _ in factored)
    kept = []  # each block's retained prefix
    for h, tau, U, svals, Vt in factored:
        r = int(np.sum(svals >= svd_rtol * s_max)) if s_max > 0 else 0
        kept.append((h, tau, U[:, :r], svals[:r], Vt[:r]))
    retained = [svals for _, _, _, svals, _ in kept]
    rank = len(retained[0]) + 2 * sum(len(svals) for svals in retained[1:])
    if rank == 0:
        raise SolverError("all singular values fall below the truncation threshold")

    fits = []
    for values, projected in zip(problem.values.reshape(-1, n_theta, n_phi),
                                 problem.projections.reshape(-1, n_theta, 2 * L + 1)):
        c, lines = np.zeros(n_terms(L)), np.empty((n_theta, 2 * L + 1))  # lines: the fit's theta-factor of each order
        for k, (F, (h, tau, U, svals, Vt)) in enumerate(zip(problem.factors, kept)):
            ells = np.arange(k, L + 1)
            for m in (k, -k) if k else (0,):  # each data vector and order projected and fitted on its own
                ck = Vt.T @ ((U.T @ _householder_qtb(h, tau, scale * projected[:, L + m])) / svals)
                c[ells * ells + ells + m] = ck
                lines[:, L + m] = F @ ck
        misfit = lines @ problem.azimuthal.T - values
        fits.append((c, float(np.linalg.norm(misfit * problem.sqrt_w[:, None])), float(np.max(np.abs(misfit)))))
    c, residual, sup = fits[0] if problem.values.ndim == 2 else map(np.array, zip(*fits))
    return LsqSolution(coefficients=c, residual_l2=residual, sup_residual=sup, rank=rank,
                       cond_estimate=float(s_max / min(svals[-1] for svals in retained if len(svals))))
