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
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .harmonics import ELL_MAX, node_blocks

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
        if bc == ROBIN and sigma < 0:
            raise ValueError("Robin coefficient must be >= 0")
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != rule.n_nodes:
            raise ValueError("boundary data length does not match the quadrature rule")
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


def _householder_qtb(h, tau, rhs):
    """The first min(m, n) entries of Q^T rhs, for (h, tau) = np.linalg.qr(A, mode="raw")."""
    y = rhs.copy()
    for k, t in enumerate(tau):  # reflector k is I - t v v^T, v = (1, h[k, k+1:]), on y[k:]
        d = t * (y[k] + h[k, k + 1:] @ y[k + 1:])
        y[k] -= d
        y[k + 1:] -= d * h[k, k + 1:]
    return y[:len(tau)]


def solve(problem: LsqProblem, svd_rtol: float = SVD_RTOL) -> LsqSolution:
    """Truncated-SVD minimum-norm least squares of any shape: A = QR is solved
    from the SVD of R (upper trapezoidal if A is wide), which has A's singular values.

    Singular values below svd_rtol * sigma_max are discarded; the solution
    is the minimum-norm minimizer over the retained subspace. Both reported
    residuals, ||A c - b||_2 and the node-max misfit, are recomputed from
    the returned coefficients. A LAPACK failure is raised as SolverError.
    The factors die with the call: only the fits are returned.
    """
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
