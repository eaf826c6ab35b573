"""Weighted least-squares fitting of exterior harmonics to boundary data.

The discrete functional is the quadrature approximation of the squared
L2(S) misfit; scaling rows of the design matrix and right-hand side by
sqrt(w_i) makes ||A c - b||_2 equal that norm exactly. The solve is a
truncated SVD: small matrices and severe ill-conditioning on nonspherical
surfaces. A is first reduced by a Householder QR and the SVD taken of its
R, so A's m x n left factor is never built. A is stored column-major:
numpy's raw QR returns the transpose of a copy in A's layout, so each
stored reflector is a contiguous row. One factorisation serves every
data vector; a block holds a data vector's copies (below) as the columns
of one right-hand side, the layout the reflectors act on. One stacked
pass reflects every data vector of all blocks with equal rows and copies,
each data vector its own item of every product, so a fit is the same to
the last bit alone or among others. The retained singular values are a
sorted prefix: the factors are sliced.

Every system is a tuple of blocks, solved by one body: a GrowingSystem
is one block, the whole matrix. On a surface of revolution the system is
block-diagonal in the azimuthal order m, and OrderSystem builds one
small block per |m|, shared by m and -m. Each block is factored as
above, and both residuals are recomputed by the system itself from the
flat coefficients.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .geometry import max_degree, uniform_phi_line
from .harmonics import ELL_MAX, azimuthal, azimuthal_coefficients, line_blocks, node_blocks

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
ROBIN = "robin"
BC_KINDS = (DIRICHLET, NEUMANN, ROBIN)
SVD_RTOL = 1e-12  # default relative truncation of the singular values


@dataclass(frozen=True)
class Block:
    """One sqrt(w)-weighted matrix and the copies it serves, in the reflectors' layout: one column per copy."""

    matrix: np.ndarray  # (n_rows, n_cols)
    rhs: np.ndarray  # (n_data, n_rows, n_copies): each data vector's right-hand side, one column per copy
    columns: np.ndarray  # (n_cols, n_copies): each copy's flat coefficient indices, one column per copy


@dataclass(frozen=True)
class LsqProblem:
    """A system as blocks, with its own recomputation of the misfit of a data vector's flat
    coefficients: residuals(i, c) is (its weighted L2 norm, its max over the nodes)."""

    blocks: tuple[Block, ...]
    residuals: Callable[[int, np.ndarray], tuple[float, float]]
    single: bool  # one 1-D data vector: the solution holds one fit, not one per data vector

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, rhs: np.ndarray, sqrt_w: np.ndarray) -> LsqProblem:
        """The one-block problem of a whole sqrt(w)-weighted matrix, with one right-hand side per
        row of rhs (or rhs alone); the misfit is A c - b, its node values (A c - b) / sqrt(w)."""
        rows = np.atleast_2d(rhs)

        def residuals(i, c):
            misfit = matrix @ c - rows[i]
            return float(np.linalg.norm(misfit)), float(np.max(np.abs(misfit) / sqrt_w))
        return cls((Block(matrix, rows[:, :, None], np.arange(matrix.shape[1])[:, None]),), residuals,
                   np.ndim(rhs) == 1)


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
    x_i; all rows carry sqrt(w_i). One column-major table (see the module
    docstring) is reserved for the degrees up to the rule's max_degree; each
    `extend` draws from node_blocks only the degrees not seen yet and writes
    their columns in place, and returns a view: no column is built twice or copied.
    """

    def __init__(self, rule, values: np.ndarray, bc: str, sigma: float):
        values = _checked_data(rule, values, bc, sigma)
        self._bc, self._sigma = bc, sigma
        self._ell_cap = min(max_degree(rule.n_theta, rule.n_phi), ELL_MAX)
        self._blocks = node_blocks(self._ell_cap, rule, gradients=bc != DIRICHLET)
        self._table = np.empty((rule.n_nodes, (self._ell_cap + 1) ** 2), order="F")
        self._sqrt_w = np.sqrt(rule.weights)
        self._rhs = values * self._sqrt_w
        self._ell_max = -1

    def extend(self, ell_max: int) -> LsqProblem:
        """The system for degrees 0..ell_max; ValueError below the current degree or above the rule's."""
        if not self._ell_max <= ell_max <= self._ell_cap:
            raise ValueError(f"degree {ell_max} is outside [{self._ell_max}, {self._ell_cap}]")
        for ell, (v, dn) in enumerate(itertools.islice(self._blocks, ell_max - self._ell_max), self._ell_max + 1):
            np.multiply(bc_trace(self._bc, self._sigma, v, dn), self._sqrt_w[:, None],
                        out=self._table[:, ell * ell : (ell + 1) ** 2])
        self._ell_max = ell_max
        return LsqProblem.from_matrix(self._table[:, : (ell_max + 1) ** 2], self._rhs, self._sqrt_w)


class OrderSystem:
    """GrowingSystem's system on a surface of revolution about the z-axis through the rule's center,
    split by azimuthal order; the n_nodes x (L+1)^2 matrix is never built.

    The phi-lines are uniform, and the weights, radii and normal components are constant along each
    theta-line, so the system is exactly block-diagonal in m. Block k = |m| has one row per
    theta-line, scaled by sqrt(n_phi w_i), and one column per degree l >= k: the bc_trace of the
    theta-line factors of harmonics.line_blocks. It serves two copies, m = k and m = -k, for k > 0.
    The data vectors are projected onto the azimuthal factors (harmonics.azimuthal_coefficients,
    values @ az / n_phi per theta-line), which is exact while 2L < n_phi: `extend(L)` refuses an L
    above geometry.max_degree of the rule. Both residuals are measured on every node, from the fit
    synthesised there. A rule whose weights vary along a theta-line, or whose phi-lines are not
    geometry.uniform_phi_line, is a ValueError.
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
        self._scale = np.sqrt(rule.n_phi) * self._sqrt_w  # the row scaling sqrt(n_phi w_i)
        self._az = azimuthal(self._ell_cap, rule.phi_line)
        self._single = values.ndim == 1
        self._values = values.reshape((-1,) + weights.shape)
        self._rhs = self._scale[:, None] * azimuthal_coefficients(self._values, self._ell_cap)  # [i, theta-line, m]
        self._ell_max = -1

    def extend(self, ell_max: int) -> LsqProblem:
        """The system for degrees 0..ell_max; ValueError below the current degree or above the rule's."""
        if not self._ell_max <= ell_max <= self._ell_cap:
            raise ValueError(f"degree {ell_max} is outside [{self._ell_max}, {self._ell_cap}]")
        for ell, (h, dn) in enumerate(itertools.islice(self._lines, ell_max - self._ell_max), self._ell_max + 1):
            self._factors[: ell + 1, ell] = bc_trace(self._bc, self._sigma, h, dn).T
        self._ell_max = L = ell_max
        factors = [self._factors[k, k : L + 1].T for k in range(L + 1)]  # block k unscaled, degrees k..L
        orders = [(k, -k) if k else (0,) for k in range(L + 1)]
        blocks = []
        for k, (F, ms) in enumerate(zip(factors, orders)):
            ells = np.arange(k, L + 1)
            blocks.append(Block(self._scale[:, None] * F, self._rhs[:, :, [self._ell_cap + m for m in ms]],
                                np.add.outer(ells * ells + ells, ms)))
        az = self._az[:, self._ell_cap - L : self._ell_cap + L + 1]

        def residuals(i, c):
            lines = np.empty((len(self._sqrt_w), 2 * L + 1))  # the fit's theta-line factor of each order
            for F, ms, block in zip(factors, orders, blocks):
                lines[:, [L + m for m in ms]] = F @ c[block.columns]
            misfit = lines @ az.T - self._values[i]
            return float(np.linalg.norm(misfit * self._sqrt_w[:, None])), float(np.max(np.abs(misfit)))
        return LsqProblem(tuple(blocks), residuals, self._single)


def _householder_qtb(h, tau, rhs):
    """The first rows of Q^T rhs for a stack of blocks with equal row counts, (h[b], tau[b]) = np.linalg.qr(A_b,
    mode="raw") zero-padded past each block's own reflectors (a zero tau and row leave the block's own rows as they
    were), rhs (n_data, n_blocks, n_rows, n_copies): each step reflects every item, and an item's product is the
    BLAS call of that item alone, so each Q^T b is bit-equal alone or stacked."""
    y = rhs.copy()
    for k in range(tau.shape[1]):  # reflector k of block b is I - tau[b, k] v v^T, v = (1, h[b, k, k+1:]), on y[k:]
        d = tau[:, k, None] * (y[..., k, :] + np.matmul(h[:, k : k + 1, k + 1 :], y[..., k + 1 :, :])[..., 0, :])
        y[..., k, :] -= d
        y[..., k + 1 :, :] -= h[:, k, k + 1 :, None] * d[..., None, :]
    return y[..., : tau.shape[1], :]


def solve(problem: LsqProblem, svd_rtol: float = SVD_RTOL) -> LsqSolution:
    """Truncated-SVD minimum-norm least squares of any shape: each block A = QR is solved
    from the SVD of R (upper trapezoidal if A is wide), which has A's singular values.

    Singular values below svd_rtol * sigma_max of all blocks are discarded; the solution is the
    minimum-norm minimizer over the retained subspace. Rank and condition number are those of
    the union of the blocks' singular values, each block counted once per copy: the singular
    values of the whole system. Every data vector and copy of a group of blocks with equal (rows,
    copies) is reflected in one stacked pass, each data vector its own item of every product, so a
    fit is bit-equal alone or among others; the reflectors die before the SVDs. Both residuals are
    recomputed by the problem from the returned coefficients. A LAPACK failure is a SolverError.
    """
    if sum(block.matrix.size for block in problem.blocks) == 0:
        raise SolverError("empty system")
    try:
        factors = []
        for block in problem.blocks:
            m, n = block.matrix.shape
            if m < n:
                warnings.warn(f"underdetermined system ({m} rows < {n} cols)", stacklevel=2)
            factors.append(np.linalg.qr(block.matrix, mode="raw"))
        groups, qtbs = {}, {}  # block indices by (rows, copies); each block's Q^T b of every data vector
        for b, block in enumerate(problem.blocks):
            groups.setdefault(block.rhs.shape[1:], []).append(b)
        for members in groups.values():
            hs, taus = zip(*(factors[b] for b in members))
            h, tau = hs[0][None], taus[0][None]  # a group of one block is reflected through a view
            if len(members) > 1:  # zero-padded copies, to the group's largest reflector count
                n = max(map(len, taus))
                h, tau = np.zeros((len(members), n, h.shape[2])), np.zeros((len(members), n))
                for j, (h_j, tau_j) in enumerate(zip(hs, taus)):
                    h[j, : len(tau_j)], tau[j, : len(tau_j)] = h_j[: len(tau_j)], tau_j
            y = _householder_qtb(h, tau, np.stack([problem.blocks[b].rhs for b in members], axis=1))
            qtbs.update((b, y[:, j, : len(tau_j)]) for j, (b, tau_j) in enumerate(zip(members, taus)))
        rs = [np.triu(h[:, : block.matrix.shape[1]].T) for block, (h, _) in zip(problem.blocks, factors)]
        del factors, hs, h  # the reflectors die before the SVDs
        factored = [np.linalg.svd(r) for r in rs]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"SVD failed: {exc}") from exc
    s_max = max(svals[0] for _, svals, _ in factored)
    kept = []  # each block's retained prefix: the singular values come sorted
    for U, svals, Vt in factored:
        r = int(np.sum(svals >= svd_rtol * s_max)) if s_max > 0 else 0
        kept.append((U[:, :r], svals[:r], Vt[:r]))
    rank = sum(block.columns.shape[1] * len(svals) for block, (_, svals, _) in zip(problem.blocks, kept))
    if rank == 0:
        raise SolverError("all singular values fall below the truncation threshold")

    c = np.zeros((len(problem.blocks[0].rhs), sum(block.columns.size for block in problem.blocks)))
    for b, (block, (U, svals, Vt)) in enumerate(zip(problem.blocks, kept)):
        c[:, block.columns] = Vt.T @ ((U.T @ qtbs[b]) / svals[:, None])  # every data vector in one product
    fits = [problem.residuals(i, c_i) for i, c_i in enumerate(c)]
    residual, sup = fits[0] if problem.single else map(np.array, zip(*fits))
    return LsqSolution(coefficients=c[0] if problem.single else c, residual_l2=residual, sup_residual=sup, rank=rank,
                       cond_estimate=float(s_max / min(svals[-1] for _, svals, _ in kept if len(svals))))
