"""Weighted least-squares fitting of exterior harmonics to boundary data.

The discrete functional is the quadrature approximation of the squared
L2(S) misfit; scaling rows of the design matrix and right-hand side by
sqrt(w_i) makes ||A c - b||_2 equal that norm exactly. The solve is a
truncated SVD: small matrices and severe ill-conditioning on nonspherical
surfaces. A is first reduced by a Householder QR and the SVD taken of its
R, so A's m x n left factor is never built. A is stored column-major:
numpy's raw QR returns the transpose of a copy in A's layout, so each
stored reflector is a contiguous row. The blocks with equal rows and
copies (below) are factored as one stack, each zero-padded to the widest:
LAPACK leaves a zero column out of every reflection and gives it tau = 0,
so each block's reflectors are its own to the last bit (to rounding where
the padding crosses dgeqrf's blocking crossover, 128). One factorisation
serves every data vector; a block holds a data vector's copies as the
columns of one right-hand side, the layout the reflectors act on. One
stacked pass reflects every data vector of a group of blocks, each data
vector its own item of every product, so a fit is the same to the last
bit alone or among others. The retained singular values are a sorted
prefix: the factors are sliced.

Every system is a tuple of blocks, solved by one body: a GrowingSystem
is one block, the whole matrix, unless its surface is declared invariant
under rotations by 2*pi/g about the z-axis and g divides the rule's n_phi;
then it is one block per rotation class (the orders m = +-k mod g), built
from one sector of the rule. On a surface also declared invariant under
the mirrors z -> -z and y -> -y, each class is split by the parity of
l + |m| and by phi -> -phi, built from the sector's northern theta-lines
and its half up to the plane phi = pi/g: classes 0 and g/2 into cos-type
and sin-type blocks, and each pair of classes +-k into one block serving
two copies, the cos-type and the sin-type columns. On a surface of
revolution the system is block-diagonal in the azimuthal order m, and
OrderSystem builds one small block per |m|, shared by m and -m. Each block
is factored as above, and both residuals are recomputed by the system
itself from the flat coefficients, on every node.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import SolverError
from .geometry import max_degree, uniform_phi_line
from .harmonics import ELL_MAX, azimuthal, azimuthal_coefficients, degrees, line_blocks, node_blocks

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
    signs: np.ndarray | None = None  # (n_cols, n_copies): each copy's sign of its fit in its coefficient; None: +1


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


class _ClassBlock(NamedTuple):
    """One block of a GrowingSystem: the orders m = +-k (mod g) of one theta-parity and, under the mirrors, of one
    phi-parity, or, for a pair of classes, of both as two copies; its rows are on the tabulated nodes."""

    k: int
    pair: bool  # k and -k are two classes: one real block, of the real and imaginary parts of class k's function
    sign: float  # the theta-parity's sign on a southern line: +1 for even l + |m| (or unfolded), -1 for odd
    parities: np.ndarray  # each copy's phi-parity: +1 for m >= 0 (or every column, unfolded), -1 for m < 0
    re: slice | np.ndarray  # the tabulated nodes of the rows of the function (of its real part, in a pair)
    im: np.ndarray  # the nodes of a pair's rows of the imaginary part: every node unfolded, else those off both planes
    turn: np.ndarray  # the nodes on the plane phi = pi/g whose real-part rows are of the turned function
    rows: np.ndarray  # each row's scaling: sqrt(g w) of its node, sqrt(2) more per mirror image, over sqrt(2) in a pair
    table: np.ndarray  # the columns up to the system's top degree, column-major
    rhs: np.ndarray  # (n_data, n_rows, n_copies): each data vector's projection onto the block, scaled
    columns: np.ndarray  # (n_cols, n_copies): each column's flat index per copy, increasing in the first copy
    partner_signs: np.ndarray  # a pair's sign of the trace of (l, -m) in the imaginary-part rows of column (l, m)

    def copy_signs(self, n):
        """(n, 2): a folded pair's sign of each copy's fit in its first n coefficients, 1 and s = -partner_signs
        (its columns have m > 0); None for a block of one copy."""
        return np.column_stack([np.ones(n), -self.partner_signs[:n]]) if self.columns.shape[1] == 2 else None


class GrowingSystem:
    """The weighted system for the given boundary-condition kind and
    degrees 0..L, grown as L rises; each row of `values` is a right-hand side.

    Columns: the bc_trace of each h_k about the rule's center at the nodes
    x_i; all rows carry sqrt(w_i). One column-major table per block (see the
    module docstring) is reserved for the degrees up to L_max (at most the rule's
    max_degree); each `extend` draws from node_blocks only the degrees not seen yet and
    writes their columns in place, and returns views: no column is built twice or copied.

    With `order` g > 1 the surface is declared invariant under rotations by 2*pi/g about the z-axis through the
    rule's center, and g divides n_phi: sector s, the n_s = n_phi/g phi-lines s*n_s .. (s+1)*n_s - 1 of every
    theta-line, is sector 0 rotated s times. The system is then block-diagonal in the rotation classes, and
    node_blocks runs on sector 0 only. The data vectors are projected onto the classes by a length-g real FFT
    across the sectors: d_k on sector 0, with d_k(phi + 2*pi/g) = w d_k(phi), w = exp(2*pi*i*k/g). Class 0 (the
    orders m = 0 mod g) and, for even g, class g/2 are one block each, rows sqrt(g w) times the trace; each pair
    of classes +-k is one block with rows [2 Re d_k; -2 Im d_k], scaled sqrt(g w / 2): with X, X' the traces of
    (l, |m|), (l, -|m|), column (l, |m|) is [X; -s X'] and column (l, -|m|) is [X'; s X], s = +1 if |m| = k
    (mod g), else -1.

    With `mirror` the surface is also declared invariant under z -> -z and y -> -y through the center; the
    rule's theta-lines pair up as theta_i, pi - theta_i, and its weights are mirrored too (a ValueError if not).
    h_lm and its normal derivative then have the parity (-1)^(l + |m|) under z -> -z, and +1 (m >= 0) or -1
    (m < 0) under phi -> -phi. Each class splits in two by l + |m| mod 2: node_blocks runs on sector 0's
    northern theta-lines, plus the equator line when n_theta is odd, which serves the even blocks only, and the
    data fold into (d_i +- d_{n_theta-1-i}) / 2. In phi it runs on the half sector j = 0 .. n_s/2, from the plane
    phi = 0 to the plane phi = pi/g, and the data fold across j <-> n_s - j with the class's rotation phase: the
    mirrored data's class function is w conj(d_k[n_s - j]), so G+- = (d_k +- w conj(d_k[n_s - j])) / 2. A line
    that stands for itself and its mirror line carries a further sqrt(2). Classes 0 and g/2 split into a
    cos-type (m >= 0) block of G+ and a sin-type (m < 0) block of G-, each without the plane lines where its
    function vanishes (phi = 0 for G-; phi = pi/g for G- of class 0 and G+ of class g/2). A pair is one block
    serving two copies, as OrderSystem's order blocks do: its cos-type columns (l, |m|) fit G+, and, as i G- has
    G+'s symmetry, the same matrix fits i G- with the sin-type columns (l, -|m|), whose coefficients are s times
    that fit. Its rows are the real parts on the half sector and the imaginary parts off the planes; on the
    plane phi = pi/g, where G+ / exp(i*pi*k/g) is real, the real part of that: n_s rows per theta-line.
    Unfolded, each class is one block on every node: the case of one parity entry and no mirror line. A block
    with no harmonic of degree <= L is left out; its data stay in the misfit, as both residuals are measured
    on every node, from the fit synthesised there (unfolded in phi, and in theta: a southern line is even - odd)
    by the inverse FFT. g = 1 unfolded is the whole matrix, one block, with the misfit A c - b.
    """

    def __init__(self, rule, values: np.ndarray, bc: str, sigma: float, order: int = 1, mirror: bool = False,
                 L_max: int = ELL_MAX):
        values = _checked_data(rule, values, bc, sigma)
        uniform = np.array_equal(rule.phi_line, uniform_phi_line(rule.n_phi))
        if not (order >= 1 and rule.n_phi % order == 0 and (order == 1 or uniform)):
            raise ValueError(f"rotation order {order} needs a rule on uniform phi-lines whose n_phi it divides")
        weights = rule.weights.reshape(rule.n_theta, rule.n_phi)
        if mirror and not (uniform and np.allclose(rule.theta_line + rule.theta_line[::-1], np.pi, rtol=0.0, atol=1e-13)
                           and np.allclose(weights, weights[::-1], rtol=1e-12, atol=0.0)
                           and np.allclose(weights, weights[:, -np.arange(rule.n_phi)], rtol=1e-12, atol=0.0)):
            raise ValueError("a fold by the mirrors needs theta-lines and weights mirrored through the equator, "
                             "and uniform phi-lines with weights mirrored by phi -> -phi")
        g, n_s = order, rule.n_phi // order
        self._bc, self._sigma, self._order = bc, sigma, order
        self._ell_cap = min(max_degree(rule.n_theta, rule.n_phi), ELL_MAX, L_max)
        self._pairs = rule.n_theta // 2 if mirror else 0  # the northern lines, each folded with its mirror line
        lines = rule.n_theta - self._pairs  # the tabulated theta-lines: the northern ones, then the unpaired
        half = n_s // 2 + 1 if mirror else n_s  # the tabulated phi-lines: sector 0's, or its half up to phi = pi/g
        self._inner = np.arange(1, (n_s + 1) // 2) if mirror else np.arange(0)  # the phi-lines off both planes
        self._shape = (rule.n_theta, n_s, half)
        self._omegas = np.array([np.exp(2j * np.pi * k / g) if 0 < 2 * k < g else 1.0 - 2.0 * (k > 0)
                                 for k in range(g // 2 + 1)])  # each class's rotation phase: +-1 for classes 0, g/2
        def sector(a):  # the tabulated nodes: a view of the whole array if unsplit
            return a.reshape(rule.n_theta, g, n_s, *a.shape[1:])[:lines, 0, :half].reshape(-1, *a.shape[1:])
        sector_rule = replace(rule, theta=sector(rule.theta), phi=sector(rule.phi), points=sector(rule.points),
                              normals=sector(rule.normals), weights=sector(rule.weights), n_theta=lines, n_phi=half)
        self._blocks = node_blocks(self._ell_cap, sector_rule, gradients=bc != DIRICHLET)
        self._single = values.ndim == 1
        self._values = values.reshape(-1, rule.n_nodes)
        self._sqrt_w = np.sqrt(rule.weights)
        ells = degrees(self._ell_cap)
        orders = np.arange(len(ells)) - ells * (ells + 1)  # the order m of each flat column
        residue = np.abs(orders) % g
        parity = (ells + np.abs(orders)) % 2 if mirror else 0
        scale = g * sector_rule.weights.reshape(lines, half)
        scale[: self._pairs] *= 2  # a folded line stands for itself and its mirror
        scale[:, self._inner] *= 2
        sectors = self._values.reshape(-1, rule.n_theta, g, n_s)
        spectrum = np.fft.rfft(sectors, axis=2) / g if g > 1 else sectors  # [i, theta-line, k, phi-line]
        self._classes = []
        for k, sign in itertools.product(range(g // 2 + 1), (1.0, -1.0) if mirror else (1.0,)):
            pair, n_lines = 0 < 2 * k < g, lines if sign > 0 else self._pairs
            omega = self._omegas[k] if pair else self._omegas[k].real
            d = spectrum[:, :, k] if pair else spectrum[:, :, k].real
            folded = (d[:, : self._pairs] + sign * d[:, ::-1][:, : self._pairs]) / 2  # (d_i +- d_{n_theta-1-i}) / 2
            d = np.concatenate([folded, d[:, self._pairs : lines]], axis=1)[:, :n_lines, :, None]
            if mirror:  # the mirrored data's class function w conj(d[n_s - j]); at phi = 0, conj(d[0])
                image = omega * np.conj(d[:, :, -np.arange(n_s)])
                image[:, :, 0] = np.conj(d[:, :, 0])
            node = np.arange(n_lines * half).reshape(n_lines, half)
            in_class = (np.minimum(residue, g - residue) == k) & (parity == (sign < 0))
            for parities in ((1, -1),) if pair and mirror else ((1,), (-1,)) if mirror else ((1,),):
                tau = np.array(parities, dtype=float)
                a = (d[:, :, :half] + tau * image[:, :, :half]) / 2 if mirror else d  # G+-, or d_k unfolded
                cos = np.flatnonzero(in_class & ((orders >= 0) == (tau[0] > 0) if mirror else True))
                columns = np.column_stack([cos, cos - 2 * orders[cos]])[:, : len(tau)]  # a pair's copies (l, +-|m|)
                s = np.where(residue[cos] == k, 1.0, -1.0)  # +1 if |m| = k (mod g)
                scaled = scale[:n_lines].ravel() / (2 if pair else 1)
                if pair:
                    a = a * np.array([1, 1j])[: len(tau)]  # the copies G+ and i G-, or d_k unfolded
                    re, im = slice(0, node.size), node[:, self._inner].ravel() if mirror else node.ravel()
                else:
                    kept = [j for j in range(half) if j in self._inner or tau[0] * omega ** (2 * j == n_s) > 0]
                    re = node[:, kept].ravel() if mirror else slice(0, node.size)
                    im = node[:, :0].ravel()
                block = _ClassBlock(
                    k, pair, sign, tau, re, im,
                    node[:, n_s // 2] if pair and mirror and n_s % 2 == 0 else node[:, :0].ravel(),
                    np.sqrt(np.concatenate([scaled[re], scaled[im]])), None, None, columns,
                    -s * np.sign(orders[cos]))
                flat = a.reshape(len(a), node.size, len(tau)).transpose(1, 0, 2)  # [node, i, copy]
                rhs = self._rows_of(block, 2 * flat.real, -2 * flat.imag) if pair else self._rows_of(block, flat, None)
                self._classes.append(block._replace(
                    table=np.empty((len(block.rows), len(columns)), order="F"),
                    rhs=(rhs * block.rows[:, None, None]).transpose(1, 0, 2)))
        self._ell_max = -1

    def extend(self, ell_max: int) -> LsqProblem:
        """The system for degrees 0..ell_max; ValueError below the current degree or above the system's top."""
        if not self._ell_max <= ell_max <= self._ell_cap:
            raise ValueError(f"degree {ell_max} is outside [{self._ell_max}, {self._ell_cap}]")
        for ell, (v, dn) in enumerate(itertools.islice(self._blocks, ell_max - self._ell_max), self._ell_max + 1):
            trace = bc_trace(self._bc, self._sigma, v, dn)
            for cls in self._classes:
                lo, hi = np.searchsorted(cls.columns[:, 0], [ell * ell, (ell + 1) ** 2])
                at = cls.columns[lo:hi, 0] - ell * ell  # the block's columns of this degree, at l + m
                own = trace if hi - lo == 2 * ell + 1 else trace[:, at]  # the whole degree (order 1, unfolded): no copy
                partner = trace[:, 2 * ell - at] * cls.partner_signs[lo:hi] if cls.pair else None
                np.multiply(self._rows_of(cls, own, partner), cls.rows[:, None], out=cls.table[:, lo:hi])
        self._ell_max = ell_max
        counts = [np.searchsorted(cls.columns[:, 0], (ell_max + 1) ** 2) for cls in self._classes]
        used = [(cls, n) for cls, n in zip(self._classes, counts) if n]  # a block without columns is left out
        if len(self._classes) == 1:  # the whole matrix on every node
            ((cls, n),) = used
            return LsqProblem.from_matrix(cls.table[:, :n], cls.rhs[..., 0][0] if self._single else cls.rhs[..., 0],
                                          self._sqrt_w)

        def residuals(i, c):
            n_theta, n_s, half = self._shape
            lines = n_theta - self._pairs
            parts = np.zeros((2, 2, lines, len(self._omegas), half), dtype=complex)  # [theta-, phi-parity, line, k, j]
            for cls, n in used:
                signs = cls.copy_signs(n)
                y = c[cls.columns[:n]] if signs is None else c[cls.columns[:n]] * signs
                fit = cls.table[:, :n] @ y / cls.rows[:, None]  # each copy's rows of the fit
                n_lines = lines if cls.sign > 0 else self._pairs  # the block's tabulated theta-lines
                a = np.zeros((n_lines * half, fit.shape[1]), dtype=complex)  # its function on the tabulated nodes
                a[cls.re] = fit[: len(fit) - len(cls.im)]
                if cls.pair:
                    a[cls.im] -= 1j * fit[len(fit) - len(cls.im) :]
                    a[cls.turn] *= self._phase(cls)
                    a *= np.array([0.5, -0.5j])[: fit.shape[1]]  # a / 2: d_k unfolded, else G+ and G- = -i (i G-)
                parts[int(cls.sign < 0), 1 * (cls.parities < 0), :n_lines, cls.k] += np.moveaxis(
                    a.reshape(n_lines, half, -1), 2, 0)
            fits = np.zeros((2, lines, len(self._omegas), n_s), dtype=complex)  # each theta-parity's on sector 0
            fits[..., :half] = parts.sum(axis=1)
            fits[..., n_s - self._inner] = self._omegas[:, None] * np.conj(parts[:, 0] - parts[:, 1])[..., self._inner]
            spectrum = np.concatenate([fits[0] + fits[1], (fits[0] - fits[1])[: self._pairs][::-1]])  # north, south
            misfit = np.fft.irfft(self._order * spectrum, n=self._order, axis=1).reshape(-1) - self._values[i]
            return float(np.linalg.norm(misfit * self._sqrt_w)), float(np.max(np.abs(misfit)))
        return LsqProblem(tuple(Block(cls.table[:, :n], cls.rhs, cls.columns[:n], cls.copy_signs(n))
                                for cls, n in used), residuals, self._single)

    def _phase(self, cls):
        """exp(i pi k/g), by which a folded pair's function is turned on the plane phi = pi/g."""
        return np.exp(1j * np.pi * cls.k / self._order)

    def _rows_of(self, cls, real, imag):
        """A block's rows (axis 0) from the values on the tabulated nodes of a function (its real part, and in a
        pair its imaginary part negated); a folded pair's rows on the plane phi = pi/g are of the turned function."""
        if not cls.pair:
            return real[cls.re]
        rows, phase = np.concatenate([real[cls.re], imag[cls.im]]), self._phase(cls)
        rows[cls.turn] = phase.real * real[cls.turn] - phase.imag * imag[cls.turn]
        return rows


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
    values of the whole system. A group of blocks with equal (rows, copies) is factored as one
    zero-padded stack, and every data vector and copy of it is reflected in one stacked pass, each
    data vector its own item of every product, so a fit is bit-equal alone or among others; a copy's
    fit enters its coefficients times the block's signs. The reflectors die before the SVDs. Both
    residuals are recomputed by the problem from the returned coefficients. A LAPACK failure is a
    SolverError.
    """
    if sum(block.matrix.size for block in problem.blocks) == 0:
        raise SolverError("empty system")
    try:
        groups, qtbs, rs = {}, {}, {}  # block indices by (rows, copies); each block's Q^T b of every data vector, and R
        for b, block in enumerate(problem.blocks):
            m, n = block.matrix.shape
            if m < n:
                warnings.warn(f"underdetermined system ({m} rows < {n} cols)", stacklevel=2)
            groups.setdefault(block.rhs.shape[1:], []).append(b)
        for members in groups.values():
            blocks = [problem.blocks[b] for b in members]
            stack = blocks[0].matrix[None]  # a group of one block is factored through a view
            if len(blocks) > 1:  # column-major blocks, zero-padded to the group's widest
                stack = np.zeros((len(blocks), max(block.matrix.shape[1] for block in blocks), len(blocks[0].matrix)))
                for j, block in enumerate(blocks):
                    stack[j, : block.matrix.shape[1]] = block.matrix.T
                stack = stack.transpose(0, 2, 1)
            h, tau = np.linalg.qr(stack, mode="raw")  # a zero column gets tau = 0 and leaves the others as they were
            y = _householder_qtb(h, tau, np.stack([block.rhs for block in blocks], axis=1))
            for j, (b, block) in enumerate(zip(members, blocks)):
                n = block.matrix.shape[1]
                qtbs[b], rs[b] = y[:, j, : min(n, len(block.matrix))], np.triu(h[j, :n, :n].T)
        del stack, h  # the reflectors die before the SVDs
        factored = [np.linalg.svd(rs.pop(b)) for b in range(len(problem.blocks))]
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
        fit = Vt.T @ ((U.T @ qtbs[b]) / svals[:, None])  # every data vector in one product
        c[:, block.columns] = fit if block.signs is None else fit * block.signs
    fits = [problem.residuals(i, c_i) for i, c_i in enumerate(c)]
    residual, sup = fits[0] if problem.single else map(np.array, zip(*fits))
    return LsqSolution(coefficients=c[0] if problem.single else c, residual_l2=residual, sup_residual=sup, rank=rank,
                       cond_estimate=float(s_max / min(svals[-1] for _, svals, _ in kept if len(svals))))
