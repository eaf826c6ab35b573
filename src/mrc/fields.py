"""Exterior field evaluation, exact-solution oracles, and error metrics.

An ExteriorField is the truncated expansion sum_k c_k h_k(x). Oracles are
harmonic functions with closed forms (a point source q/|x-z| with z inside
the surface, or an explicit band-limited expansion, itself an
ExteriorField) used to manufacture boundary data and measure true errors.
The point-source convention is q/|x-z| with no 4*pi factor. The boundary
trace of an ExteriorField at a rule's nodes is its coefficients applied to
the design matrix's own columns (harmonics.node_blocks about the rule's
center) degree by degree; a point source's is its closed-form value and gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry, harmonics
from .errors import ConfigError, require_number, require_point
from .lsq import BC_KINDS, DIRICHLET, NEUMANN, bc_trace


EVAL_CHUNK = 2048  # points per harmonics.eval_h table in ExteriorField.__call__: at L = 40, 28 MB a table


@dataclass(frozen=True)
class ExteriorField:
    """Truncated exterior-harmonic expansion about `center`.

    Evaluation is refused inside the inscribed sphere (radius r_min): the
    expansion is only controlled in the exterior of the surface.
    """

    center: tuple[float, float, float]
    coefficients: np.ndarray
    r_min: float
    r_max: float

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        if harmonics.n_terms(self.ell_max) != self.coefficients.shape[0]:
            raise ValueError("coefficient vector length is not a perfect square")

    @property
    def ell_max(self) -> int:
        return math.isqrt(self.coefficients.shape[0]) - 1

    def _exterior_points(self, x) -> tuple[np.ndarray, bool]:
        """(x as an (n, 3) array, whether x was one point); refuses points inside the inscribed sphere."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        if np.any(np.linalg.norm(pts - np.asarray(self.center), axis=1) < self.r_min * (1.0 - 1e-12)):
            raise ValueError("evaluation point inside the inscribed sphere")
        return pts, x.ndim == 1

    def __call__(self, x) -> np.ndarray | float:
        pts, single = self._exterior_points(x)
        v = np.empty(pts.shape[0])
        for i in range(0, pts.shape[0], EVAL_CHUNK):
            h = harmonics.eval_h(self.ell_max, pts[i : i + EVAL_CHUNK], self.center)
            v[i : i + EVAL_CHUNK] = h @ self.coefficients
        return float(v[0]) if single else v


class PointSource:
    """Harmonic oracle v(x) = q / |x - z| for a source z inside the surface."""

    def __init__(self, z, q: float = 1.0):
        self.z = np.asarray(require_point("source z", z))
        self.q = require_number("source q", q)

    def __call__(self, x) -> np.ndarray:
        d = np.atleast_2d(np.asarray(x, dtype=float)) - self.z
        with np.errstate(all="ignore"):  # a value that overflows is not finite: BoundaryData refuses it
            return self.q / np.linalg.norm(d, axis=1)

    def gradient(self, x) -> np.ndarray:
        d = np.atleast_2d(np.asarray(x, dtype=float)) - self.z
        with np.errstate(all="ignore"):  # and a gradient that overflows, or whose |d|^3 underflows to 0
            return -self.q * d / np.linalg.norm(d, axis=1)[:, None] ** 3


def BandLimited(coefficients, center=(0.0, 0.0, 0.0)) -> ExteriorField:
    """Harmonic oracle given by an explicit finite expansion about `center`:
    an ExteriorField that may be evaluated anywhere but at the center."""
    return ExteriorField(tuple(center), coefficients, 0.0, 0.0)


@dataclass(frozen=True)
class BoundaryData:
    """Boundary trace samples at quadrature nodes plus the condition kind.

    `oracle` is kept when the data came from a closed form, so the driver
    can resample after refining the quadrature rule. Every sample must be
    finite, whether it was sampled from an oracle or read from a file.
    """

    bc: str
    values: np.ndarray
    sigma: float = 0.0
    oracle: object | None = None

    def __post_init__(self):
        if self.bc not in BC_KINDS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("boundary data has NaN or infinite values")


def _trace(fn, rule, bc: str, sigma: float) -> np.ndarray:
    """The lsq.bc_trace of a harmonic function (an oracle or a fitted field) at the nodes; computes only
    what the kind reads. An ExteriorField's is its coefficients applied to the bc_trace columns of
    node_blocks, those it is fitted with: a ValueError unless it is about rule.center with no node
    inside its inscribed sphere. A point source's comes from its closed forms."""
    if isinstance(fn, ExteriorField):
        if tuple(fn.center) != rule.center:
            raise ValueError(f"the field is expanded about {fn.center}, the rule built about {rule.center}")
        fn._exterior_points(rule.points)
        blocks = harmonics.node_blocks(fn.ell_max, rule, bc != DIRICHLET)  # one degree's columns at a time
        return sum(bc_trace(bc, sigma, h, dn) @ fn.coefficients[ell * ell : (ell + 1) ** 2]
                   for ell, (h, dn) in enumerate(blocks))
    values = fn(rule.points) if bc != NEUMANN else None
    normal = np.einsum("ij,ij->i", rule.normals, fn.gradient(rule.points)) if bc != DIRICHLET else None
    return bc_trace(bc, sigma, values, normal)


def boundary_data_from_oracle(rule, oracle, bc: str = DIRICHLET, sigma: float = 0.0) -> BoundaryData:
    """Sample the trace of an oracle on the rule's nodes for the given bc."""
    return BoundaryData(bc=bc, values=np.asarray(_trace(oracle, rule, bc, sigma), dtype=float),
                        sigma=sigma, oracle=oracle)


def multipole_coefficients(z, q: float, ell_max: int, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Expansion of q/|x-z| about `center` in exterior harmonics.

    c_lm = q * 4*pi/(2l+1) * |z-c|^l * Y_lm((z-c)/|z-c|), valid for
    |x-c| > |z-c|. For z at the center only the l=0 term survives.
    Validated in the test suite against direct quadrature projection.
    """
    d = np.asarray(z, dtype=float) - np.asarray(center, dtype=float)
    rz = float(np.linalg.norm(d))
    c = np.zeros(harmonics.n_terms(ell_max))
    if rz == 0.0:
        c[0] = q * math.sqrt(4.0 * math.pi)
        return c
    Y = harmonics.eval_Y(ell_max, d / rz)
    ells = harmonics.degrees(ell_max)
    return q * 4.0 * math.pi / (2 * ells + 1) * rz**ells * Y


class SphereError(NamedTuple):
    l2: float
    sup: float


ERROR_SPHERE_RULE = (64, 128)  # (n_theta, n_phi) of the quadrature on an error sphere


def error_on_enclosing_sphere(field: ExteriorField, oracle, R: float) -> SphereError:
    """L2 and node-sup error of the field against the oracle on |x-c| = R."""
    return errors_on_enclosing_sphere([field], [oracle], R)[0]


def errors_on_enclosing_sphere(fields: list[ExteriorField], oracles: list, R: float) -> list[SphereError]:
    """The error of each field against its oracle on |x-c| = R. The fields share their center and R encloses
    each field's surface, else a ValueError; their values on the sphere rule's grid come from one synthesis
    (harmonics.sphere_grid_values), and each distinct oracle object is evaluated there once, however many
    fields it serves."""
    centers, r_max = {tuple(f.center) for f in fields}, max(f.r_max for f in fields)
    if len(centers) > 1:
        raise ValueError(f"the fields are expanded about different centers {sorted(centers)}")
    center = fields[0].center
    if not (r_max <= R and R * R < math.inf):  # the weights grow as R^2
        raise ValueError(f"sphere radius {R} does not enclose the surface (r_max={r_max}) or has an infinite square")
    n_theta, n_phi = ERROR_SPHERE_RULE
    theta, phi, weights = geometry.sphere_grid(n_theta, n_phi)
    points = np.asarray(center) + R * geometry.spherical_frame(theta, phi)[1]
    values = harmonics.sphere_grid_values([f.coefficients for f in fields], R, theta[::n_phi], phi[:n_phi])
    exact = {key: np.asarray(oracle(points), dtype=float) for key, oracle in {id(o): o for o in oracles}.items()}
    diffs = (v - exact[id(oracle)] for v, oracle in zip(values, oracles))
    weights = weights * (R * R)  # the sphere's Jacobian R * sqrt(R^2), which equals R^2 in binary floating point
    return [SphereError(l2=float(np.sqrt(np.sum(weights * d**2))), sup=float(np.max(np.abs(d)))) for d in diffs]


def sup_residual(rule, field: ExteriorField, data: BoundaryData) -> float:
    """Node-max boundary misfit of the fitted field (C(S)-norm diagnostic)."""
    return float(np.max(np.abs(_trace(field, rule, data.bc, data.sigma) - data.values)))


def interior_source_or_raise(spec, z) -> None:
    """Validate that z lies strictly inside the inscribed sphere of spec."""
    if np.linalg.norm(np.asarray(z, dtype=float) - np.asarray(spec.center)) >= geometry.radius_bounds(spec)[0]:
        raise ConfigError("source point must lie inside the inscribed sphere")
