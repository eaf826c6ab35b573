"""Star-shaped surfaces and surface quadrature.

A surface is given by a radial function rho(theta, phi) > 0 about a center.
Quadrature tensors Gauss-Legendre nodes in cos(theta) with a uniform
trapezoid rule in phi; the Gauss-Legendre substitution absorbs the
sin(theta) of the surface measure, so the weight carries only the
star-shaped Jacobian J = rho * sqrt(rho^2 + rho_theta^2 + rho_phi^2/sin^2).
Gauss nodes never hit the poles, so the 1/sin(theta) in J is always finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, GeometryError

_FD_STEP = 1e-6  # central-difference step (radians) for custom shapes


@dataclass(frozen=True)
class SurfaceSpec:
    """A star-shaped boundary r = rho(theta, phi) about `center`.

    Presets ("sphere", "spheroid", "cosine_bump") carry analytic angular
    derivatives; a "custom" spec falls back to central differences and is
    flagged via `uses_fd_derivatives`.
    """

    kind: str
    params: dict = field(default_factory=dict)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rho_fn: Callable | None = None  # custom shapes only

    def __post_init__(self):
        if self.kind not in ("sphere", "spheroid", "cosine_bump", "custom"):
            raise ConfigError(f"unknown surface preset {self.kind!r}")
        if self.kind == "custom":
            if self.rho_fn is None:
                raise ConfigError("custom surface requires rho_fn")
            return
        p = self.params
        a = p.get("a")
        if a is None or a <= 0:
            raise ConfigError(f"surface {self.kind!r} requires radius a > 0")
        if self.kind == "spheroid" and not -1 < p.get("e", 0.0):
            raise ConfigError("spheroid eccentricity must satisfy e > -1")
        if self.kind == "cosine_bump":
            if p.get("k", 2) < 1:
                raise ConfigError("cosine_bump exponent k must be >= 1")
            if abs(p.get("delta", 0.0)) >= 1:
                raise ConfigError("cosine_bump amplitude must satisfy |delta| < 1")

    # -- constructors -------------------------------------------------

    @staticmethod
    def sphere(a: float, center=(0.0, 0.0, 0.0)) -> "SurfaceSpec":
        return SurfaceSpec("sphere", {"a": float(a)}, tuple(center))

    @staticmethod
    def spheroid(a: float, e: float, center=(0.0, 0.0, 0.0)) -> "SurfaceSpec":
        """rho(theta) = a * (1 + e * cos(theta)^2)."""
        return SurfaceSpec("spheroid", {"a": float(a), "e": float(e)}, tuple(center))

    @staticmethod
    def cosine_bump(a: float, delta: float, k: int = 2, p: int = 3, center=(0.0, 0.0, 0.0)) -> "SurfaceSpec":
        """rho(theta, phi) = a * (1 + delta * sin(theta)^k * cos(p*phi))."""
        return SurfaceSpec(
            "cosine_bump",
            {"a": float(a), "delta": float(delta), "k": int(k), "p": int(p)},
            tuple(center),
        )

    @property
    def uses_fd_derivatives(self) -> bool:
        return self.kind == "custom"

    # -- radial function and derivatives -------------------------------

    def rho(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        p = self.params
        if self.kind == "sphere":
            return np.broadcast_to(p["a"], np.broadcast(theta, phi).shape).copy()
        if self.kind == "spheroid":
            return p["a"] * (1.0 + p["e"] * np.cos(theta) ** 2) * np.ones_like(phi)
        if self.kind == "cosine_bump":
            return p["a"] * (1.0 + p["delta"] * np.sin(theta) ** p["k"] * np.cos(p["p"] * phi))
        return np.asarray(self.rho_fn(theta, phi), dtype=float)

    def rho_derivatives(self, theta, phi):
        """(d rho/d theta, d rho/d phi); analytic for presets."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        p = self.params
        if self.kind == "sphere":
            z = np.zeros(np.broadcast(theta, phi).shape)
            return z, z.copy()
        if self.kind == "spheroid":
            dt = -2.0 * p["a"] * p["e"] * np.cos(theta) * np.sin(theta)
            return dt * np.ones_like(phi), np.zeros(np.broadcast(theta, phi).shape)
        if self.kind == "cosine_bump":
            a, d, k, pp = p["a"], p["delta"], p["k"], p["p"]
            dt = a * d * k * np.sin(theta) ** (k - 1) * np.cos(theta) * np.cos(pp * phi)
            dp = -a * d * pp * np.sin(theta) ** k * np.sin(pp * phi)
            return dt, dp
        dt = (self.rho_fn(theta + _FD_STEP, phi) - self.rho_fn(theta - _FD_STEP, phi)) / (2 * _FD_STEP)
        dp = (self.rho_fn(theta, phi + _FD_STEP) - self.rho_fn(theta, phi - _FD_STEP)) / (2 * _FD_STEP)
        return np.asarray(dt, dtype=float), np.asarray(dp, dtype=float)


@dataclass(frozen=True)
class QuadratureRule:
    """Surface nodes with weights approximating the surface integral.

    Immutable after construction; safe to share across threads.
    """

    theta: np.ndarray  # (n,)
    phi: np.ndarray  # (n,)
    points: np.ndarray  # (n, 3) Cartesian positions on S
    normals: np.ndarray  # (n, 3) unit outward normals
    weights: np.ndarray  # (n,) positive surface weights
    n_theta: int
    n_phi: int

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def area(self) -> float:
        return float(self.weights.sum())

    def resolves(self, ell_max: int) -> bool:
        """Whether discrete orthonormality holds through degree ell_max."""
        return self.n_theta >= ell_max + 1 and self.n_phi >= 2 * ell_max + 1


def build_quadrature(spec: SurfaceSpec, n_theta: int, n_phi: int) -> QuadratureRule:
    """Gauss-Legendre (cos theta) x trapezoid (phi) rule on the surface."""
    if n_theta < 2 or n_phi < 4:
        raise ConfigError(f"need n_theta >= 2 and n_phi >= 4, got ({n_theta}, {n_phi})")

    xg, wg = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(xg)  # decreasing in x -> increasing theta ordering below
    order = np.argsort(theta_1d)
    theta_1d, wg = theta_1d[order], wg[order]
    phi_1d = 2.0 * np.pi * np.arange(n_phi) / n_phi

    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    wq = np.repeat(wg, n_phi) * (2.0 * np.pi / n_phi)

    rho = spec.rho(theta, phi)
    if not np.all((rho > 0.0) & (rho < np.inf)):
        raise GeometryError(f"surface radius is non-positive or not finite at some nodes ({spec.kind})")
    rho_t, rho_p = spec.rho_derivatives(theta, phi)

    s, c = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    rhat = np.stack([s * cp, s * sp, c], axis=1)
    that = np.stack([c * cp, c * sp, -s], axis=1)
    phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)

    center = np.asarray(spec.center, dtype=float)
    points = center + rho[:, None] * rhat

    jac = rho * np.sqrt(rho**2 + rho_t**2 + (rho_p / s) ** 2)
    weights = wq * jac

    # grad(r - rho) in spherical components, normalized
    nvec = rhat - (rho_t / rho)[:, None] * that - (rho_p / (rho * s))[:, None] * phat
    normals = nvec / np.linalg.norm(nvec, axis=1)[:, None]

    return QuadratureRule(
        theta=theta, phi=phi, points=points, normals=normals,
        weights=weights, n_theta=n_theta, n_phi=n_phi,
    )


_SCAN_GRID = (1441, 2880)  # dense angular grid for radius extrema
_SCAN_ROWS = 64  # theta rows per chunk of the scan


def radius_bounds(spec: SurfaceSpec) -> tuple[float, float]:
    """(inscribed, enclosing) radius from one scan of a dense angular grid.

    The inscribed radius is the min of rho (no safety factor: shrinking is
    safe); the enclosing one is the max with a tiny safety factor. The grid
    is scanned in row chunks; min and max do not depend on the order.
    """
    nt, np_ = _SCAN_GRID
    theta = np.linspace(0.0, np.pi, nt)
    phi = np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)
    lo, hi = np.inf, -np.inf
    for i in range(0, nt, _SCAN_ROWS):
        rho = spec.rho(theta[i : i + _SCAN_ROWS, None], phi[None, :])
        lo, hi = np.minimum(lo, rho.min()), np.maximum(hi, rho.max())  # both keep a NaN
    if not (lo > 0.0 and hi < np.inf):
        raise GeometryError("surface radius is non-positive or not finite somewhere")
    return float(lo), float(hi) * (1.0 + 1e-9)


def enclosing_radius(spec: SurfaceSpec) -> float:
    """Max of rho over a dense grid, with a tiny safety factor."""
    return radius_bounds(spec)[1]


def inscribed_radius(spec: SurfaceSpec) -> float:
    """Min of rho over a dense grid (no safety factor: shrinking is safe)."""
    return radius_bounds(spec)[0]
