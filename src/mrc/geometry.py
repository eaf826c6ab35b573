"""Star-shaped surfaces and surface quadrature.

A surface is given by a radial function rho(theta, phi) > 0 about a center.
Quadrature tensors Gauss-Legendre nodes in cos(theta) with a uniform
trapezoid rule in phi; the Gauss-Legendre substitution absorbs the
sin(theta) of the surface measure, so the weight carries only the
star-shaped Jacobian J = rho * sqrt(rho^2 + rho_theta^2 + rho_phi^2/sin^2).
Gauss nodes never hit the poles, so the 1/sin(theta) in J is always finite.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, GeometryError, require_number, require_point

_FD_STEP = 1e-6  # central-difference step (radians) for custom shapes


class Preset(NamedTuple):
    params: dict  # name -> default, None if required; an int default makes an int parameter
    rho: Callable  # rho(theta, phi, **params)
    drho: Callable  # (d rho/d theta, d rho/d phi) = drho(theta, phi, **params)
    bounds: Callable  # (min, max) of rho = bounds(**params), in closed form
    checks: tuple  # (predicate(**params), what it requires) pairs
    axisymmetric: bool = False  # rho does not depend on phi: a surface of revolution about the z-axis through center
    rotation_order: Callable = lambda **params: 1  # p = rotation_order(**params): rho is p-fold symmetric about it
    z_mirror: bool = False  # rho(pi - theta, phi) = rho(theta, phi): z -> -z through center maps it to itself


def _shape(theta, phi):
    return np.broadcast(theta, phi).shape


_A_POSITIVE = (lambda a, **_: a > 0, "radius a > 0")

PRESETS = {
    "sphere": Preset(
        {"a": None},
        lambda t, f, a: np.broadcast_to(a, _shape(t, f)).copy(),
        lambda t, f, a: (np.zeros(_shape(t, f)), np.zeros(_shape(t, f))),
        lambda a: (a, a),
        (_A_POSITIVE,),
        axisymmetric=True,
        z_mirror=True,
    ),
    "spheroid": Preset(
        {"a": None, "e": None},
        lambda t, f, a, e: a * (1.0 + e * np.cos(t) ** 2) * np.ones_like(f),
        lambda t, f, a, e: (-2.0 * a * e * np.cos(t) * np.sin(t) * np.ones_like(f), np.zeros(_shape(t, f))),
        lambda a, e: (min(a, a * (1.0 + e)), max(a, a * (1.0 + e))),  # at the equator and the poles
        (_A_POSITIVE, (lambda e, **_: e > -1, "eccentricity e > -1")),
        axisymmetric=True,
        z_mirror=True,
    ),
    "cosine_bump": Preset(
        {"a": None, "delta": None, "k": 2, "p": 3},
        lambda t, f, a, delta, k, p: a * (1.0 + delta * np.sin(t) ** k * np.cos(p * f)),
        lambda t, f, a, delta, k, p: (
            a * delta * k * np.sin(t) ** (k - 1) * np.cos(t) * np.cos(p * f),
            -a * delta * p * np.sin(t) ** k * np.sin(p * f),
        ),
        lambda a, delta, k, p: (a * (1.0 - abs(delta)), a * (1.0 + abs(delta))),  # at theta = pi/2, cos(p phi) = +-1
        (_A_POSITIVE, (lambda k, **_: k >= 1, "exponent k >= 1"), (lambda p, **_: p >= 1, "azimuthal order p >= 1"),
         (lambda delta, **_: abs(delta) < 1, "amplitude |delta| < 1")),
        rotation_order=lambda p, **_: p,
        z_mirror=True,
    ),
}


@dataclass(frozen=True)
class SurfaceSpec:
    """A star-shaped boundary r = rho(theta, phi) about `center`.

    A preset kind is a key of PRESETS, with analytic angular derivatives;
    its params are checked against the table, completed with its defaults
    and converted to their types. Each preset also has a constructor,
    SurfaceSpec.<kind>(<params in table order>, center=(0, 0, 0)). A
    "custom" spec falls back to central differences of `rho_fn` and is
    flagged via `uses_fd_derivatives`.
    """

    kind: str
    params: dict = field(default_factory=dict)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rho_fn: Callable | None = None  # custom shapes only

    def __post_init__(self):
        object.__setattr__(self, "center", require_point("surface center", self.center))
        if self.kind == "custom":
            if self.rho_fn is None:
                raise ConfigError("custom surface requires rho_fn")
            return
        preset = PRESETS.get(self.kind) if isinstance(self.kind, str) else None
        if preset is None:
            raise ConfigError(f"unknown surface preset {self.kind!r}")
        required = {name for name, default in preset.params.items() if default is None}
        if not isinstance(self.params, dict) or not required <= set(self.params) <= set(preset.params):
            raise ConfigError(f"surface {self.kind!r} takes the parameters {list(preset.params)} "
                              f"(required: {sorted(required)}), got {self.params!r}")
        params = {name: require_number(f"surface parameter {name!r}", self.params.get(name, default),
                                       int if isinstance(default, int) else float)
                  for name, default in preset.params.items()}
        object.__setattr__(self, "params", params)
        for holds, requirement in preset.checks:
            if not holds(**params):
                raise ConfigError(f"surface {self.kind!r} requires {requirement}")

    @property
    def uses_fd_derivatives(self) -> bool:
        return self.kind == "custom"

    @property
    def axisymmetric(self) -> bool:
        """Whether the preset declares a surface of revolution about the z-axis through the center; custom is not."""
        return self.kind != "custom" and PRESETS[self.kind].axisymmetric

    @property
    def rotation_order(self) -> int:
        """The order p of the rotations about the z-axis through the center that the preset declares map the
        surface to itself (p for cosine_bump); 1 for every other preset and for a custom surface."""
        return 1 if self.kind == "custom" else PRESETS[self.kind].rotation_order(**self.params)

    @property
    def z_mirror(self) -> bool:
        """Whether the preset declares the surface invariant under the mirror z -> -z through the center
        (theta -> pi - theta): every preset does; a custom surface does not."""
        return self.kind != "custom" and PRESETS[self.kind].z_mirror

    # -- radial function and derivatives -------------------------------

    def rho(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.rho_fn(theta, phi), dtype=float)
        return PRESETS[self.kind].rho(theta, phi, **self.params)

    def rho_derivatives(self, theta, phi):
        """(d rho/d theta, d rho/d phi); analytic for presets."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if self.kind != "custom":
            return PRESETS[self.kind].drho(theta, phi, **self.params)
        dt = (self.rho_fn(theta + _FD_STEP, phi) - self.rho_fn(theta - _FD_STEP, phi)) / (2 * _FD_STEP)
        dp = (self.rho_fn(theta, phi + _FD_STEP) - self.rho_fn(theta, phi - _FD_STEP)) / (2 * _FD_STEP)
        return np.asarray(dt, dtype=float), np.asarray(dp, dtype=float)


def _preset_constructor(kind: str):
    """The staticmethod SurfaceSpec.<kind>, with the preset's parameters, in
    table order and with its defaults, then `center`."""
    signature = inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=inspect.Parameter.empty if default is None else default)
        for name, default in [*PRESETS[kind].params.items(), ("center", (0.0, 0.0, 0.0))]
    ])

    def construct(*args, **kwargs) -> SurfaceSpec:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        params = dict(bound.arguments)
        return SurfaceSpec(kind, params, params.pop("center"))

    construct.__name__, construct.__signature__ = kind, signature
    return staticmethod(construct)


for _kind in PRESETS:
    setattr(SurfaceSpec, _kind, _preset_constructor(_kind))


@dataclass(frozen=True)
class QuadratureRule:
    """Surface nodes with weights approximating the surface integral.

    The nodes are the grid of n_theta theta-lines and n_phi phi-lines,
    theta-major: node i * n_phi + j has angles (theta_line[i], phi_line[j])
    about `center`, the point the lines are measured from.
    Immutable after construction; safe to share across threads.
    """

    theta: np.ndarray  # (n,)
    phi: np.ndarray  # (n,)
    points: np.ndarray  # (n, 3) Cartesian positions on S
    normals: np.ndarray  # (n, 3) unit outward normals
    weights: np.ndarray  # (n,) positive surface weights
    n_theta: int
    n_phi: int
    center: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", require_point("rule center", self.center))
        if not (np.array_equal(self.theta, np.repeat(self.theta_line, self.n_phi))
                and np.array_equal(self.phi, np.tile(self.phi_line, self.n_theta))):
            raise ValueError("the nodes must be the theta-major grid of n_theta theta-lines and n_phi phi-lines")

    @property
    def theta_line(self) -> np.ndarray:
        """The n_theta polar angles of the grid, one per theta-line."""
        return self.theta[:: self.n_phi]

    @property
    def phi_line(self) -> np.ndarray:
        """The n_phi azimuths of the grid, one per phi-line."""
        return self.phi[: self.n_phi]

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def area(self) -> float:
        return float(self.weights.sum())


def spherical_frame(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """sin(theta) and the unit vectors r-hat, theta-hat, phi-hat, each (n, 3)."""
    s, c = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    rhat = np.stack([s * cp, s * sp, c], axis=1)
    that = np.stack([c * cp, c * sp, -s], axis=1)
    phat = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    return s, rhat, that, phat


# The largest rule: twice the theta-lines and phi-lines that the highest degree (harmonics.ELL_MAX = 64) needs.
# Every auto rule fits (at most 66 x 258 at L_max = 64, n_phi rounded up to a rotation order).
MAX_RULE = (130, 260)


def max_degree(n_theta: int, n_phi: int) -> int:
    """The highest degree through which an n_theta x n_phi rule keeps discrete orthonormality; a ConfigError
    for a rule under 2 x 4 or above MAX_RULE, before anything is allocated."""
    if not (2 <= n_theta <= MAX_RULE[0] and 4 <= n_phi <= MAX_RULE[1]):
        raise ConfigError(f"need 2 <= n_theta <= {MAX_RULE[0]} and 4 <= n_phi <= {MAX_RULE[1]}, "
                          f"got ({n_theta}, {n_phi})")
    return min(n_theta - 1, (n_phi - 1) // 2)


def uniform_phi_line(n_phi: int) -> np.ndarray:
    """The n_phi azimuths 2*pi*j/n_phi, j = 0..n_phi-1, of every rule build_quadrature makes."""
    return 2.0 * np.pi * np.arange(n_phi) / n_phi


@functools.cache
def _gauss_legendre_lines(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """The n_theta Gauss-Legendre polar angles, increasing, and their weights; computed once per size and
    read-only, as every caller shares them."""
    xg, wg = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = np.arccos(xg)  # decreasing in x -> increasing theta ordering below
    order = np.argsort(theta_1d)
    lines = theta_1d[order], wg[order]
    for a in lines:
        a.flags.writeable = False
    return lines


def sphere_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, phi, weights) of the Gauss-Legendre (cos theta) x trapezoid (phi) rule on the
    unit sphere, theta-major: n_theta theta-lines of n_phi nodes each."""
    max_degree(n_theta, n_phi)  # the size check, before the rule is computed or cached
    theta_1d, wg = _gauss_legendre_lines(n_theta)
    phi_1d = uniform_phi_line(n_phi)
    return np.repeat(theta_1d, n_phi), np.tile(phi_1d, n_theta), np.repeat(wg, n_phi) * (2.0 * np.pi / n_phi)


def build_quadrature(spec: SurfaceSpec, n_theta: int, n_phi: int) -> QuadratureRule:
    """The sphere_grid rule carried onto the surface: its weights times the Jacobian."""
    theta, phi, wq = sphere_grid(n_theta, n_phi)
    rho = spec.rho(theta, phi)
    rho_t, rho_p = spec.rho_derivatives(theta, phi)
    s, rhat, that, phat = spherical_frame(theta, phi)

    points = np.asarray(spec.center) + rho[:, None] * rhat

    with np.errstate(over="ignore"):  # an overflowing Jacobian is refused below
        weights = wq * (rho * np.sqrt(rho**2 + rho_t**2 + (rho_p / s) ** 2))
    if not np.all((weights > 0.0) & (weights < np.inf)):  # also refuses a radius that is not positive and finite
        raise GeometryError(f"surface radius or weight is non-positive or not finite at some nodes ({spec.kind})")

    # grad(r - rho) in spherical components, normalized
    nvec = rhat - (rho_t / rho)[:, None] * that - (rho_p / (rho * s))[:, None] * phat
    normals = nvec / np.linalg.norm(nvec, axis=1)[:, None]

    return QuadratureRule(
        theta=theta, phi=phi, points=points, normals=normals,
        weights=weights, n_theta=n_theta, n_phi=n_phi, center=spec.center,
    )


def auto_quadrature(spec: SurfaceSpec, L_max: int) -> QuadratureRule:
    """The default rule for degrees up to L_max: n_theta = L_max+2, n_phi = 2*L_max+2 (at least 4), rounded
    up to a multiple of the spec's rotation order p when p <= n_phi, so that the rule is p-fold symmetric too."""
    n_phi, p = max(2 * L_max + 2, 4), spec.rotation_order
    return build_quadrature(spec, L_max + 2, -(-n_phi // p) * p if p <= n_phi else n_phi)


_SCAN_GRID = (1441, 2880)  # dense angular grid for the radius extrema of a custom surface
_SCAN_ROWS = 64  # theta rows per chunk of the scan


def _scan_radius_bounds(spec: SurfaceSpec) -> tuple[float, float]:
    """(min, max) of rho on a dense angular grid, scanned in row chunks (min and max
    do not depend on the order); a NaN anywhere makes both NaN."""
    nt, np_ = _SCAN_GRID
    theta = np.linspace(0.0, np.pi, nt)
    phi = np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)
    lo, hi = np.inf, -np.inf
    for i in range(0, nt, _SCAN_ROWS):
        rho = spec.rho(theta[i : i + _SCAN_ROWS, None], phi[None, :])
        lo, hi = np.minimum(lo, rho.min()), np.maximum(hi, rho.max())  # both keep a NaN
    return lo, hi


def radius_bounds(spec: SurfaceSpec) -> tuple[float, float]:
    """(inscribed, enclosing) radius: a preset's closed form, a custom surface's dense scan.

    The inscribed radius is the min of rho (no safety factor: shrinking is
    safe); the enclosing one is the max with a tiny safety factor.
    """
    lo, hi = _scan_radius_bounds(spec) if spec.kind == "custom" else PRESETS[spec.kind].bounds(**spec.params)
    if not (lo > 0.0 and hi < np.inf):
        raise GeometryError("surface radius is non-positive or not finite somewhere")
    return float(lo), float(hi) * (1.0 + 1e-9)
