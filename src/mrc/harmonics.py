"""Real orthonormal spherical harmonics and exterior harmonics.

Basis functions are Y_lm(theta, phi) on the unit sphere and their exterior
counterparts h_lm(x) = Y_lm(x/|x|) / |x|^(l+1), which are harmonic and decay
at infinity. Everything is real-valued: for m > 0 the azimuthal factor is
sqrt(2)*cos(m*phi), for m < 0 it is sqrt(2)*sin(|m|*phi). The normalization
is folded into the Legendre three-term recurrence so evaluation is stable up
to degree 64; no Condon-Shortley phase is applied.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import spherical_frame

# Hard cap on the expansion degree. r^(l+1) dynamic range wrecks the
# conditioning of any fit long before this.
ELL_MAX = 64

_SQRT2 = math.sqrt(2.0)


def n_terms(ell_max: int) -> int:
    """Number of (l, m) pairs with 0 <= l <= ell_max."""
    return (ell_max + 1) ** 2


def flatten(ell: int, m: int) -> int:
    """Flat index k = l^2 + m + l; degrees 0..L occupy 0..(L+1)^2-1."""
    if ell < 0 or abs(m) > ell:
        raise ValueError(f"invalid harmonic index (ell={ell}, m={m})")
    return ell * ell + m + ell


def unflatten(k: int) -> tuple[int, int]:
    """Inverse of :func:`flatten`."""
    if k < 0:
        raise ValueError(f"invalid flat index {k}")
    ell = math.isqrt(k)
    return ell, k - ell * ell - ell


def degrees(ell_max: int) -> np.ndarray:
    """Array mapping flat index -> degree l, for 0 <= l <= ell_max."""
    return np.repeat(np.arange(ell_max + 1), 2 * np.arange(ell_max + 1) + 1)


def _legendre(ell_max: int, theta: np.ndarray):
    """Yield (l, P[l, m], P[l-1, m]) for the degrees l = 0..ell_max in turn, for
    m = 0..l (so P[l-1, l] = 0), each P of shape theta.shape + (l+1,).

    The fully normalized recurrence

        P[m, m] = a[m, m] * sin(theta)^m
        P[l, m] = a[l, m] * cos(theta) * P[l-1, m] + b[l, m] * P[l-2, m]

    runs over all orders m of a degree at once and keeps only the last two
    degrees. The sphere normalization, with its 1/sqrt(4*pi), sits in
    a[m, m], so the real harmonics built from P are orthonormal.
    """
    x, s = np.cos(theta)[..., None], np.sin(theta)
    p1 = np.empty(theta.shape + (0,))  # P[l-1, m], m = 0..l-1
    p2 = np.empty(theta.shape + (0,))  # P[l-2, m], m = 0..l-2, and a zero column
    amm = 1.0
    for ell in range(ell_max + 1):
        m = np.arange(ell + 1)
        k = m[:-2]  # the orders that have a P[l-2, m]
        if ell > 0:
            amm *= (2 * ell + 1) / (2 * ell)
        a = np.sqrt((4 * ell * ell - 1) / (ell * ell - m[:-1] ** 2))
        b = np.zeros(ell)
        b[: ell - 1] = -np.sqrt((2 * ell + 1) * ((ell - 1) ** 2 - k * k) / ((2 * ell - 3) * (ell * ell - k * k)))
        p = np.empty(theta.shape + (ell + 1,))
        p[..., :ell] = a * x * p1 + b * p2
        p[..., ell] = math.sqrt(amm / (4.0 * math.pi)) * s**ell
        p1, p2 = p, np.concatenate([p1, np.zeros(theta.shape + (1,))], axis=-1)
        yield ell, p, p2


def azimuthal(ell_max: int, phi: np.ndarray) -> np.ndarray:
    """The azimuthal factors, shape phi.shape + (2*ell_max+1,): entry ell_max+m
    is 1 for m = 0, sqrt(2)*cos(m*phi) for m > 0 and sqrt(2)*sin(|m|*phi) for
    m < 0, so the degree-l slice lists the orders m = -l..l in flat order.
    Every evaluation calls this before the recurrence, so ell_max is checked here."""
    if not 0 <= ell_max <= ELL_MAX:
        raise ValueError(f"ell_max must be in [0, {ELL_MAX}], got {ell_max}")
    az = np.empty(phi.shape + (2 * ell_max + 1,))
    az[..., ell_max] = 1.0
    for m in range(1, ell_max + 1):
        az[..., ell_max + m] = _SQRT2 * np.cos(m * phi)
        az[..., ell_max - m] = _SQRT2 * np.sin(m * phi)
    return az


def azimuthal_coefficients(values: np.ndarray, ell_max: int) -> np.ndarray:
    """The coefficients against azimuthal's factors of the rows of `values`, sampled on the uniform
    phi-lines 2*pi*j/n_phi (the last axis): shape values.shape[:-1] + (2*ell_max+1,) in azimuthal's
    order, equal to values @ az / n_phi, and exact while 2*ell_max < n_phi. A real FFT takes them
    at the grid's exact angles; the table's cos(m*phi) carries the rounding of m*phi, which near
    m = 28 leaks about 1e-14 of the data between orders."""
    spectrum = np.fft.rfft(values, axis=-1)[..., : ell_max + 1] / values.shape[-1]
    out = np.empty(values.shape[:-1] + (2 * ell_max + 1,))
    out[..., ell_max] = spectrum[..., 0].real
    out[..., ell_max + 1 :] = _SQRT2 * spectrum[..., 1:].real  # cos(m phi)
    out[..., :ell_max] = -_SQRT2 * spectrum[..., ell_max:0:-1].imag  # sin(|m| phi), m = -ell_max..-1
    return out


def _legendre_lines(ell_max: int, theta: np.ndarray, derivatives: bool = False):
    """An iterator of (l, P[l, m], dP[l, m]/dtheta) for the degrees l = 0..ell_max in turn, m = 0..l,
    each of shape theta.shape + (l+1,): the theta-factors of the harmonics. The derivative is None
    unless requested. It is refused at a pole (sin(theta) = 0), where its 1/sin(theta) factor is
    not finite; Gauss nodes never lie there.
    """
    s = np.sin(theta)
    if derivatives and np.any(np.abs(s) < 1e-13):
        raise ValueError("angular derivatives are singular at the poles")
    x = np.cos(theta)[..., None]
    def line(ell: int, p: np.ndarray, p_prev: np.ndarray) -> tuple:
        if not derivatives:
            return ell, p, None
        # dP/dtheta = (l*x*P[l,m] - c[l,m]*P[l-1,m]) / sin(theta)
        c = np.sqrt((2 * ell + 1) / (2 * ell - 1) * (ell * ell - np.arange(ell + 1) ** 2)) if ell > 0 else np.zeros(1)
        return ell, p, (ell * x * p - c * p_prev) / s[..., None]
    return itertools.starmap(line, _legendre(ell_max, theta))  # unlike a generator, starmap holds no drawn block


def _legendre_blocks(ell_max: int, theta: np.ndarray, phi: np.ndarray, derivatives: bool = False):
    """An iterator of (Y, dY/dtheta, dY/dphi) for the degrees l = 0..ell_max in turn.

    theta and phi broadcast: equal-length arrays give scattered points, a
    column of theta-lines against a row of phi-lines their theta-major grid.
    The recurrence runs on theta (_legendre_lines) and the sines and cosines
    on phi; a point's value is the product of the two either way, so a grid
    node gets the bits of its angles given point by point. Block l has shape
    (n_points, 2l+1) in flat order; the derivatives are None unless requested,
    and refused at a pole.
    """
    lines = _legendre_lines(ell_max, theta, derivatives)
    az = azimuthal(ell_max, phi)
    def block(ell: int, p: np.ndarray, dp: np.ndarray | None) -> tuple:
        m = np.arange(-ell, ell + 1)
        pm = p[..., np.abs(m)]  # P[l, |m|] in flat order
        azl = az[..., ell_max - ell : ell_max + ell + 1]
        Y = (pm * azl).reshape(-1, 2 * ell + 1)
        if not derivatives:
            return Y, None, None
        dYdt = (dp[..., np.abs(m)] * azl).reshape(-1, 2 * ell + 1)
        # d/dphi maps cos(m phi) to -m sin(m phi) and sin(m phi) to m cos(m phi): order m
        # takes -m times the factor of order -m; order 0 does not depend on phi
        dYdp = (-m * pm * azl[..., ::-1]).reshape(-1, 2 * ell + 1)
        dYdp[:, ell] = 0.0
        return Y, dYdt, dYdp
    return itertools.starmap(block, lines)


def ylm(ell_max: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate all Y_lm with l <= ell_max at angles (theta, phi): shape
    (n_points, (ell_max+1)^2) in flat index order."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return np.concatenate([Y for Y, _, _ in _legendre_blocks(ell_max, theta, phi)], axis=1)


def _gradient_block(ell: int, blocks: tuple, r: np.ndarray, frame: tuple) -> tuple[np.ndarray, ...]:
    """The x, y and z components, each (n, 2l+1), of the Cartesian gradients of the degree-l exterior harmonics.

    Spherical components about the center: radial -(l+1)*Y/r^(l+2), polar
    (dY/dtheta)/r^(l+2), azimuthal (dY/dphi)/(sin(theta)*r^(l+2)).
    """
    Y, dYdt, dYdp = blocks
    s, rhat, that, phat = frame
    with np.errstate(over="ignore"):  # far out r^(l+2) is inf, and the gradient 0
        rpow = r[:, None] ** (ell + 2)
    rad = -(ell + 1) * Y / rpow
    pol = dYdt / rpow
    azi = dYdp / (s[:, None] * rpow)
    return tuple(rad * rhat[:, j, None] + pol * that[:, j, None] + azi * phat[:, j, None] for j in range(3))


def _angles_of(x, center=(0.0, 0.0, 0.0)) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
    """(whether x is one point, r, theta, phi) of the Cartesian point(s) x about center."""
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x) - np.asarray(center, dtype=float)
    r = np.linalg.norm(points, axis=1)
    if np.any(r == 0.0):
        raise ValueError("evaluation at the expansion center is singular")
    theta = np.arccos(np.clip(points[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(points[:, 1], points[:, 0])
    return x.ndim == 1, r, theta, phi


def eval_Y(ell_max: int, alpha) -> np.ndarray:
    """All Y_lm at unit direction(s) alpha; |alpha| must be 1 to 1e-12."""
    single, norms, theta, phi = _angles_of(alpha)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError("alpha must be a unit vector (|alpha| = 1 to 1e-12)")
    Y = ylm(ell_max, theta, phi)
    return Y[0] if single else Y


def eval_h(ell_max: int, x, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Exterior harmonics h_lm(x) = Y_lm((x-c)/r) / r^(l+1), r = |x-c|."""
    single, r, theta, phi = _angles_of(x, center)
    h = np.empty((r.shape[0], n_terms(ell_max)))
    for ell, (Y, _, _) in enumerate(_legendre_blocks(ell_max, theta, phi)):
        with np.errstate(over="ignore"):  # far out r^(l+1) is inf, and h 0
            np.divide(Y, r[:, None] ** (ell + 1), out=h[:, ell * ell : (ell + 1) ** 2])
    return h[0] if single else h


def node_blocks(ell_max: int, rule, gradients: bool = False):
    """An iterator of (h, n . grad h) at the rule's nodes, one (n_nodes, 2l+1) block
    per degree l = 0..ell_max; the second entry is None without gradients.

    The center and angles are the rule's own: r is measured from rule.center, the recurrence
    runs on its theta-lines and the azimuthal factors on its phi-lines, and each node's block
    is bit-equal to that of its angles given point by point. A caller that needs the degrees
    one batch at a time keeps the iterator; each block is built when drawn, and held by the caller only.
    """
    r = np.linalg.norm(rule.points - np.asarray(rule.center), axis=1)
    frame = spherical_frame(rule.theta, rule.phi) if gradients else None
    nx, ny, nz = rule.normals.T[:, :, None]
    def block(ell: int, blocks: tuple) -> tuple:
        with np.errstate(over="ignore"):  # far out r^(l+1) is inf, and h 0
            rpow = r[:, None] ** (ell + 1)
        h = blocks[0] / rpow
        if not gradients:
            return h, None
        gx, gy, gz = _gradient_block(ell, blocks, r, frame)
        return h, (nx * gx + nz * gz) + ny * gy  # einsum's order: bit-equal to einsum over the stacked gradient
    return map(block, range(ell_max + 1), _legendre_blocks(ell_max, rule.theta_line[:, None], rule.phi_line, gradients))


def line_blocks(ell_max: int, rule, gradients: bool = False):
    """An iterator of the theta-line factors of (h, n . grad h) on a surface of revolution about the
    z-axis through rule.center, one (n_theta, l+1) block per degree l = 0..ell_max, whose column k
    serves the orders m = +-k: the value at node (i, j) is row i times azimuthal's factor of m at
    phi-line j. The second entry is None without gradients.

    r and the normal's radial and polar components are read at each theta-line's first node. The
    normal has no azimuthal component on such a surface, so
    n . grad h = (n_r * -(l+1) * P[l, k] + n_theta * dP[l, k]/dtheta) / r^(l+2) holds exactly.
    """
    first = slice(None, None, rule.n_phi)
    r = np.linalg.norm(rule.points[first] - np.asarray(rule.center), axis=1)[:, None]
    if gradients:
        _, rhat, that, _ = spherical_frame(rule.theta_line, rule.phi[first])
        n_r, n_t = (np.einsum("ij,ij->i", rule.normals[first], e)[:, None] for e in (rhat, that))
    def block(ell: int, p: np.ndarray, dp: np.ndarray | None) -> tuple:
        with np.errstate(over="ignore"):  # far out r^(l+1) and r^(l+2) are inf, and the factors 0
            return p / r ** (ell + 1), (n_r * (-(ell + 1) * p) + n_t * dp) / r ** (ell + 2) if gradients else None
    return itertools.starmap(block, _legendre_lines(ell_max, rule.theta_line, gradients))


def sphere_grid_values(coefficients: list[np.ndarray], radius: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The expansions sum_k c_k h_k, one per coefficient vector, on the sphere
    |x - c| = radius about their center, at the theta-major grid of the theta-
    and phi-lines: shape (len(coefficients), len(theta) * len(phi)). Per order
    m, the sum over l of c_lm * radius^-(l+1) * P[l, |m|] is taken on each
    theta-line, then multiplied by the phi-lines' azimuthal factors."""
    ell_max = max(math.isqrt(c.shape[0]) - 1 for c in coefficients)
    padded = np.stack([np.pad(c, (0, n_terms(ell_max) - c.shape[0])) for c in coefficients])
    az = azimuthal(ell_max, phi)
    sums = np.zeros((len(coefficients), theta.shape[0], 2 * ell_max + 1))  # field, theta-line, ell_max + m
    for ell, p, _ in _legendre(ell_max, theta):
        with np.errstate(over="ignore"):  # a far sphere's radius ** (l+1) is inf, and its terms 0
            c = padded[:, None, ell * ell : (ell + 1) ** 2] / np.float64(radius) ** (ell + 1)
        sums[:, :, ell_max - ell : ell_max + ell + 1] += c * p[:, np.abs(np.arange(-ell, ell + 1))]
    return (sums @ az.T).reshape(len(coefficients), -1)
