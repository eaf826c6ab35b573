import math

import numpy as np
import pytest

from mrc import geometry as G
from mrc import harmonics as H

SQRT_4PI = math.sqrt(4.0 * math.pi)


def test_flat_index_bijection():
    k = 0
    for ell in range(65):
        for m in range(-ell, ell + 1):
            assert H.flatten(ell, m) == k
            assert H.unflatten(k) == (ell, m)
            k += 1
    assert k == H.n_terms(64)


def test_flat_index_rejects_bad_orders():
    with pytest.raises(ValueError):
        H.flatten(2, 3)
    with pytest.raises(ValueError):
        H.flatten(-1, 0)


def test_y00_is_constant():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        assert H.eval_Y(0, a)[0] == pytest.approx(0.2820947917738781, abs=1e-15)


def test_zonal_value_at_pole():
    y = H.eval_Y(1, [0.0, 0.0, 1.0])
    assert y[H.flatten(1, 0)] == pytest.approx(0.4886025119029199, abs=1e-15)
    assert y[H.flatten(1, 1)] == 0.0
    assert y[H.flatten(1, -1)] == 0.0


def test_y53_matches_extended_precision_oracle():
    # Frozen from sympy: sqrt(2)*sqrt(11/(4*pi)*2!/8!)*P_5^3(cos 1)*cos 6
    # evaluated at 30 digits (Condon-Shortley stripped):
    # 0.455474682676830691927635545069
    alpha = np.array([np.sin(1.0) * np.cos(2.0), np.sin(1.0) * np.sin(2.0), np.cos(1.0)])
    got = H.eval_Y(5, alpha)[H.flatten(5, 3)]
    assert got == pytest.approx(0.45547468267683069, abs=1e-15)

    sympy = pytest.importorskip("sympy")
    x = sympy.cos(sympy.Integer(1))
    P = sympy.assoc_legendre(5, 3, x) * (-1) ** 3
    N = sympy.sqrt(sympy.Rational(11) / (4 * sympy.pi) * sympy.factorial(2) / sympy.factorial(8))
    oracle = float(sympy.N(sympy.sqrt(2) * N * P * sympy.cos(3 * sympy.Integer(2)), 30))
    assert oracle == pytest.approx(0.45547468267683069, abs=1e-16)

    # degree 64, the cap: the normalized recurrence stays accurate
    Y = H.eval_Y(64, alpha)
    for m in (0, 1, 32, 63, 64):
        P = sympy.assoc_legendre(64, m, x) * (-1) ** m
        N = sympy.sqrt(sympy.Rational(129) / (4 * sympy.pi) * sympy.factorial(64 - m) / sympy.factorial(64 + m))
        azimuthal = sympy.sqrt(2) * sympy.cos(m * sympy.Integer(2)) if m else 1
        oracle = float(sympy.N(azimuthal * N * P, 30))
        assert Y[H.flatten(64, m)] == pytest.approx(oracle, abs=5e-15)


def test_non_unit_direction_rejected():
    with pytest.raises(ValueError):
        H.eval_Y(2, [0.0, 0.0, 1.0 + 1e-9])


def test_discrete_orthonormality_to_L20():
    L = 20
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), L + 1, 2 * L + 1)
    Y = H.eval_Y(L, rule.points)
    gram = (Y * rule.weights[:, None]).T @ Y
    assert np.max(np.abs(gram - np.eye(H.n_terms(L)))) <= 1e-12


def test_eval_h_trivial_values():
    x = np.array([0.0, 0.0, 2.0])
    assert H.eval_h(0, x)[0] == pytest.approx(1.0 / (2.0 * SQRT_4PI), rel=1e-15)
    # on the unit sphere h_lm = Y_lm
    a = np.array([0.3, -0.5, np.sqrt(1 - 0.34)])
    assert np.allclose(H.eval_h(8, a), H.eval_Y(8, a), rtol=0, atol=1e-14)


def test_eval_h_at_center_raises():
    with pytest.raises(ValueError):
        H.eval_h(2, [0.0, 0.0, 0.0])


def test_finite_difference_harmonicity():
    # central second differences of h_lm vanish relative to the local scale
    rng = np.random.default_rng(7)
    L = 10
    for _ in range(100):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        r = rng.uniform(1.1, 3.0)
        x = r * d
        step = 1e-4 * r
        h0 = H.eval_h(L, x)
        lap = -6.0 * h0
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            lap = lap + H.eval_h(L, x + e) + H.eval_h(L, x - e)
        lap /= step**2
        # local scale of each basis member: |h| * (l+1)(l+2) / r^2
        ells = H.degrees(L)
        scale = (np.abs(h0) + np.max(np.abs(h0))) * (ells + 1) * (ells + 2) / r**2
        assert np.max(np.abs(lap) / scale) <= 1e-5


def test_decay_rate():
    rng = np.random.default_rng(3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    L = 8
    ells = H.degrees(L)
    ref = H.eval_h(L, 2.0 * d) * 2.0 ** (ells + 1)
    for t in (4.0, 8.0):
        scaled = H.eval_h(L, t * d) * t ** (ells + 1)
        assert np.allclose(scaled, ref, rtol=1e-12, atol=1e-15)


def node_normal_derivatives(L, rule):
    """n . grad h of every h_lm with l <= L at the rule's nodes, as node_blocks gives it."""
    return np.concatenate([dn for _, dn in H.node_blocks(L, rule, True)], axis=1)


def test_grad_h00_closed_form():
    # n . grad h_00 = -1 / (sqrt(4 pi) a^2) on a sphere of radius a about any center
    a = 1.7
    rule = G.build_quadrature(G.SurfaceSpec.sphere(a, (0.4, -1.1, 2.3)), 12, 24)
    assert np.allclose(node_normal_derivatives(0, rule)[:, 0], -1.0 / (SQRT_4PI * a**2), rtol=1e-14, atol=0)


def test_gradient_euler_homogeneity():
    # h_lm is homogeneous of degree -(l+1), and a sphere's normal is radial: n . grad h = -(l+1) h / a
    a, L = 1.3, 8
    rule = G.build_quadrature(G.SurfaceSpec.sphere(a, (0.2, 0.5, -0.3)), 16, 32)
    for ell, (h, dn) in enumerate(H.node_blocks(L, rule, True)):
        assert np.allclose(dn, -(ell + 1) * h / a, rtol=1e-12, atol=1e-14)


def test_gradient_matches_finite_differences():
    # central differences of eval_h along the normals of a bumpy surface about an offset center
    center = (0.3, -0.2, 0.1)
    rule = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3, center=center), 12, 24)
    L, step = 8, 1e-6
    dn = node_normal_derivatives(L, rule)
    forward = H.eval_h(L, rule.points + step * rule.normals, center)
    backward = H.eval_h(L, rule.points - step * rule.normals, center)
    fd = (forward - backward) / (2 * step)
    assert np.max(np.abs(dn - fd)) / np.max(np.abs(dn)) <= 1e-6


def test_pole_derivatives_rejected():
    with pytest.raises(ValueError):
        H._legendre_blocks(3, np.array([0.0]), np.array([0.0]), derivatives=True)


def test_ell_max_cap():
    with pytest.raises(ValueError):
        H.eval_Y(65, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("gradients", [False, True])
def test_grid_blocks_equal_scattered_blocks(gradients):
    # The benchmark's floor stop sits at round-off, so the grid path must not move a bit of the design matrix.
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2)
    rule = G.build_quadrature(spec, 42, 82)
    L = 20
    scattered = list(H._legendre_blocks(L, rule.theta, rule.phi, gradients))
    grid = list(H._legendre_blocks(L, rule.theta_line[:, None], rule.phi_line, gradients))
    assert len(grid) == len(scattered) == L + 1
    for a, b in zip(grid, scattered):
        assert all(x is y is None or np.array_equal(x, y) for x, y in zip(a, b))
    # node_blocks against the same quantities formed from the scattered blocks
    r = np.linalg.norm(rule.points - np.asarray(rule.center), axis=1)
    s, rhat, that, phat = G.spherical_frame(rule.theta, rule.phi)
    nodes = list(H.node_blocks(L, rule, gradients))
    assert len(nodes) == L + 1
    for ell, ((h, dn), (Y, dYdt, dYdp)) in enumerate(zip(nodes, scattered)):
        assert np.array_equal(h, Y / r[:, None] ** (ell + 1))
        if gradients:
            # the Cartesian gradient from its spherical components, radial -(l+1)*Y/r^(l+2),
            # polar (dY/dtheta)/r^(l+2) and azimuthal (dY/dphi)/(sin(theta)*r^(l+2))
            rpow = r[:, None] ** (ell + 2)
            rad, pol, azi = -(ell + 1) * Y / rpow, dYdt / rpow, dYdp / (s[:, None] * rpow)
            grad = np.stack([rad * rhat[:, j, None] + pol * that[:, j, None] + azi * phat[:, j, None]
                             for j in range(3)], axis=-1)
            assert np.array_equal(dn, np.einsum("ij,ikj->ik", rule.normals, grad))
        else:
            assert dn is None


def far_h():
    return [H.eval_h(10, np.array([[1e150, 0.0, 0.0], [0.0, 2e150, 1e150]]))]


def far_node_blocks():
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1e150), 12, 24)
    return [np.concatenate(b, axis=1) for b in zip(*H.node_blocks(10, rule, True))]  # h, then n . grad h


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("evaluate", [far_h, far_node_blocks], ids=["eval_h", "node_blocks"])
def test_far_evaluation_is_finite_and_silent(evaluate):
    # r ** (l+1) and r ** (l+2) overflow to inf out here, where the terms are 0; each printed
    # "RuntimeWarning: overflow encountered in power" (an mrc solve with a far field radius,
    # or on a sphere of radius 1e150, exited 0 after it)
    for values in evaluate():
        assert np.all(np.isfinite(values))
        assert np.all(values[:, H.n_terms(1):] == 0.0)


def test_azimuthal_equals_the_per_order_table_bit_for_bit():
    # one outer product of phi and the orders gives the bits of m * phi taken order by order
    rng = np.random.default_rng(4)
    for shape in ((), (82,), (130,), (7, 3), (2048,)):
        phi = rng.uniform(0.0, 2.0 * np.pi, shape)
        for L in (0, 1, 5, 40, 64):
            table = np.empty(shape + (2 * L + 1,))
            table[..., L] = 1.0
            for m in range(1, L + 1):
                table[..., L + m] = math.sqrt(2.0) * np.cos(m * phi)
                table[..., L - m] = math.sqrt(2.0) * np.sin(m * phi)
            az = H.azimuthal(L, phi)
            assert az.shape == table.shape and az.tobytes() == table.tobytes()


def test_azimuthal_coefficients_take_the_grid_angles_exactly():
    # values @ azimuthal / n_phi, by a real FFT: the table's cos(m * phi) carries the rounding of
    # m * phi, 3.5e-15 here, which an order-split solve would see as a floor of about 1.5e-14
    n_phi, L = 62, 30
    values = np.random.default_rng(1).standard_normal((6, n_phi))
    j = np.arange(n_phi)
    exact = np.empty((6, 2 * L + 1))
    exact[:, L] = values.mean(axis=1)
    for m in range(1, L + 1):
        angle = 2.0 * np.pi * ((m * j) % n_phi) / n_phi  # reduced before it is rounded
        exact[:, L + m] = values @ (np.sqrt(2.0) * np.cos(angle)) / n_phi
        exact[:, L - m] = values @ (np.sqrt(2.0) * np.sin(angle)) / n_phi
    coefficients = H.azimuthal_coefficients(values, L)
    assert np.max(np.abs(coefficients - exact)) <= 5e-16
    table = values @ H.azimuthal(L, G.uniform_phi_line(n_phi)) / n_phi
    assert np.max(np.abs(coefficients - table)) <= 1e-14
