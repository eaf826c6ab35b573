import dataclasses

import numpy as np
import pytest

from mrc import geometry as G
from mrc import harmonics as H
from mrc.errors import ConfigError, GeometryError


def test_sphere_area_exact():
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 16, 32)
    assert abs(rule.area - 4 * np.pi) / (4 * np.pi) <= 1e-12


def test_sphere_nodes_and_normals_radial():
    rule = G.build_quadrature(G.SurfaceSpec.sphere(2.0), 12, 24)
    r = np.linalg.norm(rule.points, axis=1)
    assert np.allclose(r, 2.0, rtol=0, atol=1e-14)
    assert np.allclose(rule.normals, rule.points / 2.0, rtol=0, atol=1e-14)


def test_normals_point_outward():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 24, 48)
    assert np.all(np.einsum("ij,ij->i", rule.normals, rule.points) > 0)
    assert np.allclose(np.linalg.norm(rule.normals, axis=1), 1.0, atol=1e-14)


def test_bump_area_self_convergence():
    # refined rule as the oracle: area must be grid-converged
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    coarse = G.build_quadrature(spec, 48, 96)
    fine = G.build_quadrature(spec, 96, 192)
    assert abs(coarse.area - fine.area) / fine.area <= 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        G.SurfaceSpec.sphere(1.3),
        G.SurfaceSpec.spheroid(1.0, 0.5),
        G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3),
    ],
    ids=["sphere", "spheroid", "bump"],
)
def test_refinement_stability(spec):
    a1 = G.build_quadrature(spec, 32, 64).area
    a2 = G.build_quadrature(spec, 64, 128).area
    assert abs(a1 - a2) / a2 <= 1e-10


@pytest.mark.parametrize(
    "spec",
    [G.SurfaceSpec.spheroid(1.0, 0.5), G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)],
    ids=["spheroid", "bump"],
)
def test_normals_orthogonal_to_fd_tangents(spec):
    rule = G.build_quadrature(spec, 20, 40)
    eps = 1e-6

    def surf(theta, phi):
        rho = spec.rho(theta, phi)
        return np.stack(
            [rho * np.sin(theta) * np.cos(phi), rho * np.sin(theta) * np.sin(phi), rho * np.cos(theta)],
            axis=-1,
        )

    t_theta = (surf(rule.theta + eps, rule.phi) - surf(rule.theta - eps, rule.phi)) / (2 * eps)
    t_phi = (surf(rule.theta, rule.phi + eps) - surf(rule.theta, rule.phi - eps)) / (2 * eps)
    for tang in (t_theta, t_phi):
        norms = np.linalg.norm(tang, axis=1)
        dots = np.abs(np.einsum("ij,ij->i", rule.normals, tang)) / np.maximum(norms, 1e-12)
        assert np.max(dots) <= 1e-6


def test_enclosing_radius_presets():
    assert G.radius_bounds(G.SurfaceSpec.sphere(1.0))[1] == pytest.approx(1.0, rel=1e-8)
    assert G.radius_bounds(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3))[1] == pytest.approx(1.2, rel=1e-6)
    assert G.radius_bounds(G.SurfaceSpec.spheroid(1.0, 0.5))[1] == pytest.approx(1.5, rel=1e-8)


def test_inscribed_radius_presets():
    assert G.radius_bounds(G.SurfaceSpec.spheroid(1.0, 0.5))[0] == pytest.approx(1.0, rel=1e-8)
    assert G.radius_bounds(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3))[0] == pytest.approx(0.8, rel=1e-6)


def test_all_nodes_inside_enclosing_radius():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 48, 96)
    R = G.radius_bounds(spec)[1]
    assert np.all(np.linalg.norm(rule.points, axis=1) <= R)


def test_node_count_minimums():
    with pytest.raises(ConfigError):
        G.build_quadrature(G.SurfaceSpec.sphere(1.0), 1, 32)
    with pytest.raises(ConfigError):
        G.build_quadrature(G.SurfaceSpec.sphere(1.0), 8, 3)


@pytest.mark.parametrize("spec, L_max, shape", [
    (G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 40, (42, 84)),  # 82 phi-lines rounded up to a multiple of 3
    (G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 30, (32, 63)),
    (G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 64), 12, (14, 26)),  # 64 lobes, more than 26 phi-lines: kept
    (G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 10**200), 40, (42, 82)),
    (G.SurfaceSpec.spheroid(1.0, 0.5), 40, (42, 82)),
    (G.SurfaceSpec("custom", rho_fn=lambda t, f: 1.0 + 0.1 * np.cos(t) ** 2), 40, (42, 82)),
], ids=["p3-L40", "p3-L30", "p64-L12", "p1e200-L40", "spheroid", "custom"])
def test_auto_rule_rounds_n_phi_up_to_the_rotation_order(monkeypatch, spec, L_max, shape):
    monkeypatch.setattr(G, "build_quadrature", lambda spec, n_theta, n_phi: (n_theta, n_phi))
    assert G.auto_quadrature(spec, L_max) == shape


MIRROR_SAMPLES = {  # each preset with parameters to check its declarations on
    "sphere": [G.SurfaceSpec.sphere(1.2)],
    "spheroid": [G.SurfaceSpec.spheroid(1.0, 0.5), G.SurfaceSpec.spheroid(2.0, -0.3)],
    "cosine_bump": [G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), G.SurfaceSpec.cosine_bump(1.5, -0.4, 3, 5)],
}


@pytest.mark.parametrize("kind", sorted(G.PRESETS))
def test_a_declared_z_mirror_holds(kind):
    # a fold by z -> -z (theta -> pi - theta) needs rho even in theta about pi/2, so d rho/d theta odd and
    # d rho/d phi even; one by y -> -y (phi -> -phi) needs rho even in phi, so d rho/d theta even and d rho/d phi
    # odd. Every preset declares both mirrors; a custom surface declares nothing
    rng = np.random.default_rng(7)
    theta, phi = rng.uniform(0.0, np.pi, 200), rng.uniform(0.0, 2.0 * np.pi, 200)
    for spec in MIRROR_SAMPLES[kind]:
        assert spec.mirrors == G.PRESETS[kind].mirrors
        if spec.mirrors:
            r, r_t, r_p = spec.rho(theta, phi), *spec.rho_derivatives(theta, phi)
            for (t, f), (s_t, s_p) in (((np.pi - theta, phi), (-1, 1)), ((theta, -phi), (1, -1))):
                m, m_t, m_p = spec.rho(t, f), *spec.rho_derivatives(t, f)
                assert np.allclose(m, r, rtol=1e-14, atol=0.0)
                assert np.allclose(m_t, s_t * r_t, rtol=0.0, atol=1e-14 * np.max(r))
                assert np.allclose(m_p, s_p * r_p, rtol=0.0, atol=1e-14 * np.max(r))
    assert not G.SurfaceSpec("custom", rho_fn=lambda t, f: 1.0 + 0.0 * t).mirrors


def test_each_gauss_legendre_size_is_computed_once_and_shared_read_only():
    theta, _, weights = G.sphere_grid(12, 24)
    lines = G._gauss_legendre_lines(12)
    assert G._gauss_legendre_lines(12) is lines
    assert all(not a.flags.writeable for a in lines)
    assert np.array_equal(theta[::24], lines[0]) and np.array_equal(weights[::24], lines[1] * (2.0 * np.pi / 24))
    x, w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(np.sort(np.arccos(x)), lines[0]) and np.array_equal(w[::-1], lines[1])


def test_every_auto_rule_fits_under_the_size_cap(monkeypatch):
    # rounding n_phi up to a rotation order p <= n_phi leaves it below 2 n_phi: at most 66 x 258 at L_max = 64
    monkeypatch.setattr(G, "build_quadrature", lambda spec, n_theta, n_phi: (n_theta, n_phi))
    for L_max in range(H.ELL_MAX + 1):
        for p in range(1, 2 * H.ELL_MAX + 8):
            shape = G.auto_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, p), L_max)
            assert G.max_degree(*shape) >= L_max  # a ConfigError above the cap
            assert shape[1] % p == 0 or p > shape[1]
    with pytest.raises(ConfigError):
        G.max_degree(G.MAX_RULE[0] + 1, G.MAX_RULE[1])


def test_max_degree_of_the_auto_rule_and_every_system_is_tall():
    # the auto rule for L >= 1 resolves exactly L (for L = 0 it is the 2 x 4 minimum); on any rule, the
    # degrees it resolves have fewer columns, (L+1)^2, than it has nodes: every system the loop solves is tall
    assert all(G.max_degree(L + 2, 2 * L + 2) == L for L in range(1, H.ELL_MAX + 1))
    assert G.max_degree(2, 4) == 1
    for n_theta in range(2, H.ELL_MAX + 3):
        for n_phi in range(4, 2 * H.ELL_MAX + 3):
            assert n_theta * n_phi > (G.max_degree(n_theta, n_phi) + 1) ** 2


def test_negative_radius_surface_rejected():
    spec = G.SurfaceSpec("custom", rho_fn=lambda t, p: np.cos(t) + 0.5 + 0.0 * p)
    with pytest.raises(GeometryError):
        G.build_quadrature(spec, 16, 32)


def test_bad_preset_params_rejected():
    with pytest.raises(ConfigError):
        G.SurfaceSpec.sphere(-1.0)
    with pytest.raises(ConfigError):
        G.SurfaceSpec.cosine_bump(1.0, 1.5)
    with pytest.raises(ConfigError):
        G.SurfaceSpec("octahedron", {"a": 1.0})
    for p in (0, -3):  # p = 0 is a surface of revolution, p = -3 that of p = 3 again
        with pytest.raises(ConfigError, match="p >= 1"):
            G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, p)


def test_custom_shape_fd_fallback_flagged():
    spec = G.SurfaceSpec("custom", rho_fn=lambda t, p: 1.0 + 0.1 * np.cos(t) ** 2 + 0.0 * p)
    assert spec.uses_fd_derivatives
    rule = G.build_quadrature(spec, 32, 64)
    analytic = G.build_quadrature(G.SurfaceSpec.spheroid(1.0, 0.1), 32, 64)
    assert abs(rule.area - analytic.area) / analytic.area <= 1e-9
    assert np.max(np.abs(rule.normals - analytic.normals)) <= 1e-6


def test_offset_center():
    center = (0.5, -0.25, 1.0)
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0, center), 16, 32)
    assert np.allclose(np.linalg.norm(rule.points - np.asarray(center), axis=1), 1.0, atol=1e-14)


def test_nan_radius_at_nodes_rejected():
    spec = G.SurfaceSpec("custom", rho_fn=lambda t, p: np.where(np.cos(p) > 0.9, np.nan, 1.0))
    with pytest.raises(GeometryError):
        G.build_quadrature(spec, 12, 24)


def test_nan_radius_between_nodes_rejected():
    # NaN only at the pole, which quadrature nodes never hit: the scan must see it
    spec = G.SurfaceSpec("custom", rho_fn=lambda t, p: np.where(t == 0.0, np.nan, 1.0) + 0.0 * p)
    G.build_quadrature(spec, 12, 24)
    with pytest.raises(GeometryError):
        G.radius_bounds(spec)


def _scanned(spec):
    """The radius bounds of spec's surface given as a custom rho_fn: the dense scan's."""
    return G.radius_bounds(G.SurfaceSpec("custom", rho_fn=spec.rho, center=spec.center))


def test_radius_scan_matches_full_grid():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 3, 5)
    nt, np_ = G._SCAN_GRID
    rho = spec.rho(np.linspace(0.0, np.pi, nt)[:, None], np.linspace(0.0, 2.0 * np.pi, np_, endpoint=False)[None, :])
    assert _scanned(spec) == (rho.min(), rho.max() * (1.0 + 1e-9))


def test_preset_radius_bounds_equal_the_scan_where_its_grid_holds_the_extremes():
    # the scan's grid holds the equator, the poles, phi = 0 and phi = pi/p for these p: there the closed
    # forms (a, a), the min and max of a and a(1 + e), and a(1 -+ |delta|) are its min and max to the bit
    specs = [G.SurfaceSpec.sphere(1.2), G.SurfaceSpec.spheroid(1.0, 0.5), G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3),
             G.SurfaceSpec.sphere(0.3), G.SurfaceSpec.spheroid(1.3, -0.4), G.SurfaceSpec.spheroid(0.7, 2.5)]
    specs += [G.SurfaceSpec.cosine_bump(1.1, delta, k, p, center=(0.1, 0.0, -0.2))
              for k in range(1, 5) for p in [*range(1, 13), 16] for delta in (0.2, -0.35)]
    assert [spec for spec in specs if G.radius_bounds(spec) != _scanned(spec)] == []


def test_preset_inscribed_radius_is_the_valley_the_scan_misses():
    # 64 lobes put the valleys at phi = pi/64 + k pi/32, between the scan's phi-lines
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 64)
    assert G.radius_bounds(spec)[0] == 1.0 * (1.0 - 0.2) < _scanned(spec)[0]
    assert np.min(spec.rho(np.pi / 2, np.pi / 64 + np.arange(64) * np.pi / 32)) == pytest.approx(0.8, rel=1e-14)


def test_rule_that_is_not_the_theta_phi_grid_is_refused():
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 6, 10)
    assert np.array_equal(rule.theta_line, np.unique(rule.theta))
    assert np.array_equal(rule.phi_line, 2.0 * np.pi * np.arange(10) / 10)
    dataclasses.replace(rule)  # the grid itself is accepted
    perm = np.random.default_rng(0).permutation(rule.n_nodes)
    arrays = ("theta", "phi", "points", "normals", "weights")
    for changes in (
        {name: getattr(rule, name)[perm] for name in arrays},  # scattered nodes
        {"theta": np.tile(rule.theta_line, 10), "phi": np.repeat(rule.phi_line, 6)},  # phi-major
        {"n_theta": 10, "n_phi": 6},  # the shape read the other way
        {name: getattr(rule, name)[:-1] for name in arrays},  # a node short
    ):
        with pytest.raises(ValueError, match="theta-major grid"):
            dataclasses.replace(rule, **changes)


@pytest.mark.parametrize("spec", [G.SurfaceSpec.sphere(1e300), G.SurfaceSpec.spheroid(1.0, 1e300)],
                         ids=["sphere-a-1e300", "spheroid-e-1e300"])
def test_overflowing_weights_are_geometry_error(spec):
    # the radius is finite, but the weight rho * sqrt(rho^2 + ...) overflows: the loop then
    # failed its first solve and exited 4 with "adaptive loop terminated before completing a single solve"
    with np.errstate(over="ignore"), pytest.raises(GeometryError, match="weight"):
        G.build_quadrature(spec, 12, 24)


def test_rule_center_is_a_checked_point():
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0, (0.5, 0.0, 0.0)), 6, 10)
    assert rule.center == (0.5, 0.0, 0.0)
    assert dataclasses.replace(rule, center=np.array([0.5, 0, 0])).center == (0.5, 0.0, 0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(rule, center=(0.5, 0.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [G.SurfaceSpec.sphere(1e300), G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 10**200)],
                         ids=["sphere-a-1e300", "cosine_bump-p-1e200"])
def test_overflowing_jacobian_is_refused_without_a_warning(spec):
    # the Jacobian's squares overflowed with "RuntimeWarning: overflow encountered in square" before
    # the weight check refused them, so an exit-3 run printed more than its one-line message
    with pytest.raises(GeometryError, match="weight"):
        G.build_quadrature(spec, 12, 24)
