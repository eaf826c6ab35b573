import math
import tracemalloc

import numpy as np
import pytest

import mrc
from mrc import driver as D
from mrc import fields as F
from mrc import geometry as G
from mrc import harmonics as H

SQRT_4PI = math.sqrt(4.0 * math.pi)


def make_field(coeffs, r_min=1.0, r_max=1.0, center=(0, 0, 0)):
    return F.ExteriorField(tuple(center), np.asarray(coeffs, dtype=float), r_min, r_max)


def test_eval_field_monopole():
    field = make_field([1.0])
    assert field([0.0, 0.0, 5.0]) == pytest.approx(1.0 / (5.0 * SQRT_4PI), rel=1e-15)


def test_eval_field_zero_coefficients():
    field = make_field(np.zeros(16))
    pts = np.array([[2.0, 0, 0], [0, 3.0, 1.0]])
    assert np.all(field(pts) == 0.0)


def test_eval_inside_inscribed_sphere_refused():
    field = make_field([1.0], r_min=1.0)
    with pytest.raises(ValueError):
        field([0.0, 0.0, 0.5])


def test_multipole_center_source():
    c = F.multipole_coefficients([0.0, 0.0, 0.0], 1.0, 4)
    assert c[0] == pytest.approx(SQRT_4PI, rel=1e-15)
    assert np.all(c[1:] == 0.0)


def test_multipole_validated_against_projection():
    # mandated pre-validation: coefficients must equal the direct quadrature
    # projection of f(s) = 1/|s - z| onto Y_lm over the unit sphere
    z = np.array([0.3, 0.0, 0.0])
    L = 10
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 40, 80)
    f = 1.0 / np.linalg.norm(rule.points - z, axis=1)
    Y = H.eval_Y(L, rule.points)
    projection = (Y * rule.weights[:, None]).T @ f  # h_lm = Y_lm on the unit sphere
    assert np.max(np.abs(F.multipole_coefficients(z, 1.0, L) - projection)) <= 1e-10


def test_multipole_off_axis_source():
    z = np.array([0.1, -0.2, 0.15])
    L = 8
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 40, 80)
    f = 2.5 / np.linalg.norm(rule.points - z, axis=1)
    Y = H.eval_Y(L, rule.points)
    projection = (Y * rule.weights[:, None]).T @ f
    assert np.max(np.abs(F.multipole_coefficients(z, 2.5, L) - projection)) <= 1e-10


def test_multipole_geometric_tail_bound():
    z = np.array([0.3, 0.0, 0.0])
    rng = np.random.default_rng(9)
    for L in (4, 8, 12):
        field = make_field(F.multipole_coefficients(z, 1.0, L), r_min=0.3, r_max=0.3)
        d = rng.normal(size=3)
        x = 0.6 * d / np.linalg.norm(d)  # |x| = 2 |z|
        exact = 1.0 / np.linalg.norm(x - z)
        bound = (0.3 / 0.6) ** (L + 1) * 2.0 / (0.6 - 0.3)
        assert abs(field(x) - exact) <= bound


def test_fitted_point_source_field_matches_oracle():
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 32, 64)
    oracle = F.PointSource([0.3, 0.0, 0.0])
    data = F.boundary_data_from_oracle(rule, oracle)
    eps = 1e-8
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=eps))
    x = np.array([0.0, 0.0, 3.0])
    assert abs(report.field(x) - oracle([x])[0]) <= 10 * eps


def test_error_on_sphere_identical_field():
    z = np.array([0.2, 0.1, 0.0])
    c = F.multipole_coefficients(z, 1.0, 12)
    field = make_field(c, r_min=1.0, r_max=1.0)
    oracle = F.BandLimited(c)
    err = F.error_on_enclosing_sphere(field, oracle, 2.0)
    assert err.l2 <= 1e-13
    assert err.sup <= 1e-13


def test_error_on_sphere_equals_explicit_tail():
    # field = multipole truncation at L; oracle carries degrees up to L_hi.
    # The error on S_R must equal the quadrature norm of the explicit tail.
    z = np.array([0.3, 0.0, 0.0])
    L, L_hi, R = 6, 14, 2.0
    c_lo = F.multipole_coefficients(z, 1.0, L)
    c_hi = F.multipole_coefficients(z, 1.0, L_hi)
    field = make_field(c_lo, r_min=1.0, r_max=1.0)
    oracle = F.BandLimited(c_hi)
    err = F.error_on_enclosing_sphere(field, oracle, R)

    tail = c_hi.copy()
    tail[: H.n_terms(L)] = 0.0
    rule = G.build_quadrature(G.SurfaceSpec.sphere(R), 64, 128)
    tail_vals = H.eval_h(L_hi, rule.points) @ tail
    tail_norm = np.sqrt(np.sum(rule.weights * tail_vals**2))
    assert err.l2 == pytest.approx(tail_norm, rel=1e-10, abs=1e-14)


def test_error_spheres_by_synthesis_match_direct_evaluation():
    # two fields of different degree, the wider one second: each reads its own columns of the synthesis
    rng = np.random.default_rng(4)
    center, R = (0.1, -0.2, 0.3), 2.5
    narrow = make_field(rng.normal(size=H.n_terms(6)), r_min=0.8, r_max=1.2, center=center)
    wide = make_field(rng.normal(size=H.n_terms(15)), r_min=0.8, r_max=1.2, center=center)
    oracles = [F.PointSource(center), lambda x: np.zeros(len(x))]
    errors = F.errors_on_enclosing_sphere([narrow, wide], oracles, R)
    rule = G.build_quadrature(G.SurfaceSpec.sphere(R, center), *F.ERROR_SPHERE_RULE)
    for field, oracle, err in zip([narrow, wide], oracles, errors):
        d = field(rule.points) - oracle(rule.points)
        assert err.l2 == pytest.approx(np.sqrt(np.sum(rule.weights * d**2)), rel=1e-13)
        assert err.sup == pytest.approx(np.max(np.abs(d)), rel=1e-13)


def test_error_spheres_evaluate_a_shared_oracle_once():
    # cells with the same data share one oracle object: three fields against it read the oracle once,
    # and each field's error is bit-equal to its own call
    calls = []

    class Counting(F.PointSource):
        def __call__(self, x):
            calls.append(len(x))
            return super().__call__(x)

    oracle = Counting([0.3, 0.0, 0.0])
    fields = [make_field(F.multipole_coefficients(oracle.z, 1.0, L)) for L in (4, 9, 15)]
    errors = F.errors_on_enclosing_sphere(fields, [oracle] * 3, 2.0)
    assert len(calls) == 1
    for field, err in zip(fields, errors):
        alone = F.error_on_enclosing_sphere(field, oracle, 2.0)
        assert (err.l2, err.sup) == (alone.l2, alone.sup)


def test_error_spheres_of_fields_about_different_centers_refused():
    # the batch placed every field's sphere about the first field's center: the field about (5, 0, 0),
    # with an L2 error of 1.1e-15 alone, read 2.21 beside one about the origin
    fields, oracles = [], []
    for center in [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0)]:
        z = np.add(center, [0.3, 0.0, 0.0])
        fields.append(make_field(F.multipole_coefficients(z, 1.0, 30, center), center=center))
        oracles.append(F.PointSource(z))
    assert F.error_on_enclosing_sphere(fields[1], oracles[1], 2.0).l2 <= 1e-13
    with pytest.raises(ValueError, match="different centers"):
        F.errors_on_enclosing_sphere(fields, oracles, 2.0)


def test_error_spheres_check_every_fields_radius():
    fields = [make_field([1.0], r_min=1.0, r_max=1.0), make_field([1.0], r_min=1.0, r_max=1.5)]
    with pytest.raises(ValueError, match="does not enclose"):
        F.errors_on_enclosing_sphere(fields, [F.PointSource([0, 0, 0])] * 2, 1.2)


def test_field_evaluation_memory_is_bounded():
    # one (n_points, (L+1)^2) table for all points: 20 000 points at L = 40 peaked at 335 MB
    field = make_field(np.random.default_rng(5).normal(size=H.n_terms(40)))
    d = np.random.default_rng(6).normal(size=(20_000, 3))
    points = 2.0 * d / np.linalg.norm(d, axis=1)[:, None]
    tracemalloc.start()
    try:
        field(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80e6
    few = points[: 2 * F.EVAL_CHUNK + 100]  # two whole chunks and a part
    table = H.eval_h(40, few)  # the unchunked table, whose rows each chunk's table must repeat bit for bit
    chunks = [table[i : i + F.EVAL_CHUNK] @ field.coefficients for i in range(0, len(few), F.EVAL_CHUNK)]
    values = field(few)
    assert np.array_equal(values, np.concatenate(chunks))
    # one product over all rows is bit-equal at one BLAS thread; with more, OpenBLAS takes the last rows of
    # each thread's share by another kernel, and moves those of the product by an ulp
    full = table @ field.coefficients
    assert np.max(np.abs(values - full)) <= 4 * np.finfo(float).eps * np.max(np.abs(full))


def test_field_trace_memory_is_bounded():
    # the trace is summed degree by degree: the whole (n_nodes, (L+1)^2) table of a degree-40 field on a
    # 42 x 82 rule peaked at 93 MB
    rule = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 42, 82)
    field = F.BandLimited(np.random.default_rng(8).normal(size=H.n_terms(40)))
    tracemalloc.start()
    try:
        values = F.boundary_data_from_oracle(rule, field).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6
    table = np.concatenate([h for h, _ in H.node_blocks(40, rule)], axis=1)
    full = table @ field.coefficients
    assert np.max(np.abs(values - full)) <= 1e-12 * np.max(np.abs(full))


def test_non_square_coefficients_rejected_at_construction():
    with pytest.raises(ValueError):
        F.ExteriorField((0.0, 0.0, 0.0), np.ones(5), 1.0, 1.0)
    with pytest.raises(ValueError):
        F.BandLimited(np.ones(5))


def test_error_sphere_radius_too_small():
    field = make_field([1.0], r_min=1.0, r_max=1.5)
    with pytest.raises(ValueError):
        F.error_on_enclosing_sphere(field, F.PointSource([0, 0, 0]), 1.2)


def test_sup_residual_exact_band_limited_fit():
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 24, 48)
    c = np.zeros(H.n_terms(3))
    c[H.flatten(3, 2)] = 1.0
    oracle = F.BandLimited(c)
    data = F.boundary_data_from_oracle(rule, oracle)
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-10, L_start=0))
    assert F.sup_residual(rule, report.field, data) <= 1e-11


def test_sup_residual_zero_data():
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 16, 32)
    data = F.BoundaryData(bc="dirichlet", values=np.zeros(rule.n_nodes))
    field = make_field(np.zeros(9))
    assert F.sup_residual(rule, field, data) == 0.0


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "robin"])
def test_trace_about_another_center_refused(bc):
    # the trace is taken from the columns of node_blocks about rule.center, so a field about another point has none
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 16, 32)
    c = np.zeros(H.n_terms(2))
    c[H.flatten(2, 1)] = 1.0
    oracle = F.BandLimited(c, center=(0.1, 0.0, 0.0))
    with pytest.raises(ValueError, match="expanded about"):
        F.boundary_data_from_oracle(rule, oracle, bc, 0.5)
    data = F.BoundaryData(bc=bc, values=np.zeros(rule.n_nodes), sigma=0.5)
    for field in (oracle, make_field(c, r_min=0.5, r_max=1.0, center=(0.1, 0.0, 0.0))):
        with pytest.raises(ValueError, match="expanded about"):
            F.sup_residual(rule, field, data)


def test_sup_residual_inside_inscribed_sphere_refused():
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 16, 32)
    data = F.BoundaryData(bc="neumann", values=np.zeros(rule.n_nodes))
    with pytest.raises(ValueError, match="inscribed sphere"):
        F.sup_residual(rule, make_field(np.ones(9), r_min=1.5, r_max=2.0), data)


def test_fitted_field_far_decay():
    # t * v(t * xhat) approaches the monopole amplitude like 1/t; the
    # leftover at finite t is the dipole term |c_1| * Y / t
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 32, 64)
    oracle = F.PointSource([0.25, 0.0, 0.1])
    data = F.boundary_data_from_oracle(rule, oracle)
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-8))
    xhat = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    limit = report.coefficients[0] / SQRT_4PI
    gaps = [abs(t * report.field(t * xhat) - limit) for t in (1e3, 1e4, 1e5, 1e6)]
    assert gaps == sorted(gaps, reverse=True)
    tail_scale = np.linalg.norm(report.coefficients[1:])
    assert gaps[0] <= tail_scale / 1e3  # 1/t rate with bounded Y factor
    assert gaps[-1] <= 1e-6


def test_near_centered_fit_stabilizes_by_t_1000():
    # with tiny higher moments the monopole limit is reached to 1e-6 by 1e3*R
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 32, 64)
    oracle = F.PointSource([5e-4, 0.0, 3e-4])
    data = F.boundary_data_from_oracle(rule, oracle)
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-10, L_start=0))
    xhat = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    limit = report.coefficients[0] / SQRT_4PI
    t = 1e3 * G.radius_bounds(spec)[1]
    assert abs(t * report.field(t * xhat) - limit) <= 1e-6


def test_max_principle_consistency():
    # node-max exterior error on S_R stays below the node-max boundary
    # residual, up to quadrature sampling slack 2
    for spec in (G.SurfaceSpec.sphere(1.0), G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)):
        rule = G.build_quadrature(spec, 36, 72)
        oracle = F.PointSource([0.3, 0.0, 0.0])
        data = F.boundary_data_from_oracle(rule, oracle)
        report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-7))
        boundary_sup = F.sup_residual(rule, report.field, data)
        err = F.error_on_enclosing_sphere(report.field, oracle, 2 * G.radius_bounds(spec)[1])
        assert err.sup <= 2.0 * boundary_sup


def test_interior_source_check():
    spec = G.SurfaceSpec.sphere(1.0)
    with pytest.raises(mrc.ConfigError):
        F.interior_source_or_raise(spec, [1.5, 0.0, 0.0])


def test_unknown_bc_kind_rejected():
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 8, 16)
    with pytest.raises(ValueError, match="unknown boundary condition"):
        F.boundary_data_from_oracle(rule, F.PointSource([0.1, 0.0, 0.0]), "neuman")
    with pytest.raises(ValueError, match="unknown boundary condition"):
        F.BoundaryData(bc="neuman", values=np.zeros(rule.n_nodes))


def test_far_error_sphere_is_finite():
    # radius ** (l+1) was a Python float power: an OverflowError once R^(l+1) passed 1.8e308
    oracle = F.PointSource([0.3, 0.0, 0.0])
    field = F.ExteriorField((0.0, 0.0, 0.0), F.multipole_coefficients([0.3, 0.0, 0.0], 1.0, 40), 1.0, 1.0)
    for R in (1e10, 1e150):
        err = F.error_on_enclosing_sphere(field, oracle, R)
        assert np.isfinite(err.l2) and np.isfinite(err.sup)
        assert err.sup <= 1e-12 / R
