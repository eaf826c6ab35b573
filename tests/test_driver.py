import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import mrc
from mrc import driver as D
from mrc import fields as F
from mrc import geometry as G
from mrc import harmonics as H
from mrc import lsq
from mrc.errors import ConfigError, SolverError


def band_limited_data(rule, ell, m, bc="dirichlet", sigma=0.0):
    c = np.zeros(H.n_terms(ell))
    c[H.flatten(ell, m)] = 1.0
    return F.boundary_data_from_oracle(rule, F.BandLimited(c), bc, sigma)


def check_band_limited_exact_recovery(bc, factor):
    # on the unit sphere the trace of h_32 is factor * Y_32: 1, -(l+1) and -(l+1) + sigma; sigma = 0.5
    # keeps clear of sigma = 1, where the degree-0 Robin trace -(0+1) + sigma vanishes
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 24, 48)
    data = band_limited_data(rule, 3, 2, bc, 0.5 if bc == "robin" else 0.0)
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-10, L_start=2))
    assert report.termination == D.CONVERGED
    assert report.chosen_L == 3
    assert report.final_residual <= 1e-12
    assert np.max(np.abs(report.coefficients - data.oracle.coefficients)) <= 1e-13
    # f = factor * Y_32 is orthogonal to degrees <= 2: residual at L=2 is ||f|| = |factor|
    assert report.history[0].L == 2
    assert report.history[0].residual_l2 == pytest.approx(abs(factor), rel=1e-12)


def test_band_limited_exact_recovery():
    check_band_limited_exact_recovery("dirichlet", 1.0)


@pytest.mark.parametrize("bc, factor", [("neumann", -4.0), ("robin", -3.5)])
def test_band_limited_exact_recovery_derivative_bc(bc, factor):
    check_band_limited_exact_recovery(bc, factor)


def test_zero_data_converges_immediately():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 24, 48)
    data = F.BoundaryData(bc="dirichlet", values=np.zeros(rule.n_nodes))
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-10, L_start=2))
    assert report.termination == D.CONVERGED
    assert report.chosen_L == 2
    assert np.all(report.coefficients == 0.0)


def test_point_source_on_bump_converges():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 42, 82)
    oracle = F.PointSource([0.3, 0.0, 0.0])
    data = F.boundary_data_from_oracle(rule, oracle)
    eps = 1e-6
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=eps))
    assert report.termination == D.CONVERGED
    assert report.chosen_L <= 25
    err = F.error_on_enclosing_sphere(report.field, oracle, 2.0 * G.radius_bounds(spec)[1])
    assert err.l2 <= 10 * eps


@pytest.mark.parametrize(
    "spec",
    [G.SurfaceSpec.sphere(1.0), G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)],
    ids=["sphere", "bump"],
)
def test_tight_tolerance_reached_before_L40(spec):
    rule = G.build_quadrature(spec, 42, 82)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]))
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-8))
    assert report.termination == D.CONVERGED
    assert report.chosen_L <= 40


def test_history_non_increasing():
    spec = G.SurfaceSpec.spheroid(1.0, 0.5)
    rule = G.build_quadrature(spec, 42, 82)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.2, 0.1, 0.0]), "neumann")
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-9))
    residuals = [h.residual_l2 for h in report.history]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(residuals, residuals[1:]))


def test_determinism():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 36, 72)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]), "robin", 1.0)
    cfg = D.MrcConfig(epsilon=1e-6)
    r1 = D.run_mrc(spec, rule, data, cfg)
    r2 = D.run_mrc(spec, rule, data, cfg)
    assert r1.to_dict() == r2.to_dict()
    assert np.array_equal(r1.coefficients, r2.coefficients)


def test_unreachable_epsilon_terminates_with_label():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 42, 82)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]))
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-15, L_max=40))
    assert report.termination in (D.STAGNATED, D.L_MAX_REACHED)
    assert report.chosen_L is None


def test_auto_refinement_with_oracle():
    spec = G.SurfaceSpec.sphere(1.0)
    coarse = G.build_quadrature(spec, 8, 16)  # cannot resolve L_max=20
    data = F.boundary_data_from_oracle(coarse, F.PointSource([0.3, 0.0, 0.0]))
    report = D.run_mrc(spec, coarse, data, D.MrcConfig(epsilon=1e-8, L_max=20))
    assert report.rule_refined
    assert report.termination == D.CONVERGED


def test_tabulated_data_clamps_L_max():
    spec = G.SurfaceSpec.sphere(1.0)
    coarse = G.build_quadrature(spec, 8, 17)
    f = 1.0 / np.linalg.norm(coarse.points - np.array([0.3, 0.0, 0.0]), axis=1)
    data = F.BoundaryData(bc="dirichlet", values=f)  # no oracle: cannot resample
    report = D.run_mrc(spec, coarse, data, D.MrcConfig(epsilon=1e-20, L_max=40))
    assert report.rule_refined  # flagged: resolution was adjusted
    assert max(h.L for h in report.history) <= 7
    with pytest.raises(ConfigError, match="L_start"):  # a library call is not checked at load
        D.run_mrc(spec, coarse, data, D.MrcConfig(epsilon=1e-20, L_start=8, L_max=40))


def test_neumann_data_from_potential_centered():
    spec1 = G.SurfaceSpec.sphere(1.0)
    rule1 = G.build_quadrature(spec1, 16, 32)
    F.interior_source_or_raise(spec1, [0.0, 0.0, 0.0])
    data = F.boundary_data_from_oracle(rule1, F.PointSource([0.0, 0.0, 0.0]), lsq.NEUMANN)
    assert np.allclose(data.values, -1.0, atol=1e-14)

    spec2 = G.SurfaceSpec.sphere(2.0)
    rule2 = G.build_quadrature(spec2, 16, 32)
    F.interior_source_or_raise(spec2, [0.0, 0.0, 0.0])
    data2 = F.boundary_data_from_oracle(rule2, F.PointSource([0.0, 0.0, 0.0]), lsq.NEUMANN)
    assert np.allclose(data2.values, -0.25, atol=1e-14)


def test_neumann_data_matches_finite_differences():
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 20, 40)
    z = np.array([0.3, 0.0, 0.0])
    F.interior_source_or_raise(spec, z)
    data = F.boundary_data_from_oracle(rule, F.PointSource(z), lsq.NEUMANN)
    eps = 1e-6

    def pot(x):
        return 1.0 / np.linalg.norm(x - z, axis=1)

    fd = (pot(rule.points + eps * rule.normals) - pot(rule.points - eps * rule.normals)) / (2 * eps)
    assert np.max(np.abs(data.values - fd)) <= 1e-8


def test_neumann_source_outside_rejected():
    spec = G.SurfaceSpec.sphere(1.0)
    with pytest.raises(ConfigError):
        F.interior_source_or_raise(spec, [1.1, 0.0, 0.0])


def test_config_validation():
    with pytest.raises(ConfigError):
        D.MrcConfig(epsilon=-1.0)
    with pytest.raises(ConfigError):
        D.MrcConfig(epsilon=1e-6, L_start=10, L_max=5)
    with pytest.raises(ConfigError):
        D.MrcConfig(epsilon=1e-6, L_max=100)
    with pytest.raises(ConfigError):
        D.MrcConfig(epsilon=1e-6, stagnation_factor=1.5)


def test_band_limited_plateau_needs_patience():
    # f = Y_7m keeps the residual flat through degree 6; the default
    # patience of 3 stops the loop early, a larger one reaches the answer
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 24, 48)
    data = band_limited_data(rule, 7, 3)
    early = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-11, L_start=0))
    assert early.termination == D.STAGNATED
    patient = D.run_mrc(
        spec, rule, data, D.MrcConfig(epsilon=1e-11, L_start=0, stagnation_patience=10)
    )
    assert patient.termination == D.CONVERGED
    assert patient.chosen_L == 7


def test_robin_eigenvalue_degeneracy_on_unit_sphere():
    # with the outward normal, (d/dn + sigma) h_lm = (sigma - (l+1)/a) h_lm
    # on sphere(a); at a = 1, sigma = 1 the monopole column vanishes and the
    # homogeneous problem has the nontrivial solution 1/r. The residual
    # converges but cannot constrain c_00, so the exterior error stays O(1):
    # the residual-to-error link requires a uniquely solvable problem.
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 36, 72)
    oracle = F.PointSource([0.3, 0.0, 0.0])
    data = F.boundary_data_from_oracle(rule, oracle, "robin", 1.0)
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-6))
    assert report.termination == D.CONVERGED
    # minimum-norm fit drops the unconstrained monopole entirely
    assert abs(report.coefficients[0]) <= 1e-8
    err = F.error_on_enclosing_sphere(report.field, oracle, 2.0)
    monopole_gap = np.sqrt(4 * np.pi)  # the true c_00 for a unit source
    assert err.l2 > 0.1 * monopole_gap  # error is O(1), not O(epsilon)


def test_relative_residual_reported():
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 24, 48)
    data = band_limited_data(rule, 3, 2)
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-10))
    for h in report.history:
        assert h.residual_rel == pytest.approx(h.residual_l2 / report.f_norm, rel=1e-14)


@pytest.mark.parametrize("bc, sigma", [("dirichlet", 0.0), ("neumann", 0.0), ("robin", 1.0)])
@pytest.mark.parametrize("steps", [{"L_start": 0}, {"L_step": 2}], ids=["L_start=0", "L_step=2"])
def test_growing_system_matches_rebuild(bc, sigma, steps):
    # the loop grows one design matrix; each degree must solve exactly the system a fresh one-step
    # build for that degree gives. 3 divides the rule's 48 phi-lines: the loop's system is split into
    # rotation classes, each folded by z -> -z, and so is the fresh one
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 24, 48)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]), bc, sigma)
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-14, L_max=12, **steps))
    assert [h.L for h in report.history][:2] == [steps.get("L_start", 2), steps.get("L_start", 2) + steps.get("L_step", 1)]
    for h in report.history:
        sol = lsq.solve(lsq.GrowingSystem(rule, data.values, bc, sigma, 3, True).extend(h.L))
        assert (h.residual_l2, h.rank, h.cond_estimate) == (sol.residual_l2, sol.rank, sol.cond_estimate)
        field = F.ExteriorField(spec.center, sol.coefficients, report.field.r_min, report.field.r_max)
        assert h.sup_residual == pytest.approx(F.sup_residual(rule, field, data), rel=1e-8)


@pytest.mark.parametrize("residuals, epsilon, expected", [
    ([1e-7, 1e-8], 1e-6, (1, D.CONVERGED)),
    ([1.0, 1.0, 1.0], 1e-6, (3, None)),  # two flat steps: one short of the patience
    ([1.0, 1.0, 1.0, 1.0, 1.0], 1e-6, (4, D.STAGNATED)),  # the third flat step ends the plateau
    ([1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5], 1e-6, (7, D.STAGNATED)),  # the halving resets the count
    ([1.0, 0.1, 0.2, 0.3, 0.4], 1e-6, (5, D.STAGNATED)),  # a rise after the best degree
    ([1.0, 0.5, 0.25], 0.1, (3, None)),  # the history runs out
    ([1.0, 0.5, 0.25, 0.05], 0.1, (4, D.CONVERGED)),
    ([], 1e-6, (0, None)),
], ids=["converged-at-row-1", "plateau-one-short", "plateau", "reset", "rise", "ran-out", "converged", "empty"])
def test_stop_on_synthetic_histories(residuals, epsilon, expected):
    assert D.stop(residuals, epsilon, D.MrcConfig(epsilon=1.0)) == expected


def test_stagnation_row_does_not_depend_on_epsilon():
    # both epsilons lie below the whole history, so both stop where the plateau ends
    residuals, cfg = [1.0, 0.5, 0.5, 0.5, 0.5, 0.5], D.MrcConfig(epsilon=1.0)
    assert D.stop(residuals, 1e-3, cfg) == D.stop(residuals, 1e-9, cfg) == (5, D.STAGNATED)


def neumann_sources_on_spheroid():
    # two off-center sources and a centered one, whose field is a pure monopole (converged at L=2)
    spec = G.SurfaceSpec.spheroid(1.0, 0.5)
    rule = G.auto_quadrature(spec, 30)
    sources = [(0.3, 0.0, 0.0), (0.0, 0.1, 0.25), (0.0, 0.0, 0.0)]
    return spec, rule, [F.boundary_data_from_oracle(rule, F.PointSource(z), lsq.NEUMANN) for z in sources]


def test_grid_reports_equal_single_runs():
    spec, rule, data = neumann_sources_on_spheroid()
    epsilons = [1e-2, 1e-6, 1e-16]
    grid = D.run_mrc_grid(spec, rule, data, D.MrcConfig(epsilon=1.0, L_max=30), epsilons)
    assert [[r.termination for r in row] for row in grid] == [
        [D.CONVERGED, D.CONVERGED, D.L_MAX_REACHED]] * 2 + [[D.CONVERGED, D.CONVERGED, D.STAGNATED]]
    for row, d in zip(grid, data):
        for report, epsilon in zip(row, epsilons):
            alone = D.run_mrc(spec, rule, d, D.MrcConfig(epsilon=epsilon, L_max=30))
            assert json.dumps(report.to_dict()) == json.dumps(alone.to_dict())


def failing_on_call(k):
    calls, solve = [], lsq.solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == k:
            raise SolverError("SVD failed")
        return solve(*args, **kwargs)
    return failing


def test_solver_error_on_the_first_solve(monkeypatch):
    spec, rule, data = neumann_sources_on_spheroid()
    monkeypatch.setattr(D.lsq, "solve", failing_on_call(1))
    with pytest.raises(SolverError, match="adaptive loop terminated before completing a single solve"):
        D.run_mrc_grid(spec, rule, data, D.MrcConfig(epsilon=1.0, L_max=30), [1e-2, 1e-6])


def test_solver_error_part_way_reads_stagnated(monkeypatch):
    # the sixth solve (L=7) fails: histories that had not stopped end at five rows as stagnated
    spec, rule, data = neumann_sources_on_spheroid()
    monkeypatch.setattr(D.lsq, "solve", failing_on_call(6))
    grid = D.run_mrc_grid(spec, rule, data, D.MrcConfig(epsilon=1.0, L_max=30), [1e-2, 1e-6])
    assert [[(r.termination, r.chosen_L, len(r.history)) for r in row] for row in grid] == [
        [(D.CONVERGED, 5, 4), (D.STAGNATED, None, 5)],
        [(D.CONVERGED, 4, 3), (D.STAGNATED, None, 5)],
        [(D.CONVERGED, 2, 1), (D.CONVERGED, 2, 1)],
    ]
    # a history cut short reports the fit of its last row, L=6
    assert [r.coefficients.shape for r in grid[1]] == [(H.n_terms(4),), (H.n_terms(6),)]


def test_rule_about_another_center_is_refused():
    # the system took each node's angles from the rule but r from spec.center: with a rule built about
    # the origin, this run read converged at L = 8 with a residual of 2.0e-9 and an exterior error of 2.4e-2
    spec = G.SurfaceSpec.sphere(1.0, center=(0.2, 0.0, 0.0))
    oracle = F.PointSource([0.25, 0.0, 0.0])
    cfg = D.MrcConfig(epsilon=1e-8)
    wrong = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 42, 82)  # resolves L_max: no refinement
    with pytest.raises(ValueError, match="built about"):
        D.run_mrc(spec, wrong, F.boundary_data_from_oracle(wrong, oracle), cfg)
    rule = G.build_quadrature(spec, 42, 82)
    assert rule.center == spec.center
    report = D.run_mrc(spec, rule, F.boundary_data_from_oracle(rule, oracle), cfg)
    assert report.termination == D.CONVERGED
    assert F.error_on_enclosing_sphere(report.field, oracle, 3.0).l2 <= 1e-11


@pytest.mark.parametrize("spec, system, n_phi, blocks", [
    (G.SurfaceSpec.sphere(1.0), lsq.OrderSystem, 32, None),
    (G.SurfaceSpec.spheroid(1.0, 0.5), lsq.OrderSystem, 32, None),
    (G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), lsq.GrowingSystem, 32, 1),
    (G.SurfaceSpec("custom", rho_fn=lambda t, f: 1.0 + 0.1 * np.cos(t) ** 2), lsq.GrowingSystem, 32, 1),
    (G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), lsq.GrowingSystem, 33, 4),
], ids=["spec0-OrderSystem", "spec1-OrderSystem", "spec2-GrowingSystem", "spec3-GrowingSystem",
        "cosine_bump-on-a-rule-3-divides"])
def test_only_declared_surfaces_of_revolution_split_by_order(monkeypatch, spec, system, n_phi, blocks):
    # the declarations in geometry.PRESETS pick the system; a custom rho_fn declares nothing. The
    # order blocks of degree L are L + 1; the whole matrix is one block, and a 3-fold cosine_bump on a
    # rule 3 divides is four, rotation class 0 and the pair of classes +-1, each split by theta-parity
    assert spec.axisymmetric == (system is lsq.OrderSystem)
    solved, solve = [], lsq.solve
    monkeypatch.setattr(D.lsq, "solve", lambda p, *args: solved.append(len(p.blocks)) or solve(p, *args))
    rule = G.build_quadrature(spec, 16, n_phi)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.1, 0.0, 0.0]))
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-6, L_max=8))
    assert report.termination == D.CONVERGED
    assert solved == [h.L + 1 if system is lsq.OrderSystem else blocks for h in report.history]


def test_a_64_lobed_bump_sends_no_empty_block_to_the_solve(monkeypatch):
    # on a rule 64 divides the rotation classes k > L have no harmonic of degree <= L: they get no block,
    # where a zero-column block made lsq.solve raise IndexError on its first singular value. So has the odd
    # theta-parity of class L, whose one degree has l + |m| = 2L
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 64)
    rule = G.build_quadrature(spec, 22, 128)
    solved, solve = [], lsq.solve
    monkeypatch.setattr(D.lsq, "solve", lambda p, *args: solved.append(p) or solve(p, *args))
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]))
    report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-12, L_max=20))
    assert [h.L for h in report.history] == list(range(2, 21))
    assert [len(p.blocks) for p in solved] == [2 * h.L + 1 for h in report.history]  # classes 0..L of 0..32
    assert all(b.matrix.shape[1] > 0 for p in solved for b in p.blocks)


def test_a_rule_no_rotation_divides_is_one_unfolded_block(monkeypatch):
    # 3 does not divide the 82 phi-lines of the floor's rule: its system stays the whole matrix, on every node,
    # although cosine_bump also declares the mirror z -> -z
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    assert spec.z_mirror and spec.rotation_order == 3
    rule = G.build_quadrature(spec, 42, 82)
    solved, solve = [], lsq.solve
    monkeypatch.setattr(D.lsq, "solve", lambda p, *args: solved.append(p) or solve(p, *args))
    report = D.run_mrc(spec, rule, F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0])),
                       D.MrcConfig(epsilon=1e-4, L_max=8))
    assert report.termination == D.CONVERGED
    assert [[b.matrix.shape for b in p.blocks] for p in solved] == [[(rule.n_nodes, (h.L + 1) ** 2)]
                                                                    for h in report.history]


def test_the_loop_reserves_its_table_for_its_own_top_degree():
    # the system's table is sized by the loop's L_max: on a 130 x 260 rule the rule's own degree, 64,
    # reserved 33800 x 4225 doubles (1.14 GB) for a loop that stops at 12. 3 does not divide 260: the whole matrix
    spec = G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    rule = G.build_quadrature(spec, 130, 260)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]))
    tracemalloc.start()
    try:
        report = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-3, L_max=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.termination == D.CONVERGED
    assert peak <= 200e6


@pytest.mark.parametrize("second", [
    dict(bc=lsq.NEUMANN), dict(bc=lsq.ROBIN, sigma=0.5), dict(oracle=None)], ids=["bc", "sigma", "oracle"])
def test_grid_refuses_data_of_different_kinds(second):
    # the system takes bc and sigma from data[0]: a Dirichlet + Neumann pair was fitted as two Dirichlet
    # vectors, and the Neumann report read converged at L = 17, its coefficients up to 7.09 off run_mrc's
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 22, 42)
    first = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]), lsq.ROBIN, 1.0)
    data = [first, dataclasses.replace(first, **second)]
    with pytest.raises(ValueError, match="must share bc, sigma"):
        D.run_mrc_grid(spec, rule, data, D.MrcConfig(epsilon=1e-8), [1e-8])
