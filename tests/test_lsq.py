import warnings

import numpy as np
import pytest

import mrc
from mrc import fields as F
from mrc import geometry as G
from mrc import harmonics as H
from mrc import lsq
from mrc.errors import SolverError


@pytest.fixture(scope="module")
def sphere_rule():
    return G.build_quadrature(G.SurfaceSpec.sphere(1.0), 24, 48)


def system(rule, L, values, bc=lsq.DIRICHLET, sigma=0.0):
    """The weighted system for degrees 0..L about the rule's center, built in one step."""
    return lsq.GrowingSystem(rule, values, bc, sigma).extend(L)


def basis_values(rule, L):
    """The unweighted h_k at the nodes, degrees 0..L."""
    return np.concatenate([h for h, _ in H.node_blocks(L, rule)], axis=1)


def test_dirichlet_columns_orthonormal(sphere_rule):
    A = system(sphere_rule, 2, np.zeros(sphere_rule.n_nodes)).matrix
    assert A.shape[1] == 9
    assert np.max(np.abs(A.T @ A - np.eye(9))) <= 1e-12


def test_neumann_columns_radial_homogeneity(sphere_rule):
    # on the unit sphere the normal is radial: n.grad h_lm = -(l+1) Y_lm
    problem = system(sphere_rule, 1, np.zeros(sphere_rule.n_nodes), lsq.NEUMANN)
    (Y,) = H.ylm(1, sphere_rule.theta, sphere_rule.phi)
    sw = np.sqrt(sphere_rule.weights)
    ells = H.degrees(1)
    expected = -(ells[None, :] + 1) * Y * sw[:, None]
    assert np.max(np.abs(problem.matrix - expected)) <= 1e-13


def test_robin_sigma_zero_equals_neumann(sphere_rule):
    f = np.cos(sphere_rule.theta)
    p_neu = system(sphere_rule, 3, f, lsq.NEUMANN)
    p_rob = system(sphere_rule, 3, f, lsq.ROBIN, sigma=0.0)
    assert np.array_equal(p_neu.matrix, p_rob.matrix)
    assert np.array_equal(p_neu.rhs, p_rob.rhs)


def test_node_count_mismatch(sphere_rule):
    with pytest.raises(ValueError):
        lsq.GrowingSystem(sphere_rule, np.zeros(7), lsq.DIRICHLET, 0.0)


def test_projection_onto_orthonormal_column(sphere_rule):
    (Y,) = H.ylm(2, sphere_rule.theta, sphere_rule.phi)
    f = Y[:, H.flatten(1, 0)]
    sol = lsq.solve(system(sphere_rule, 2, f))
    expected = np.zeros(9)
    expected[H.flatten(1, 0)] = 1.0
    assert np.allclose(sol.coefficients, expected, atol=1e-12)
    assert sol.residual_l2 <= 1e-12


def test_zero_rhs(sphere_rule):
    sol = lsq.solve(system(sphere_rule, 3, np.zeros(sphere_rule.n_nodes)))
    assert np.all(sol.coefficients == 0.0)
    assert sol.residual_l2 == 0.0


def test_planted_solution_recovery():
    # oracle: normal equations solved in extended precision
    rng = np.random.default_rng(17)
    while True:
        A = rng.normal(size=(200, 25))
        if np.linalg.cond(A) <= 1e6:
            break
    c_star = rng.normal(size=25)
    b = A @ c_star

    Al = A.astype(np.longdouble)
    oracle = np.linalg.solve((Al.T @ Al).astype(float), (Al.T @ b.astype(np.longdouble)).astype(float))

    problem = lsq.LsqProblem(matrix=A, rhs=b, sqrt_w=np.ones(200))
    sol = lsq.solve(problem)
    assert np.max(np.abs(sol.coefficients - c_star)) / np.max(np.abs(c_star)) <= 1e-10
    assert np.max(np.abs(oracle - c_star)) / np.max(np.abs(c_star)) <= 1e-8


def test_scaling_equivariance(sphere_rule):
    f = np.exp(np.cos(sphere_rule.theta))
    beta = -3.5
    s1 = lsq.solve(system(sphere_rule, 4, f))
    s2 = lsq.solve(system(sphere_rule, 4, beta * f))
    assert np.allclose(s2.coefficients, beta * s1.coefficients, rtol=1e-12, atol=1e-14)
    assert s2.residual_l2 == pytest.approx(abs(beta) * s1.residual_l2, rel=1e-12)


def test_truncation_safety(sphere_rule):
    f = 1.0 / np.linalg.norm(sphere_rule.points - np.array([0.3, 0.1, 0.0]), axis=1)
    problem = system(sphere_rule, 6, f)
    loose = lsq.solve(problem, svd_rtol=1e-8)
    tight = lsq.solve(problem, svd_rtol=1e-12)
    b_norm = np.linalg.norm(problem.rhs)
    assert tight.residual_l2 <= loose.residual_l2 + 1e-12 * b_norm


def test_residual_recomputed_independently(sphere_rule):
    f = np.sin(2 * sphere_rule.theta) * np.cos(sphere_rule.phi)
    sol = lsq.solve(system(sphere_rule, 5, f))
    fitted = basis_values(sphere_rule, 5) @ sol.coefficients
    independent = np.sqrt(np.sum(sphere_rule.weights * (fitted - f) ** 2))
    assert independent == pytest.approx(sol.residual_l2, rel=1e-12, abs=1e-15)


def test_weighted_functional_matches_l2_norm(sphere_rule):
    # ||A c - b||_2 is the discrete L2(S) misfit by the sqrt(w) scaling
    f = sphere_rule.points[:, 2] ** 2
    problem = system(sphere_rule, 3, f)
    c = np.ones(H.n_terms(3))
    lhs = np.linalg.norm(problem.matrix @ c - problem.rhs)
    rhs = np.sqrt(np.sum(sphere_rule.weights * (basis_values(sphere_rule, 3) @ c - f) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_degenerate_system_raises():
    problem = lsq.LsqProblem(matrix=np.zeros((10, 3)), rhs=np.ones(10), sqrt_w=np.ones(10))
    with pytest.raises(SolverError):
        lsq.solve(problem)


def test_underdetermined_warns_and_min_norm():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 8))
    b = rng.normal(size=5)
    problem = lsq.LsqProblem(matrix=A, rhs=b, sqrt_w=np.ones(5))
    with pytest.warns(UserWarning):
        sol = lsq.solve(problem)
    # minimum-norm solution matches numpy's lstsq
    ref, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.allclose(sol.coefficients, ref, rtol=1e-10)


def test_residual_monotone_in_nested_bases(sphere_rule):
    f = 1.0 / np.linalg.norm(sphere_rule.points - np.array([0.2, 0.2, 0.1]), axis=1)
    residuals = []
    for L in range(6):
        residuals.append(lsq.solve(system(sphere_rule, L, f)).residual_l2)
    assert all(r2 <= r1 * (1 + 1e-12) for r1, r2 in zip(residuals, residuals[1:]))


def test_lapack_failure_is_solver_error(sphere_rule):
    # a NaN entry makes the SVD fail to converge; that is a solver error
    problem = system(sphere_rule, 2, np.ones(sphere_rule.n_nodes))
    problem.matrix[0, 0] = np.nan
    with pytest.raises(SolverError):
        lsq.solve(problem)


def test_unknown_bc_kind_rejected(sphere_rule):
    with pytest.raises(ValueError, match="unknown boundary condition"):
        lsq.GrowingSystem(sphere_rule, np.zeros(sphere_rule.n_nodes), "neuman", 0.0).extend(2)


def svd_reference(problem, svd_rtol=lsq.SVD_RTOL):
    """The truncated minimum-norm fit from a thin SVD of the whole of A, the
    route a tall solve replaces: (coefficients, rank, condition, residual)."""
    A, b = problem.matrix, problem.rhs
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    k = int(np.sum(s >= svd_rtol * s[0]))
    c = Vt[:k].T @ ((U[:, :k].T @ b) / s[:k])
    return c, k, s[0] / s[k - 1], np.linalg.norm(A @ c - b)


TALL_SYSTEMS = {  # surface, bc, sigma, L
    "spheroid-dirichlet": (G.SurfaceSpec.spheroid(1.0, 0.5), lsq.DIRICHLET, 0.0, 8),
    "cosine_bump-neumann": (G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), lsq.NEUMANN, 0.0, 8),
    # on sphere(1), (d/dn + 1) h_00 = 0: the monopole column vanishes and the rank drops by one
    "sphere-robin-eigenvalue": (G.SurfaceSpec.sphere(1.0), lsq.ROBIN, 1.0, 6),
}


@pytest.mark.parametrize("name", TALL_SYSTEMS)
def test_qr_route_matches_svd_of_the_whole_matrix(name):
    spec, bc, sigma, L = TALL_SYSTEMS[name]
    rule = G.build_quadrature(spec, 24, 48)
    data = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]), bc, sigma)
    problem = lsq.GrowingSystem(rule, data.values, bc, sigma).extend(L)
    assert problem.matrix.shape[0] > problem.matrix.shape[1]
    sol = lsq.solve(problem)
    c, rank, cond, residual = svd_reference(problem)
    assert sol.rank == rank
    assert sol.cond_estimate == pytest.approx(cond, rel=1e-12)
    assert np.max(np.abs(sol.coefficients - c)) <= 1e-12 * np.max(np.abs(c))
    assert sol.residual_l2 == pytest.approx(residual, rel=1e-10)
    if name == "sphere-robin-eigenvalue":
        assert rank == problem.matrix.shape[1] - 1
        assert abs(sol.coefficients[0]) <= 1e-8  # the minimum-norm fit leaves c_00 out


@pytest.mark.filterwarnings("ignore:underdetermined system")
def test_tall_solve_takes_the_svd_of_r_only(sphere_rule, monkeypatch):
    # a square or wide system takes the same route: the SVD of its upper-triangular (trapezoidal) R
    factored = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: factored.append(a) or svd(a, *args, **kwargs))
    lsq.solve(system(sphere_rule, 4, np.cos(sphere_rule.theta)))
    rng = np.random.default_rng(7)
    for m, n in ((12, 12), (5, 8)):
        lsq.solve(lsq.LsqProblem(matrix=rng.normal(size=(m, n)), rhs=rng.normal(size=m), sqrt_w=np.ones(m)))
    assert [a.shape for a in factored] == [(25, 25), (12, 12), (5, 8)]
    assert all(np.array_equal(a, np.triu(a)) for a in factored)


def test_many_right_hand_sides_fit_as_if_alone(sphere_rule):
    sources = ([0.3, 0.0, 0.0], [0.0, -0.2, 0.25], [0.1, 0.1, -0.4])
    values = np.stack([F.PointSource(z)(sphere_rule.points) for z in sources])
    problem = system(sphere_rule, 7, values)
    together = lsq.solve(problem)
    for i, rhs in enumerate(problem.rhs):
        alone = lsq.solve(lsq.LsqProblem(problem.matrix, rhs, problem.sqrt_w))
        assert np.array_equal(together.coefficients[i], alone.coefficients)
        assert together.residual_l2[i] == alone.residual_l2
        assert together.sup_residual[i] == alone.sup_residual


def test_square_system_solves_without_warning():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(12, 12)) + 12 * np.eye(12)
    b = rng.normal(size=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = lsq.solve(lsq.LsqProblem(matrix=A, rhs=b, sqrt_w=np.ones(12)))
    assert sol.rank == 12
    assert np.allclose(sol.coefficients, np.linalg.solve(A, b), rtol=1e-12, atol=1e-14)
    assert sol.residual_l2 <= 1e-12 * np.linalg.norm(b)


@pytest.mark.filterwarnings("ignore:underdetermined system")
@pytest.mark.parametrize("shape", [(40, 6), (6, 6), (5, 8)])
def test_nan_entry_is_solver_error_on_both_routes(shape):
    A = np.random.default_rng(3).normal(size=shape)
    A[shape[0] // 2, 1] = np.nan
    problem = lsq.LsqProblem(matrix=A, rhs=np.ones(shape[0]), sqrt_w=np.ones(shape[0]))
    with pytest.raises(SolverError, match="SVD failed"):
        lsq.solve(problem)


def test_extend_refuses_a_degree_below_the_current_one_or_above_ELL_MAX(sphere_rule):
    # the system draws its degree blocks up to ELL_MAX: no top degree to pass, or to pass too low
    grown = lsq.GrowingSystem(sphere_rule, np.zeros(sphere_rule.n_nodes), lsq.NEUMANN, 0.0)
    assert grown.extend(3).matrix.shape[1] == 16
    assert grown.extend(6).matrix.shape[1] == 49
    for L in (5, H.ELL_MAX + 1):
        with pytest.raises(ValueError, match="outside"):
            grown.extend(L)
    problem = grown.extend(6)  # the same degree again is the same system
    assert np.array_equal(problem.matrix, system(sphere_rule, 6, np.zeros(sphere_rule.n_nodes), lsq.NEUMANN).matrix)
