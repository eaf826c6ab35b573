import dataclasses
import math
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
    A = system(sphere_rule, 2, np.zeros(sphere_rule.n_nodes)).blocks[0].matrix
    assert A.shape[1] == 9
    assert np.max(np.abs(A.T @ A - np.eye(9))) <= 1e-12


def test_neumann_columns_radial_homogeneity(sphere_rule):
    # on the unit sphere the normal is radial: n.grad h_lm = -(l+1) Y_lm
    problem = system(sphere_rule, 1, np.zeros(sphere_rule.n_nodes), lsq.NEUMANN)
    Y = H.eval_Y(1, sphere_rule.points)
    sw = np.sqrt(sphere_rule.weights)
    ells = H.degrees(1)
    expected = -(ells[None, :] + 1) * Y * sw[:, None]
    assert np.max(np.abs(problem.blocks[0].matrix - expected)) <= 1e-13


def test_robin_sigma_zero_equals_neumann(sphere_rule):
    f = np.cos(sphere_rule.theta)
    p_neu = system(sphere_rule, 3, f, lsq.NEUMANN)
    p_rob = system(sphere_rule, 3, f, lsq.ROBIN, sigma=0.0)
    assert np.array_equal(p_neu.blocks[0].matrix, p_rob.blocks[0].matrix)
    assert np.array_equal(p_neu.blocks[0].rhs, p_rob.blocks[0].rhs)


def test_node_count_mismatch(sphere_rule):
    with pytest.raises(ValueError):
        lsq.GrowingSystem(sphere_rule, np.zeros(7), lsq.DIRICHLET, 0.0)


def test_projection_onto_orthonormal_column(sphere_rule):
    Y = H.eval_Y(2, sphere_rule.points)
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

    problem = lsq.LsqProblem.from_matrix(A, b, np.ones(200))
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
    b_norm = np.linalg.norm(problem.blocks[0].rhs)
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
    (block,) = problem.blocks
    lhs = np.linalg.norm(block.matrix @ c - block.rhs[0, :, 0])
    rhs = np.sqrt(np.sum(sphere_rule.weights * (basis_values(sphere_rule, 3) @ c - f) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_degenerate_system_raises():
    problem = lsq.LsqProblem.from_matrix(np.zeros((10, 3)), np.ones(10), np.ones(10))
    with pytest.raises(SolverError):
        lsq.solve(problem)


def test_underdetermined_warns_and_min_norm():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 8))
    b = rng.normal(size=5)
    problem = lsq.LsqProblem.from_matrix(A, b, np.ones(5))
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
    problem.blocks[0].matrix[0, 0] = np.nan
    with pytest.raises(SolverError):
        lsq.solve(problem)


def test_unknown_bc_kind_rejected(sphere_rule):
    with pytest.raises(ValueError, match="unknown boundary condition"):
        lsq.GrowingSystem(sphere_rule, np.zeros(sphere_rule.n_nodes), "neuman", 0.0).extend(2)


def svd_reference(problem, svd_rtol=lsq.SVD_RTOL):
    """The truncated minimum-norm fit from a thin SVD of the whole of A, the
    route a tall solve replaces: (coefficients, rank, condition, residual)."""
    A, b = problem.blocks[0].matrix, problem.blocks[0].rhs[0, :, 0]
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
    m, n = problem.blocks[0].matrix.shape
    assert m > n
    sol = lsq.solve(problem)
    c, rank, cond, residual = svd_reference(problem)
    assert sol.rank == rank
    assert sol.cond_estimate == pytest.approx(cond, rel=1e-12)
    assert np.max(np.abs(sol.coefficients - c)) <= 1e-12 * np.max(np.abs(c))
    assert sol.residual_l2 == pytest.approx(residual, rel=1e-10)
    if name == "sphere-robin-eigenvalue":
        assert rank == n - 1
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
        lsq.solve(lsq.LsqProblem.from_matrix(rng.normal(size=(m, n)), rng.normal(size=m), np.ones(m)))
    assert [a.shape for a in factored] == [(25, 25), (12, 12), (5, 8)]
    assert all(np.array_equal(a, np.triu(a)) for a in factored)


def test_many_right_hand_sides_fit_as_if_alone(sphere_rule):
    # on the whole matrix and on the order blocks of the same rule alike
    sources = ([0.3, 0.0, 0.0], [0.0, -0.2, 0.25], [0.1, 0.1, -0.4])
    values = np.stack([F.PointSource(z)(sphere_rule.points) for z in sources])
    for grown in (lsq.GrowingSystem, lsq.OrderSystem):
        together = lsq.solve(grown(sphere_rule, values, lsq.DIRICHLET, 0.0).extend(7))
        for i, f in enumerate(values):
            alone = lsq.solve(grown(sphere_rule, f, lsq.DIRICHLET, 0.0).extend(7))
            assert np.array_equal(together.coefficients[i], alone.coefficients)
            assert together.residual_l2[i] == alone.residual_l2
            assert together.sup_residual[i] == alone.sup_residual


def test_order_blocks_reflect_each_data_vector_once(sphere_rule, monkeypatch):
    # a block's copies m = k and m = -k are the columns of one right-hand side, and every data vector is an
    # item of the stacked pass of its group: each is reflected once per group, not once per block or copy
    calls = []
    qtb = lsq._householder_qtb
    monkeypatch.setattr(lsq, "_householder_qtb", lambda h, tau, rhs: calls.append(rhs.shape) or qtb(h, tau, rhs))
    values = np.stack([F.PointSource(z)(sphere_rule.points) for z in ([0.3, 0.0, 0.0], [0.0, -0.2, 0.25])])
    L = 7
    lsq.solve(lsq.OrderSystem(sphere_rule, values, lsq.DIRICHLET, 0.0).extend(L))
    assert calls == [(2, 1, sphere_rule.n_theta, 1), (2, L, sphere_rule.n_theta, 2)]


def test_solve_reflects_once_per_group_of_blocks_with_equal_rows_and_copies(sphere_rule, monkeypatch):
    # the whole matrix is one group of one block, whatever the number of data vectors; the order blocks are
    # two groups, k = 0 with one copy and k >= 1 with two, not one call per block and data vector (16 at L = 7)
    calls = []
    qtb = lsq._householder_qtb
    monkeypatch.setattr(lsq, "_householder_qtb", lambda h, tau, rhs: calls.append(h.shape) or qtb(h, tau, rhs))
    sources = ([0.3, 0.0, 0.0], [0.0, -0.2, 0.25], [0.1, 0.1, -0.4])
    values = np.stack([F.PointSource(z)(sphere_rule.points) for z in sources])
    for data in (values[0], values):
        calls.clear()
        lsq.solve(lsq.GrowingSystem(sphere_rule, data, lsq.DIRICHLET, 0.0).extend(4))
        assert calls == [(1, 25, sphere_rule.n_nodes)]
    calls.clear()
    lsq.solve(lsq.OrderSystem(sphere_rule, values[:2], lsq.DIRICHLET, 0.0).extend(7))
    assert calls == [(1, 8, sphere_rule.n_theta), (7, 7, sphere_rule.n_theta)]


def householder_qtb_alone(h, tau, rhs):
    """Q^T rhs of one block and one data vector, rhs (n_rows, n_copies): the loop each stacked item must equal."""
    y = rhs.copy()
    for k, t in enumerate(tau):
        d = t * (y[k] + h[k, k + 1:] @ y[k + 1:])
        y[k] -= d
        y[k + 1:] -= np.multiply.outer(h[k, k + 1:], d)
    return y[:len(tau)]


@pytest.mark.filterwarnings("ignore:underdetermined system")
@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("shapes", [[(20, 3), (20, 15), (20, 8)], [(5, 8), (5, 2)]], ids=["tall", "wide"])
def test_a_padded_stack_reflects_each_block_as_if_alone(shapes, copies):
    # blocks with 3, 15 and 8 reflectors, and a wide 5 x 8 block (5 reflectors) beside a 5 x 2 one, zero-padded
    # to the group's largest reflector count: each block's Q^T b of each of 3 data vectors is bit-equal to that
    # block and data vector reflected alone. The blocks are column-major, as every system's are: a row-major
    # block's reflectors are strided rows, which a BLAS dot rounds otherwise than the padded stack's contiguous copy
    rng = np.random.default_rng(11)
    factors = [np.linalg.qr(np.asfortranarray(rng.normal(size=shape)), mode="raw") for shape in shapes]
    rhs = rng.normal(size=(3, len(shapes), shapes[0][0], copies))
    n = max(len(tau) for _, tau in factors)
    h, tau = np.zeros((len(shapes), n, shapes[0][0])), np.zeros((len(shapes), n))
    for j, (h_j, tau_j) in enumerate(factors):
        h[j, : len(tau_j)], tau[j, : len(tau_j)] = h_j[: len(tau_j)], tau_j
    stacked = lsq._householder_qtb(h, tau, rhs)
    assert stacked.shape == (3, len(shapes), n, copies)
    for j, (h_j, tau_j) in enumerate(factors):
        for i in range(3):
            alone = householder_qtb_alone(h_j, tau_j, rhs[i, j])
            assert stacked[i, j, : len(tau_j)].tobytes() == alone.tobytes()


def test_blocks_hold_right_hand_sides_and_columns_in_the_reflectors_layout(sphere_rule):
    # rhs is (n_data, n_rows, n_copies) and columns (n_cols, n_copies): a data vector's block right-hand
    # side is what the reflectors act on, and a block's fit fills c[columns] as it comes
    n_theta, n_phi = sphere_rule.n_theta, sphere_rule.n_phi
    values = np.stack([F.PointSource(z)(sphere_rule.points) for z in ([0.3, 0.0, 0.0], [0.0, -0.2, 0.25])])
    (block,) = lsq.GrowingSystem(sphere_rule, values, lsq.DIRICHLET, 0.0).extend(3).blocks
    assert block.rhs.shape == (2, sphere_rule.n_nodes, 1)
    assert block.rhs[:, :, 0].tobytes() == (values * np.sqrt(sphere_rule.weights)).tobytes()
    assert block.columns.shape == (16, 1)

    L, cap = 4, min(G.max_degree(n_theta, n_phi), H.ELL_MAX)
    w_line = sphere_rule.weights.reshape(n_theta, n_phi)[:, 0]
    projections = H.azimuthal_coefficients(values.reshape(2, n_theta, n_phi), cap)
    blocks = lsq.OrderSystem(sphere_rule, values, lsq.DIRICHLET, 0.0).extend(L).blocks
    assert len(blocks) == L + 1
    for k, block in enumerate(blocks):
        ms = (k, -k) if k else (0,)
        assert block.rhs.shape == (2, n_theta, len(ms)) and block.columns.shape == (L + 1 - k, len(ms))
        for j, m in enumerate(ms):
            assert block.columns[:, j].tolist() == [H.flatten(ell, m) for ell in range(k, L + 1)]
            for i in range(2):
                expected = np.sqrt(n_phi) * np.sqrt(w_line) * projections[i, :, cap + m]
                assert block.rhs[i, :, j].tobytes() == expected.tobytes()


def test_square_system_solves_without_warning():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(12, 12)) + 12 * np.eye(12)
    b = rng.normal(size=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = lsq.solve(lsq.LsqProblem.from_matrix(A, b, np.ones(12)))
    assert sol.rank == 12
    assert np.allclose(sol.coefficients, np.linalg.solve(A, b), rtol=1e-12, atol=1e-14)
    assert sol.residual_l2 <= 1e-12 * np.linalg.norm(b)


@pytest.mark.filterwarnings("ignore:underdetermined system")
@pytest.mark.parametrize("shape", [(40, 6), (6, 6), (5, 8)])
def test_nan_entry_is_solver_error_on_both_routes(shape):
    A = np.random.default_rng(3).normal(size=shape)
    A[shape[0] // 2, 1] = np.nan
    problem = lsq.LsqProblem.from_matrix(A, np.ones(shape[0]), np.ones(shape[0]))
    with pytest.raises(SolverError, match="SVD failed"):
        lsq.solve(problem)


def test_extend_refuses_a_degree_below_the_current_one_or_above_the_rules(sphere_rule):
    # the system reserves its table for the degrees the rule resolves: none above them, or too low
    grown = lsq.GrowingSystem(sphere_rule, np.zeros(sphere_rule.n_nodes), lsq.NEUMANN, 0.0)
    assert grown.extend(3).blocks[0].matrix.shape[1] == 16
    assert grown.extend(6).blocks[0].matrix.shape[1] == 49
    for L in (5, G.max_degree(sphere_rule.n_theta, sphere_rule.n_phi) + 1, H.ELL_MAX + 1):
        with pytest.raises(ValueError, match="outside"):
            grown.extend(L)
    problem = grown.extend(6)  # the same degree again is the same system
    assert np.array_equal(problem.blocks[0].matrix,
                          system(sphere_rule, 6, np.zeros(sphere_rule.n_nodes), lsq.NEUMANN).blocks[0].matrix)


def test_design_matrix_is_column_major_and_its_reflectors_contiguous(sphere_rule):
    # numpy's raw QR returns the transpose of a copy in A's layout: with a row-major A, each reflector
    # row that _householder_qtb reads is strided by n doubles
    growing = lsq.GrowingSystem(sphere_rule, np.ones(sphere_rule.n_nodes), lsq.NEUMANN, 0.0)
    for L in (0, 3, 7):
        A = growing.extend(L).blocks[0].matrix
        assert A.shape == (sphere_rule.n_nodes, (L + 1) ** 2) and A.flags.f_contiguous
        assert np.linalg.qr(A, mode="raw")[0].flags.c_contiguous


def test_householder_projection_equals_the_complete_q(sphere_rule):
    A = system(sphere_rule, 6, np.zeros(sphere_rule.n_nodes), lsq.ROBIN, 1.0).blocks[0].matrix
    b = np.random.default_rng(5).standard_normal(sphere_rule.n_nodes)
    for order in "CF":
        copy = np.array(A, order=order)
        h, tau = np.linalg.qr(copy, mode="raw")
        expected = (np.linalg.qr(copy, mode="complete")[0].T @ b)[: A.shape[1]]
        qtb = lsq._householder_qtb(h[None], tau[None], b[None, None, :, None])[0, 0, :, 0]
        assert np.linalg.norm(qtb - expected) <= 1e-13 * np.linalg.norm(expected)


ORDER_CASES = {  # surface, L: a sphere and an off-center spheroid, both surfaces of revolution
    "sphere": (G.SurfaceSpec.sphere(1.2), 6),
    "spheroid-off-center": (G.SurfaceSpec.spheroid(1.0, 0.5, center=(0.1, -0.2, 0.05)), 6),
}


@pytest.mark.parametrize("bc, sigma", [(lsq.DIRICHLET, 0.0), (lsq.NEUMANN, 0.0), (lsq.ROBIN, 1.0)])
@pytest.mark.parametrize("name", ORDER_CASES)
def test_order_blocks_solve_the_full_system(name, bc, sigma):
    spec, L = ORDER_CASES[name]
    rule = G.build_quadrature(spec, 24, 48)
    sources = (np.add(spec.center, [0.3, 0.0, 0.0]), np.add(spec.center, [0.0, -0.1, 0.25]))
    values = np.stack([F.boundary_data_from_oracle(rule, F.PointSource(z), bc, sigma).values for z in sources])
    full = lsq.solve(lsq.GrowingSystem(rule, values, bc, sigma).extend(L))
    split = lsq.solve(lsq.OrderSystem(rule, values, bc, sigma).extend(L))
    assert split.rank == full.rank == (L + 1) ** 2
    assert split.cond_estimate == pytest.approx(full.cond_estimate, rel=1e-10)
    for key in ("residual_l2", "sup_residual"):
        assert np.allclose(getattr(split, key), getattr(full, key), rtol=1e-10, atol=0.0)
    for c_split, c_full in zip(split.coefficients, full.coefficients):
        assert np.max(np.abs(c_split - c_full)) <= 1e-10 * np.max(np.abs(c_full))


def test_order_blocks_keep_the_robin_eigenvalue_deficit():
    # on sphere(1), sigma = 1 the monopole column vanishes: rank 195 of 196 at L = 13. Each order
    # k > 0 counts twice, so an odd rank puts the deficit in the k = 0 block
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 24, 48)
    values = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]), lsq.ROBIN, 1.0).values
    full = lsq.solve(lsq.GrowingSystem(rule, values, lsq.ROBIN, 1.0).extend(13))
    split = lsq.solve(lsq.OrderSystem(rule, values, lsq.ROBIN, 1.0).extend(13))
    assert split.rank == full.rank == 195
    assert abs(split.coefficients[0]) <= 1e-8  # the minimum-norm fit leaves c_00 out
    assert np.max(np.abs(split.coefficients - full.coefficients)) <= 1e-10 * np.max(np.abs(full.coefficients))
    assert split.residual_l2 == pytest.approx(full.residual_l2, rel=1e-10)


def test_order_system_refuses_what_it_cannot_split():
    bump = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 24, 48)
    with pytest.raises(ValueError, match="not a surface of revolution"):
        lsq.OrderSystem(bump, np.zeros(bump.n_nodes), lsq.DIRICHLET, 0.0)
    rule = G.build_quadrature(G.SurfaceSpec.spheroid(1.0, 0.5), 24, 48)
    system = lsq.OrderSystem(rule, np.zeros(rule.n_nodes), lsq.DIRICHLET, 0.0)
    with pytest.raises(ValueError, match="outside"):  # 2L < n_phi keeps the azimuthal projection exact
        system.extend(G.max_degree(rule.n_theta, rule.n_phi) + 1)


ROTATION_CASES = {  # cosine_bump's p and the rule's n_theta x n_phi; GrowingSystem takes the order g = gcd(p, n_phi)
    "g2": (2, 12, 24), "g3": (3, 12, 24), "g4": (4, 12, 24), "g5": (5, 12, 25), "p6-on-45": (6, 12, 45),
    "g3-on-13x24": (3, 13, 24),  # an odd n_theta: the fold's equator line serves the even blocks only
    "g1-on-13x24": (1, 13, 24),  # one class: the whole matrix, or its two theta-parity blocks
}


@pytest.mark.parametrize("name", ROTATION_CASES)
def test_rotation_classes_solve_the_full_system(name):
    p, n_theta, n_phi = ROTATION_CASES[name]
    g, L = math.gcd(p, n_phi), 8
    rule = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, p), n_theta, n_phi)
    values = np.stack([F.boundary_data_from_oracle(rule, F.PointSource(z), lsq.ROBIN, 1.0).values
                       for z in ([0.3, 0.0, 0.0], [0.0, -0.1, 0.25])])
    whole = lsq.GrowingSystem(rule, values, lsq.ROBIN, 1.0).extend(L)
    svals = np.linalg.svd(whole.blocks[0].matrix, compute_uv=False)
    full = lsq.solve(whole)
    for mirror in (False, True):
        classes = lsq.GrowingSystem(rule, values, lsq.ROBIN, 1.0, g, mirror).extend(L)
        # class 0, the pairs +-k, and class g/2 for even g; each split in two by theta-parity under the fold
        assert len(classes.blocks) == (g // 2 + 1) * (1 + mirror)
        assert sorted(np.concatenate([b.columns.ravel() for b in classes.blocks])) == list(range((L + 1) ** 2))
        union = np.sort(np.concatenate([np.linalg.svd(b.matrix, compute_uv=False) for b in classes.blocks]))[::-1]
        assert np.max(np.abs(union - svals)) <= 1e-14 * svals[0]
        split = lsq.solve(classes)
        assert split.rank == full.rank
        for c_split, c_full in zip(split.coefficients, full.coefficients):
            assert np.max(np.abs(c_split - c_full)) <= 1e-12 * np.max(np.abs(c_full))
        # both residuals are synthesised on every node, which has a floor of about 1e-14 of the data
        f_l2, f_sup = np.linalg.norm(values * np.sqrt(rule.weights), axis=1), np.max(np.abs(values), axis=1)
        assert np.all(np.abs(split.residual_l2 - full.residual_l2) <= 1e-12 * f_l2)
        assert np.all(np.abs(split.sup_residual - full.sup_residual) <= 1e-12 * f_sup)


def test_rotation_classes_refuse_what_they_cannot_split():
    rule = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 12, 24)
    for order in (0, 5):  # 5 does not divide 24
        with pytest.raises(ValueError, match="rotation order"):
            lsq.GrowingSystem(rule, np.zeros(rule.n_nodes), lsq.DIRICHLET, 0.0, order)


def test_a_fold_refuses_theta_lines_that_are_not_mirrored():
    rule = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 12, 24)
    lsq.GrowingSystem(rule, np.zeros(rule.n_nodes), lsq.DIRICHLET, 0.0, 3, True)  # Gauss-Legendre lines pair up
    theta = np.repeat(np.linspace(0.1, 3.0, 12), 24)  # uniform lines, not symmetric about pi/2
    skewed = dataclasses.replace(rule, theta=theta)
    with pytest.raises(ValueError, match="mirrored through the equator"):
        lsq.GrowingSystem(skewed, np.zeros(rule.n_nodes), lsq.DIRICHLET, 0.0, 3, True)
    lsq.GrowingSystem(skewed, np.zeros(rule.n_nodes), lsq.DIRICHLET, 0.0, 3)  # unfolded, the lines are not read


def test_extend_refuses_a_degree_above_the_top_one():
    rule = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 12, 24)
    system = lsq.GrowingSystem(rule, np.zeros(rule.n_nodes), lsq.DIRICHLET, 0.0, L_max=5)
    assert [b.matrix.shape for b in system.extend(5).blocks] == [(rule.n_nodes, 36)]
    with pytest.raises(ValueError, match=r"outside \[5, 5\]"):
        system.extend(6)


@pytest.mark.parametrize("order", [1, 3])
def test_a_grown_system_equals_a_fresh_build(order):
    # the whole matrix (order 1) and the rotation classes (order 3) are written in place degree by
    # degree: each degree's blocks are bit-equal to those of a system built for that degree at once
    rule = G.build_quadrature(G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3), 12, 24)
    values = F.boundary_data_from_oracle(rule, F.PointSource([0.3, 0.0, 0.0]), lsq.ROBIN, 1.0).values
    for mirror in (False, True):  # each class whole, or folded in two by theta-parity
        grown = lsq.GrowingSystem(rule, values, lsq.ROBIN, 1.0, order, mirror)
        for L in (0, 1, 4, 8):
            fresh = lsq.GrowingSystem(rule, values, lsq.ROBIN, 1.0, order, mirror).extend(L)
            for a, b in zip(grown.extend(L).blocks, fresh.blocks, strict=True):
                assert all(np.array_equal(x, y) for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)))
                assert a.matrix.flags.f_contiguous
