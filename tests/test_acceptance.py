"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured figure of merit. Run with `pytest -s
tests/test_acceptance.py` to see the lines."""

import json
import time

import numpy as np
import pytest

from mrc import cli
from mrc import driver as D
from mrc import fields as F
from mrc import geometry as G
from mrc import harmonics as H


def report_line(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 4/5/8 share the preset x boundary-condition matrix ----------

# The sphere radius is deliberately non-integer: with the outward normal,
# the exterior Robin operator annihilates degree l exactly when
# sigma = (l+1)/a, and at a = 1, sigma = 1 the monopole column vanishes,
# making the boundary-value problem itself non-unique (1/r solves the
# homogeneous problem). a = 1.2 keeps sigma = 1 away from every eigenvalue
# so the residual-to-error link being tested actually holds.
SURFACES = {
    "sphere": {"preset": "sphere", "params": {"a": 1.2}},
    "spheroid": {"preset": "spheroid", "params": {"a": 1.0, "e": 0.5}},
    "cosine_bump": {"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "k": 2, "p": 3}},
}
BCS = {"dirichlet": 0.0, "neumann": 0.0, "robin": 1.0}


def matrix_configs():
    for sname, surface in SURFACES.items():
        for bc, sigma in BCS.items():
            yield f"{sname}-{bc}", {
                "surface": dict(surface),
                "bc": {"kind": bc, "sigma": sigma},
                "data": {"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0},
                "mrc": {"epsilon": 1e-6, "L_start": 2, "L_max": 40},
                "quadrature": "auto",
                "outputs": {},
            }


@pytest.fixture(scope="module")
def matrix_runs():
    runs = {}
    t0 = time.perf_counter()
    for name, doc in matrix_configs():
        from mrc.config import RunConfig

        cfg = RunConfig.from_dict(doc)
        report, errors = cli.run_cells([cfg])[0]  # what `mrc solve` runs
        runs[name] = (cfg, report, errors)
    runs["_elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_1_orthonormality():
    t0 = time.perf_counter()
    L = 20
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), L + 1, 2 * L + 1)
    Y = H.eval_Y(L, rule.points)
    gram = (Y * rule.weights[:, None]).T @ Y
    err = float(np.max(np.abs(gram - np.eye(H.n_terms(L)))))
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 1 (orthonormality to L=20)",
        err <= 1e-12 and elapsed < 5.0,
        f"max Gram error {err:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_band_limited_recovery():
    worst_coeff = 0.0
    worst_res = 0.0
    ok = True
    for a in (1.0, 2.0):
        spec = G.SurfaceSpec.sphere(a)
        rule = G.build_quadrature(spec, 42, 82)
        for ell in range(11):
            for m in (-ell, 0, ell) if ell else (0,):
                c = np.zeros(H.n_terms(ell))
                c[H.flatten(ell, m)] = 1.0
                # oracle carries the trace f = Y_lm on the surface: since
                # h_lm = Y_lm / a^(l+1) there, use coefficients a^(l+1)
                data = F.boundary_data_from_oracle(rule, F.BandLimited(c * a ** (ell + 1)))
                # patience > 10: f = Y_lm leaves the residual flat for all
                # degrees below l, which the default stagnation guard
                # would misread as nonconvergence
                rep = D.run_mrc(
                    spec, rule, data,
                    D.MrcConfig(epsilon=1e-11, L_start=0, stagnation_patience=15),
                )
                fitted = rep.coefficients[H.flatten(ell, m)]
                rel = abs(fitted - a ** (ell + 1)) / a ** (ell + 1)
                worst_coeff = max(worst_coeff, rel)
                worst_res = max(worst_res, rep.final_residual)
                ok &= rep.chosen_L == ell and rel <= 1e-10 and rep.final_residual <= 1e-11
    report_line(
        "criterion 2 (band-limited recovery, l<=10, a in {1,2})",
        ok,
        f"worst coeff rel err {worst_coeff:.3e}, worst residual {worst_res:.3e}",
    )


def test_criterion_3_multipole_oracle_equivalence():
    t0 = time.perf_counter()
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 42, 82)
    z = np.array([0.3, 0.0, 0.0])
    data = F.boundary_data_from_oracle(rule, F.PointSource(z))
    rep = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-10, L_start=2))
    assert rep.termination == D.CONVERGED
    L_cmp = rep.chosen_L - 2  # the last degrees absorb the truncated tail
    expected = F.multipole_coefficients(z, 1.0, L_cmp)
    got = rep.coefficients[: H.n_terms(L_cmp)]
    err = float(np.max(np.abs(got - expected)))
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 3 (multipole oracle equivalence)",
        err <= 1e-8 and elapsed < 10.0,
        f"chosen_L={rep.chosen_L}, max coeff err {err:.3e}, {elapsed:.2f}s",
    )


def test_matrix_chosen_L_pinned(matrix_runs):
    # the north-star invariant: a change that keeps the method keeps every cell's degree
    expected = dict(zip((name for name, _ in matrix_configs()), (9, 11, 11, 10, 12, 12, 11, 13, 13)))
    chosen = {name: matrix_runs[name][1].chosen_L for name in expected}
    report_line("matrix chosen_L", chosen == expected, str(chosen))


def test_criterion_4_constructive_convergence(matrix_runs):
    ok = True
    details = []
    for name, doc in matrix_configs():
        _, report, _ = matrix_runs[name]
        good = report.termination == D.CONVERGED and report.chosen_L <= 40 and report.final_residual <= 1e-6
        ok &= good
        details.append(f"{name}: L={report.chosen_L} res={report.final_residual:.2e}")
    elapsed = matrix_runs["_elapsed"]
    ok &= elapsed < 120.0
    report_line(
        "criterion 4 (preset x bc matrix converges)",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_criterion_5_exterior_error_bound(matrix_runs):
    ok = True
    worst = 0.0
    for name, _ in matrix_configs():
        _, report, errors = matrix_runs[name]
        sr_error = errors[0].l2
        ratio = sr_error / report.final_residual
        worst = max(worst, ratio)
        ok &= sr_error <= 10.0 * report.final_residual
    report_line(
        "criterion 5 (L2(S_R) error <= 10 x boundary residual)",
        ok,
        f"worst ratio {worst:.3f}",
    )


def test_criterion_6_residual_monotonicity(matrix_runs):
    ok = True
    for name, _ in matrix_configs():
        _, report, _ = matrix_runs[name]
        residuals = [h.residual_l2 for h in report.history]
        ok &= all(b <= a for a, b in zip(residuals, residuals[1:]))
    report_line("criterion 6 (residual history non-increasing)", ok, f"{len(SURFACES) * len(BCS)} runs checked")


def test_criterion_7_harmonicity_and_decay(matrix_runs):
    # finite-difference Laplacian of the exterior basis
    rng = np.random.default_rng(2024)
    L = 10
    ells = H.degrees(L)
    worst_lap = 0.0
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
        scale = (np.abs(h0) + np.max(np.abs(h0))) * (ells + 1) * (ells + 2) / r**2
        worst_lap = max(worst_lap, float(np.max(np.abs(lap) / scale)))

    # far-field decay of a fitted field: t * v(t * xhat) reaches the
    # monopole amplitude; higher moments decay like 1/t
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 32, 64)
    data = F.boundary_data_from_oracle(rule, F.PointSource([5e-4, 0.0, 3e-4]))
    rep = D.run_mrc(spec, rule, data, D.MrcConfig(epsilon=1e-10, L_start=0))
    xhat = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    t = 1e3 * G.radius_bounds(spec)[1]
    gap = abs(t * rep.field(t * xhat) - rep.coefficients[0] / np.sqrt(4 * np.pi))
    report_line(
        "criterion 7 (harmonicity + far-field decay)",
        worst_lap <= 1e-5 and gap <= 1e-6,
        f"worst FD Laplacian {worst_lap:.3e}, decay gap {gap:.3e}",
    )


def test_criterion_8_determinism(tmp_path):
    outs = []
    for run in ("first", "second"):
        out = tmp_path / run
        for name, doc in matrix_configs():
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(doc))
            rc = cli.main(["solve", str(cfg_path), "--out", str(out / name)])
            assert rc == 0
        outs.append(out)
    ok = True
    for name, _ in matrix_configs():
        for fname in ("report.json", "history.csv", "field_errors.csv"):
            a = (outs[0] / name / fname).read_bytes()
            b = (outs[1] / name / fname).read_bytes()
            ok &= a == b
    report_line("criterion 8 (byte-identical reports)", ok, "9 runs x 3 files compared")
