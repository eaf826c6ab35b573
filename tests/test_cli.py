import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mrc import cli
from mrc import geometry as G
from mrc import lsq
from mrc.config import RunConfig
from mrc.errors import ConfigError


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def base_config(**overrides):
    doc = {
        "surface": {"preset": "sphere", "params": {"a": 1.0}},
        "bc": {"kind": "dirichlet"},
        "data": {"type": "band_limited", "coefficients": [[3, 2, 1.0]]},
        "mrc": {"epsilon": 1e-10, "L_start": 0, "L_max": 12},
        "quadrature": "auto",
        "outputs": {},
    }
    doc.update(overrides)
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_solve_band_limited(tmp_path):
    cfg = write_config(tmp_path, base_config())
    rc = cli.main(["solve", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["chosen_L"] == 3
    assert report["termination"] == "converged"


def test_solve_at_degree_zero_on_the_auto_rule(tmp_path):
    # the auto rule for L_max = 0 is the 2 x 4 minimum, not a 2 x 2 rule that exits 2 after making the outputs
    doc = base_config(data={"type": "band_limited", "coefficients": [[0, 0, 1.0]]},
                      mrc={"epsilon": 1e-10, "L_start": 0, "L_max": 0})
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["chosen_L"] == 0


def test_negative_epsilon_is_config_error(tmp_path):
    doc = base_config()
    doc["mrc"]["epsilon"] = -1.0
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["solve", str(cfg), "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "history.csv").exists()


def test_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG


def test_nonconvergence_exit_code_with_report(tmp_path):
    doc = base_config(
        data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0},
        mrc={"epsilon": 1e-15, "L_start": 0, "L_max": 10},
    )
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["solve", str(cfg), "--out", str(tmp_path)])
    assert rc == cli.EXIT_NONCONVERGED
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["termination"] in ("stagnated", "L_max_reached")


def test_history_csv_non_increasing(tmp_path):
    doc = base_config(
        surface={"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "k": 2, "p": 3}},
        data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0},
        mrc={"epsilon": 1e-6, "L_start": 2, "L_max": 30},
    )
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["solve", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "history.csv")
    residuals = [float(r["residual_l2"]) for r in rows]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    errs = read_csv(tmp_path / "field_errors.csv")
    assert set(errs[0]) == {"R", "l2_error", "sup_error"}


def test_report_schema_complete(tmp_path):
    cfg = write_config(tmp_path, base_config())
    cli.main(["solve", str(cfg), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    for key in (
        "chosen_L", "termination", "epsilon", "svd_rtol", "bc", "sigma", "f_norm",
        "final_residual", "rule_refined", "fd_derivatives", "history", "coefficients", "config",
    ):
        assert key in report
    for key in ("L", "residual_l2", "residual_rel", "sup_residual", "rank", "cond_estimate"):
        assert key in report["history"][0]


def test_config_roundtrip_bit_identical(tmp_path):
    doc = base_config()
    cfg1 = write_config(tmp_path, doc, "a.json")
    out1 = tmp_path / "out1"
    cli.main(["solve", str(cfg1), "--out", str(out1)])

    # re-serialize the parsed config and run again
    parsed = RunConfig.load(cfg1)
    cfg2 = write_config(tmp_path, parsed.to_dict(), "b.json")
    out2 = tmp_path / "out2"
    cli.main(["solve", str(cfg2), "--out", str(out2)])

    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()


def test_sweep_epsilon_grid(tmp_path):
    doc = base_config(data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0})
    doc["mrc"]["L_max"] = 20
    doc["grid"] = {"mrc.epsilon": [1e-2, 1e-4, 1e-6, 1e-8]}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["sweep", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert [float(r["mrc.epsilon"]) for r in rows] == [1e-2, 1e-4, 1e-6, 1e-8]
    chosen = [int(r["chosen_L"]) for r in rows]
    assert chosen == sorted(chosen)  # tighter epsilon needs at least as many degrees


def test_sweep_empty_grid(tmp_path):
    doc = base_config()
    doc["grid"] = {}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["sweep", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.splitlines() == ["termination,chosen_L,final_residual,sr_error,error"]


def test_sweep_delta_zero_matches_pure_sphere(tmp_path):
    doc = base_config(
        surface={"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.1, "k": 2, "p": 3}},
        data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0},
        mrc={"epsilon": 1e-6, "L_start": 2, "L_max": 25},
    )
    doc["grid"] = {"surface.params.delta": [0.0, 0.1, 0.2]}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", str(cfg), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep.csv")

    sphere_doc = base_config(
        surface={"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.0, "k": 2, "p": 3}},
        data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0},
        mrc={"epsilon": 1e-6, "L_start": 2, "L_max": 25},
    )
    cfg2 = write_config(tmp_path, sphere_doc, "sphere.json")
    out2 = tmp_path / "sphere_out"
    cli.main(["solve", str(cfg2), "--out", str(out2)])
    report = json.loads((out2 / "report.json").read_text())
    row0 = rows[0]
    assert float(row0["surface.params.delta"]) == 0.0
    assert row0["termination"] == report["termination"]
    assert int(row0["chosen_L"]) == report["chosen_L"]
    assert float(row0["final_residual"]) == report["final_residual"]


def test_sweep_cell_failure_recorded_in_row(tmp_path):
    doc = base_config(data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0})
    doc["mrc"] = {"epsilon": 1e-6, "L_start": 0, "L_max": 20}
    doc["grid"] = {"data.z": [[0.3, 0.0, 0.0], [2.0, 0.0, 0.0]]}  # second source is exterior
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", str(cfg), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0]["termination"] == "converged"
    assert rows[1]["termination"] == "error"
    assert rows[1]["error"]


def test_sweep_rerun_deterministic(tmp_path):
    doc = base_config(data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0})
    doc["grid"] = {"mrc.epsilon": [1e-3, 1e-5, 1e-7]}
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["sweep", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["sweep", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_sweep_has_no_jobs_option(tmp_path):
    doc = base_config()
    doc["grid"] = {"mrc.epsilon": [1e-3]}
    cfg = write_config(tmp_path, doc)
    with pytest.raises(SystemExit):
        cli.main(["sweep", str(cfg), "--out", str(tmp_path), "--jobs", "2"])


def test_tabulated_data_roundtrip(tmp_path):
    # samples written on the exact quadrature nodes reproduce the oracle run
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 14, 26)  # auto size for L_max=12
    z = np.array([0.3, 0.0, 0.0])
    f = 1.0 / np.linalg.norm(rule.points - z, axis=1)
    lines = ["theta,phi,f"] + [
        f"{t:.17g},{p:.17g},{v:.17g}" for t, p, v in zip(rule.theta, rule.phi, f)
    ]
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")

    doc = base_config(
        data={"type": "tabulated", "path": "samples.csv"},
        mrc={"epsilon": 1e-6, "L_start": 0, "L_max": 12},
    )
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["solve", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())

    doc2 = base_config(
        data={"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0},
        mrc={"epsilon": 1e-6, "L_start": 0, "L_max": 12},
    )
    cfg2 = write_config(tmp_path, doc2, "oracle.json")
    out2 = tmp_path / "o"
    cli.main(["solve", str(cfg2), "--out", str(out2)])
    report2 = json.loads((out2 / "report.json").read_text())
    assert report["chosen_L"] == report2["chosen_L"]
    assert report["final_residual"] == pytest.approx(report2["final_residual"], rel=1e-12)


def test_tabulated_angle_mismatch_fails_loudly(tmp_path):
    spec = G.SurfaceSpec.sphere(1.0)
    rule = G.build_quadrature(spec, 14, 26)
    f = np.ones(rule.n_nodes)
    lines = ["theta,phi,f"] + [
        f"{t + 1e-6:.17g},{p:.17g},{v:.17g}" for t, p, v in zip(rule.theta, rule.phi, f)
    ]
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    doc = base_config(data={"type": "tabulated", "path": "samples.csv"},
                      mrc={"epsilon": 1e-6, "L_start": 0, "L_max": 12})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_geometry_error_exit_code(tmp_path):
    doc = base_config(surface={"preset": "torus", "params": {"a": 1.0}})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG  # unknown preset is config

    # interior-source violation surfaces as a config error as well
    doc2 = base_config(data={"type": "point_source", "z": [5.0, 0.0, 0.0], "q": 1.0})
    cfg2 = write_config(tmp_path, doc2, "g.json")
    assert cli.main(["solve", str(cfg2)]) == cli.EXIT_CONFIG


def test_float_formatting_17_digits(tmp_path):
    cfg = write_config(tmp_path, base_config())
    cli.main(["solve", str(cfg), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    # every float in the file round-trips exactly through its text form
    coeff = next(c for c in report["coefficients"] if c["ell"] == 3 and c["m"] == 2)
    assert coeff["value"] == pytest.approx(1.0, abs=1e-11)



_POINT = {"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0}
_DELETE = object()


def _edit(doc, dotted, value):
    *path, last = dotted.split(".")
    for key in path:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("edits", [
    pytest.param(edits, id=name) for name, edits in {
        # each of these ended in a traceback, or ran with the key ignored, before
        "spheroid-without-e": {"surface": {"preset": "spheroid", "params": {"a": 1.0}}},
        "string-radius": {"surface.params.a": "1"},
        "unknown-surface-param": {"surface.params.b": 1.0},
        "fractional-k": {"surface": {"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "k": 2.5}}},
        "list-preset": {"surface.preset": ["sphere"]},
        "string-sigma": {"bc": {"kind": "robin", "sigma": "1"}},
        "bc-sgima": {"bc": {"kind": "robin", "sgima": 3}},
        "fractional-L_max": {"mrc.L_max": 12.5},
        "bool-L_max": {"mrc.L_max": True},
        "mrc-Lmax": {"mrc.Lmax": 5},
        "mrc-stagnation_patiance": {"mrc.stagnation_patiance": 50},
        "no-epsilon": {"mrc.epsilon": _DELETE},
        "string-n_theta": {"quadrature": {"n_theta": "x", "n_phi": 26}},
        "quadrature-n_r": {"quadrature": {"n_theta": 14, "n_phi": 26, "n_r": 3}},
        "quadrature-below-2x4": {"quadrature": {"n_theta": 1, "n_phi": 4}},
        "outputs-reprot": {"outputs.reprot": "r.json"},
        "top-level-bogus": {"bogus": 1},
        "nan-source": {"data": dict(_POINT, z=[float("nan"), 0.0, 0.0])},
        "string-z": {"data": dict(_POINT, z="abc")},
        "two-element-z": {"data": dict(_POINT, z=[0.3, 0.0])},
        "string-q": {"data": dict(_POINT, q="2")},
        "string-center": {"surface.center": "abc"},
        "m-above-ell": {"data.coefficients": [[1, 3, 1.0]]},
        # p = 0 is a surface of revolution with other extremes, and p = -3 the surface of p = 3 again
        "cosine_bump-p-0": {"surface": {"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "p": 0}}},
        "cosine_bump-p-negative": {"surface": {"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "p": -3}}},
        "ell-above-ELL_MAX": {"data.coefficients": [[65, 0, 1.0]]},
        "two-entry-coefficient": {"data.coefficients": [[1, 0]]},
        "numeric-path": {"data": {"type": "tabulated", "path": 5}},
        "field-radius-inside-surface": {"outputs.field_radii": [0.5]},
        "string-field-radius": {"outputs.field_radii": ["x"]},
        "bc-neuman": {"bc": {"kind": "neuman"}},
        "numeric-report": {"outputs.report": 5},
        "list-history_csv": {"outputs.history_csv": ["a"]},
        "numeric-sweep_csv": {"outputs.sweep_csv": 7},
        "empty-report": {"outputs.report": ""},
        "dot-report": {"outputs.report": "."},
        "dotdot-history_csv": {"outputs.history_csv": "sub/.."},
        "directory-field_error_csv": {"outputs.field_error_csv": "sub/"},
        # json reads Infinity and long integers; these ran into the solve, past it, or to a traceback before
        "infinite-epsilon": {"mrc.epsilon": float("inf")},
        "infinite-svd_rtol": {"mrc.svd_rtol": float("inf")},
        "infinite-field-radius": {"outputs.field_radii": [float("inf")]},
        "infinite-sigma": {"bc": {"kind": "robin", "sigma": float("inf")}},
        "infinite-q": {"data": dict(_POINT, q=float("inf"))},
        "epsilon-beyond-float-range": {"mrc.epsilon": 10**400},
    }.items()
])
def test_bad_config_value_is_config_error(tmp_path, edits):
    doc = base_config()
    for dotted, value in edits.items():
        _edit(doc, dotted, value)
    cfg = write_config(tmp_path, doc)
    with pytest.raises(ConfigError):  # at load, before any quadrature is built
        RunConfig.from_dict(json.loads(cfg.read_text()), base_dir=tmp_path)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "report.json").exists()


def test_cosine_bump_defaults_come_from_the_preset_table(tmp_path):
    histories = []
    for name, params in (("defaults", {}), ("explicit", {"k": 2, "p": 3})):
        doc = base_config(surface={"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, **params}},
                          data=dict(_POINT), mrc={"epsilon": 1e-6, "L_max": 20})
        out = tmp_path / name
        assert cli.main(["solve", str(write_config(tmp_path, doc, f"{name}.json")), "--out", str(out)]) == 0
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]
    spec = G.SurfaceSpec("cosine_bump", {"a": 1.0, "delta": 0.2})
    assert spec == G.SurfaceSpec.cosine_bump(1.0, 0.2) == G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3)
    assert type(spec.params["k"]) is int and type(spec.params["p"]) is int


@pytest.mark.parametrize("sample", ["nan", "abc"])
def test_bad_tabulated_sample_is_config_error(tmp_path, sample):
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 14, 26)
    f = ["1.0"] * rule.n_nodes
    f[5] = sample
    lines = ["theta,phi,f"] + [f"{t:.17g},{p:.17g},{v}" for t, p, v in zip(rule.theta, rule.phi, f)]
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    doc = base_config(data={"type": "tabulated", "path": "samples.csv"},
                      mrc={"epsilon": 1e-6, "L_start": 0, "L_max": 12})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG


def test_preset_solve_makes_no_radius_scan(tmp_path, monkeypatch):
    # a point-source solve needs the inscribed radius twice: for the source check and for the field;
    # a preset gives both radii in closed form, so the dense scan of a custom surface never runs
    scans = []
    scan = G._scan_radius_bounds
    monkeypatch.setattr(G, "_scan_radius_bounds", lambda spec: scans.append(spec) or scan(spec))
    cfg = write_config(tmp_path, base_config(data=dict(_POINT), mrc={"epsilon": 1e-6, "L_max": 12}))
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
    assert scans == []


def test_sweep_grid_path_through_non_object_is_row_error(tmp_path):
    doc = base_config()
    doc["grid"] = {"surface.preset.x": [1]}  # "sphere" is a string, not an object
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", str(cfg), "--out", str(tmp_path)]) == 0
    (row,) = read_csv(tmp_path / "sweep.csv")
    assert row["termination"] == "error"
    assert row["error"].startswith("ConfigError") and "surface.preset.x" in row["error"]


def test_sweep_cell_count_checked_before_the_product(tmp_path):
    doc = base_config()
    doc["grid"] = {f"k{i}": list(range(100)) for i in range(8)}  # 10**16 cells
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("edits", [
    {"data": dict(_POINT, z=[2.0, 0.0, 0.0])},
    {"outputs.field_radii": [0.5]},
], ids=["exterior-source", "field-radius-inside-surface"])
def test_source_and_field_radii_checked_at_load(monkeypatch, edits):
    def no_rule(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr(G, "build_quadrature", no_rule)
    doc = base_config()
    for dotted, value in edits.items():
        _edit(doc, dotted, value)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


def test_tabulated_field_radii_checked(tmp_path):
    rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 14, 26)
    lines = ["theta,phi,f"] + [f"{t},{p},1.0" for t, p in zip(rule.theta, rule.phi)]
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    for radii, code in (("x", cli.EXIT_CONFIG), ([0.5], cli.EXIT_CONFIG), ([2.0], cli.EXIT_OK)):
        doc = base_config(data={"type": "tabulated", "path": "samples.csv"},
                          mrc={"epsilon": 1e-6, "L_start": 0, "L_max": 12}, outputs={"field_radii": radii})
        assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == code
    assert (tmp_path / "report.json").exists()
    assert not (tmp_path / "field_errors.csv").exists()  # no oracle, no field errors


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("case", ["quadrature-below-2x4", "tabulated-short-of-L_start"])
def test_rule_checked_at_load_before_any_output(tmp_path, case, command):
    # these failed only in the driver, after the output directories were made (and a sweep exited 0)
    if case == "quadrature-below-2x4":
        doc = base_config(quadrature={"n_theta": 1, "n_phi": 4})
    else:
        rule = G.build_quadrature(G.SurfaceSpec.sphere(1.0), 4, 8)  # resolves degree 3
        lines = ["theta,phi,f"] + [f"{t!r},{p!r},1.0" for t, p in zip(rule.theta, rule.phi)]
        (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
        doc = base_config(data={"type": "tabulated", "path": "samples.csv"}, quadrature={"n_theta": 4, "n_phi": 8},
                          mrc={"epsilon": 1e-6, "L_start": 5, "L_max": 12})
    doc["outputs"] = {"report": "sub/report.json", "sweep_csv": "sub/sweep.csv"}
    doc["grid"] = {"mrc.epsilon": [1e-4, 1e-6]}
    cfg = write_config(tmp_path, doc)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(json.loads(cfg.read_text()), base_dir=tmp_path)
    assert cli.main([command, str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_report_floats_read_back_as_written(tmp_path):
    doc = base_config(surface={"preset": "sphere", "params": {"a": 1.2}}, bc={"kind": "robin", "sigma": 1.0},
                      mrc={"epsilon": 1e-6, "L_start": 0, "L_max": 12})
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text)
    assert type(report["sigma"]) is float and report["sigma"] == 1.0
    assert type(report["config"]["bc"]["sigma"]) is float
    assert '"epsilon": 1e-06' in text and "9.99999" not in text


def test_sweep_rows_equal_single_solves(tmp_path):
    # two surfaces make two groups; each group shares one system among its
    # sources and epsilons, yet every row must be the cell's own `mrc solve`
    doc = base_config(surface={"preset": "spheroid", "params": {"a": 1.0, "e": 0.5}}, bc={"kind": "neumann"},
                      data=dict(_POINT), mrc={"epsilon": 1e-6, "L_start": 2, "L_max": 20})
    doc["grid"] = {"data.z": [[0.3, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.1, 0.25]],
                   "mrc.epsilon": [1e-3, 1e-5, 1e-7], "surface.params.e": [0.3, 0.5]}
    assert cli.main(["sweep", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "sweep")]) == 0
    rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    assert len(rows) == 18
    for i, row in enumerate(rows):
        if row["data.z"] == "[2.0,0.0,0.0]":
            assert row["termination"] == "error"
            assert row["error"] == "ConfigError: source point must lie inside the inscribed sphere"
            continue
        cell = json.loads(json.dumps(doc))
        del cell["grid"]
        cell["data"]["z"] = json.loads(row["data.z"])
        cell["mrc"]["epsilon"] = float(row["mrc.epsilon"])
        cell["surface"]["params"]["e"] = float(row["surface.params.e"])
        out = tmp_path / f"cell{i}"
        cli.main(["solve", str(write_config(tmp_path, cell, f"cell{i}.json")), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert row["error"] == ""
        assert row["termination"] == report["termination"]
        assert row["chosen_L"] == str(report["chosen_L"] or "")
        assert float(row["final_residual"]) == report["final_residual"]
        assert float(row["sr_error"]) == float(read_csv(out / "field_errors.csv")[0]["l2_error"])


def test_one_svd_per_degree_per_group(tmp_path, monkeypatch):
    # one factorisation per degree for the whole group: lsq.solve is the one per-degree entry (on a
    # spheroid it runs one small SVD per azimuthal order, so np.linalg.svd is not the count)
    calls = []
    solve = lsq.solve
    monkeypatch.setattr(lsq, "solve", lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    doc = base_config(surface={"preset": "spheroid", "params": {"a": 1.0, "e": 0.5}},
                      data=dict(_POINT), mrc={"epsilon": 1e-6, "L_start": 2, "L_max": 20})
    doc["grid"] = {"data.z": [[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3], [0.1, -0.2, 0.1]],
                   "mrc.epsilon": [1e-4, 1e-6, 1e-8]}
    assert cli.main(["sweep", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 12 and all(row["termination"] == "converged" for row in rows)
    assert len(calls) == max(int(row["chosen_L"]) for row in rows) - 2 + 1


def test_preset_sweeps_make_no_radius_scan(tmp_path, monkeypatch):
    # neither a sweep that leaves `surface` alone nor one that varies surface.* scans a preset surface
    scans = []
    scan = G._scan_radius_bounds
    monkeypatch.setattr(G, "_scan_radius_bounds", lambda spec: scans.append(spec) or scan(spec))
    doc = base_config(surface={"preset": "spheroid", "params": {"a": 1.0, "e": 0.5}},
                      data=dict(_POINT), mrc={"epsilon": 1e-6, "L_start": 2, "L_max": 20})
    doc["grid"] = {"data.z": [[0.3, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3], [0.1, -0.2, 0.1]],
                   "mrc.epsilon": [1e-4, 1e-6, 1e-8]}
    assert cli.main(["sweep", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "a")]) == 0
    assert scans == []
    doc["grid"] = {"surface.params.e": [0.3, 0.5]}
    assert cli.main(["sweep", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "b")]) == 0
    assert scans == []
    assert all(row["termination"] == "converged" for row in read_csv(tmp_path / "b" / "sweep.csv"))


@pytest.mark.filterwarnings("error")
def test_source_in_a_valley_of_a_64_lobed_bump_exits_2(tmp_path, capsys, monkeypatch):
    # at theta = pi/2, phi = pi/64 the surface dips to a(1 - delta) = 0.8 between the phi-lines of a dense
    # 1441 x 2880 scan, which reads an inscribed radius of 0.80049: this source outside the surface passed
    # the load check, and the run exited 5
    monkeypatch.setattr(cli.driver, "run_mrc_grid", _no_solve)
    z = [0.8003 * np.cos(np.pi / 64), 0.8003 * np.sin(np.pi / 64), 0.0]
    doc = base_config(surface={"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "p": 64}},
                      data=dict(_POINT, z=z), mrc={"epsilon": 1e-6, "L_max": 12})
    out = tmp_path / "out"
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(out)]) == cli.EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert "inscribed sphere" in line
    assert not out.exists()


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


def test_solve_output_naming_a_directory_is_config_error(tmp_path, monkeypatch):
    # the output paths are checked before the solve: this used to end in IsADirectoryError after it
    monkeypatch.setattr(cli.driver, "run_mrc_grid", _no_solve)
    (tmp_path / "out" / "sub").mkdir(parents=True)
    cfg = write_config(tmp_path, base_config(outputs={"report": "sub"}))
    assert cli.main(["solve", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["sub"]


def test_sweep_csv_naming_a_directory_is_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.driver, "run_mrc_grid", _no_solve)
    (tmp_path / "out" / "table").mkdir(parents=True)
    doc = base_config(outputs={"sweep_csv": "table"})
    doc["grid"] = {"mrc.epsilon": [1e-3, 1e-6]}
    assert cli.main(["sweep", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_sweep_csv_in_a_subdirectory(tmp_path):
    # `mrc solve` made the parent directories of its outputs and `mrc sweep` did not
    doc = base_config(outputs={"sweep_csv": "tables/sweep.csv"})
    doc["grid"] = {"mrc.epsilon": [1e-3, 1e-6]}
    assert cli.main(["sweep", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "tables" / "sweep.csv")
    assert [row["termination"] for row in rows] == ["converged", "converged"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("report", ["report.json", "sub/report.json"])
def test_out_naming_a_file_is_config_error(tmp_path, monkeypatch, command, report):
    # making the output directories under a file raised FileExistsError (or NotADirectoryError): exit 1
    monkeypatch.setattr(cli.driver, "run_mrc_grid", _no_solve)
    (tmp_path / "afile").write_text("kept\n")
    doc = base_config(outputs={"report": report, "sweep_csv": f"{report}.csv"})
    doc["grid"] = {"mrc.epsilon": [1e-3, 1e-6]}
    assert cli.main([command, str(write_config(tmp_path, doc)), "--out", str(tmp_path / "afile")]) == cli.EXIT_CONFIG
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_far_field_radius_gives_finite_errors(tmp_path):
    # sphere_grid_values raised OverflowError on radius ** (l+1) after the solve: a traceback, exit 1
    doc = base_config(data=dict(_POINT), mrc={"epsilon": 1e-6, "L_max": 20}, outputs={"field_radii": [2.0, 1e150]})
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == cli.EXIT_OK
    rows = read_csv(tmp_path / "field_errors.csv")
    assert [float(row["R"]) for row in rows] == [2.0, 1e150]
    assert all(np.isfinite(float(row[key])) for row in rows for key in ("l2_error", "sup_error"))


def test_field_radius_with_an_infinite_square_is_refused_at_load(tmp_path, monkeypatch):
    # its 64 x 128 error-sphere rule has weights of order R^2, which overflow
    monkeypatch.setattr(G, "build_quadrature", _no_solve)
    doc = base_config(data=dict(_POINT), outputs={"field_radii": [2.0, 1e155]})
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edits", [
    {"data": dict(_POINT, q=1e308)},
    {"data": dict(_POINT), "bc": {"kind": "robin", "sigma": 1e308}},
    {"data": {"type": "band_limited", "coefficients": [[1, 0, 1e308]]}, "bc": {"kind": "neumann"}},
], ids=["q", "robin-sigma", "band-limited-neumann"])
def test_data_with_an_infinite_norm_is_config_error(tmp_path, edits):
    # every sample is finite but the discrete L2(S) norm is not: the run exited 5 with f_norm
    # Infinity and every history residual NaN
    doc = base_config(**edits)
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("surface, code", [
    # the default field radius, 2 x 1e300, has an infinite square: refused at load
    ({"preset": "sphere", "params": {"a": 1e300}}, cli.EXIT_CONFIG),
    ({"preset": "spheroid", "params": {"a": 1.0, "e": 1e300}}, cli.EXIT_CONFIG),
    # a finite radius whose weights overflow through d rho / d phi: refused when the rule is built
    ({"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "p": 10**200}}, cli.EXIT_GEOMETRY),
], ids=["sphere-a-1e300", "spheroid-e-1e300", "cosine_bump-p-1e200"])
def test_surface_with_overflowing_weights_exits_before_a_solve(tmp_path, monkeypatch, surface, code):
    # each exited 4: "adaptive loop terminated before completing a single solve"
    monkeypatch.setattr(cli.driver, "run_mrc_grid", _no_solve)
    doc = base_config(surface=surface, data=dict(_POINT, z=[0.1, 0.0, 0.0]))
    with np.errstate(over="ignore"):
        assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == code


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_far_field_radius_on_band_limited_data_prints_nothing(tmp_path, capsys, bc):
    # the oracle's r ** (l+1) overflowed on the error sphere: "RuntimeWarning: overflow" on an exit-0 run
    doc = base_config(bc={"kind": bc}, data={"type": "band_limited", "coefficients": [[3, 1, 1.0]]},
                      outputs={"field_radii": [1e150]})
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    (row,) = read_csv(tmp_path / "field_errors.csv")
    assert all(np.isfinite(float(row[key])) for key in ("l2_error", "sup_error"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits, code", [
    ({"data": dict(_POINT, q=1e308)}, cli.EXIT_CONFIG),
    ({"surface": {"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2, "p": 10**200}},
      "data": dict(_POINT, z=[0.1, 0.0, 0.0])}, cli.EXIT_GEOMETRY),
], ids=["data-norm", "overflowing-weights"])
def test_solve_that_fails_after_load_makes_no_directory(tmp_path, capsys, edits, code):
    # the output directories were made at load, before the data's norm (exit 2) or the rule's weights
    # (exit 3) were checked, and out/sub was left behind
    doc = base_config(**edits)
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "out" / "sub")]) == code
    assert not (tmp_path / "out").exists()
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("surface", [
    {"preset": "sphere", "params": {"a": 1e-150}},  # split by order
    {"preset": "cosine_bump", "params": {"a": 1e-150, "delta": 0.2}},  # the full system
])
def test_surface_too_small_for_its_degrees_exits_3_before_a_solve(tmp_path, capsys, surface):
    # r^(L_max+2) underflowed: the degree blocks divided by 0 with two RuntimeWarnings, and the run
    # exited 4 with "adaptive loop terminated before completing a single solve"
    doc = base_config(surface=surface, data=dict(_POINT, z=[1e-151, 0.0, 0.0]), mrc={"epsilon": 1e-6, "L_max": 12})
    out = tmp_path / "out"
    assert cli.main(["solve", str(write_config(tmp_path, doc)), "--out", str(out)]) == cli.EXIT_GEOMETRY
    (line,) = capsys.readouterr().err.splitlines()
    assert "inscribed radius" in line and "e-15" in line and "ROADMAP item 8" in line
    assert not out.exists()
