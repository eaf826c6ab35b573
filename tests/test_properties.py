"""Invariants of the fit and of the command line, checked on drawn inputs."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrc import cli
from mrc import fields as F
from mrc import geometry as G
from mrc import lsq

SURFACES = {  # two surfaces of revolution (OrderSystem) and one that is not (GrowingSystem)
    "sphere": G.SurfaceSpec.sphere(1.2),
    "spheroid": G.SurfaceSpec.spheroid(1.0, 0.5),
    "cosine_bump": G.SurfaceSpec.cosine_bump(1.0, 0.2, 2, 3),
}
SIGMA = {lsq.DIRICHLET: 0.0, lsq.NEUMANN: 0.0, lsq.ROBIN: 1.0}

coordinate = st.floats(-0.25, 0.25)
source = st.tuples(coordinate, coordinate, coordinate)
weight = st.floats(-3.0, 3.0, allow_subnormal=False)  # a subnormal a f + b g loses its digits: 5e-324 g is not linear


@pytest.fixture(scope="module")
def rules():
    return {name: G.build_quadrature(spec, 14, 26) for name, spec in SURFACES.items()}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SURFACES)), bc=st.sampled_from(lsq.BC_KINDS), z1=source, z2=source,
       a=weight, b=weight, L=st.integers(2, 10))
def test_the_fit_is_linear_in_the_data(rules, name, bc, z1, z2, a, b, L):
    # f, g and a f + b g are solved together, through the system the driver picks for the surface: on a
    # surface of revolution each combines through the order blocks' copies
    spec, rule = SURFACES[name], rules[name]
    f, g = (F.boundary_data_from_oracle(rule, F.PointSource(z), bc, SIGMA[bc]).values for z in (z1, z2))
    system = lsq.OrderSystem if spec.axisymmetric else lsq.GrowingSystem
    c1, c2, c3 = lsq.solve(system(rule, np.stack([f, g, a * f + b * g]), bc, SIGMA[bc]).extend(L)).coefficients
    assert np.max(np.abs(c3 - (a * c1 + b * c2))) <= 1e-11 * (np.max(np.abs(a * c1)) + np.max(np.abs(b * c2)))


BASE_CONFIG = {  # a small solve that converges: a 3-fold bump's auto rule, split and folded
    "surface": {"preset": "cosine_bump", "params": {"a": 1.0, "delta": 0.2}},
    "bc": {"kind": "robin", "sigma": 1.0},
    "data": {"type": "point_source", "z": [0.3, 0.0, 0.0], "q": 1.0},
    "mrc": {"epsilon": 1e-4, "L_max": 8},
    "quadrature": "auto",
    "outputs": {},
}
ESCAPE = "<sandbox>"  # a path outside --out, filled in per example
OUTPUT_NAMES = ["r.json", "sub/r.json", "../escaped.json", "sub/../../escaped.json", f"{ESCAPE}/escaped.json", "",
                ".", "sub/"]
MUTATIONS = {  # each path with values to draw besides the junk below; every degree and rule is small or refused
    "surface.preset": ["sphere", "spheroid", "custom"],
    "surface.params.a": [0.5, 1e-150, 1e150, 1e300],
    "surface.params.delta": [0.0, 0.5, -0.9, 1.0],
    "surface.params.k": [1, 3, 0],
    "surface.params.p": [1, 2, 4, 64],
    "surface.center": [[0.1, -0.2, 0.05], [0.0, 0.0]],
    "bc.kind": ["dirichlet", "neumann", "robin", "neuman"],
    "bc.sigma": [0.0, 2.0, 1e6, -1.0],
    "data.type": ["band_limited", "tabulated", "nonsense"],
    "data.z": [[0.0, 0.0, 0.0], [0.0, 0.1, 0.25], [0.79, 0.0, 0.0], [1e-151, 0.0, 0.0]],
    "data.q": [0.0, -2.0, 1e-300, 1e308],
    "data.coefficients": [[[3, 2, 1.0]], [[99, 0, 1.0]], [[2, 3, 1.0]]],
    "mrc.epsilon": [1e-2, 1e-8, 1e-16, 10.0, -1.0],
    "mrc.L_start": [0, 1, 5, 9],
    "mrc.L_step": [1, 2, 3, 0],
    "mrc.L_max": [0, 1, 2, 5, 10, 65],
    "mrc.svd_rtol": [1e-16, 1e-6, 0.5, 1.0],
    "mrc.stagnation_factor": [0.5, 0.9999999, 1.0],
    "mrc.stagnation_patience": [1, 5, 0],
    "mrc.nonsense": [1],
    "quadrature": [{"n_theta": 2, "n_phi": 4}, {"n_theta": 5, "n_phi": 9}, {"n_theta": 12, "n_phi": 24},
                   {"n_theta": 1, "n_phi": 4}, {"n_theta": 131, "n_phi": 4}, {"n_theta": 10**6, "n_phi": 4},
                   {"n_theta": 8, "n_phi": 10**9}, {"n_theta": 8}, "fine"],
    "outputs.report": OUTPUT_NAMES,
    "outputs.history_csv": OUTPUT_NAMES,
    "outputs.field_error_csv": OUTPUT_NAMES,
    "outputs.field_radii": [[2.0], [1.5, 3.0], [0.5], [1e150], [1e200], []],
    "nonsense": [{}],
}
junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.sampled_from([0.5, float("inf"), float("nan")]),
                 st.text(max_size=4), st.just({}), st.lists(st.floats(-1.0, 1.0), max_size=4))
mutation = st.sampled_from(sorted(MUTATIONS)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(MUTATIONS[key]) | junk))


def _set(doc: dict, dotted: str, new) -> None:
    *keys, last = dotted.split(".")
    for key in keys:
        if not isinstance(doc.get(key), dict):
            doc[key] = {}
        doc = doc[key]
    doc[last] = new


@settings(max_examples=100, deadline=None, derandomize=True)  # derandomized: a run tests the same configs
@given(mutations=st.lists(mutation, min_size=1, max_size=3))
def test_every_config_ends_in_a_documented_exit_and_writes_only_under_out(mutations):
    # exit 0 or 5 writes the outputs; exits 2, 3 and 4 print one stderr line and leave no output directory;
    # no exit writes anything outside --out
    with tempfile.TemporaryDirectory() as sandbox:
        doc = copy.deepcopy(BASE_CONFIG)
        for dotted, new in mutations:
            _set(doc, dotted, new.replace(ESCAPE, sandbox) if isinstance(new, str) else new)
        config, out = Path(sandbox) / "run.json", Path(sandbox) / "out"
        config.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", str(config), "--out", str(out)])
        assert code in (0, 2, 3, 4, 5)
        written = [p for p in Path(sandbox).rglob("*") if p != config and out not in (p, *p.parents)]
        assert written == []
        if code in (2, 3, 4):
            assert len(stderr.getvalue().splitlines()) == 1
            assert not out.exists()
        else:
            assert out.is_dir()
