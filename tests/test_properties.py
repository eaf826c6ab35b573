"""Invariants of the fit, checked on drawn inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
