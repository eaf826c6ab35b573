"""Exterior Dirichlet problem on a non-spherical surface with a known answer.

The exact solution is the potential of a point charge at z = (0.3, 0, 0)
inside a cosine-bump surface. The script fits the boundary trace, then
compares the fitted field against 1/|x - z| on an enclosing sphere: the
exterior error tracks the boundary residual, which is the whole point of
the method.
"""

import numpy as np

import mrc

spec = mrc.SurfaceSpec.cosine_bump(a=1.0, delta=0.2, k=2, p=3)
rule = mrc.build_quadrature(spec, 42, 82)
oracle = mrc.PointSource([0.3, 0.0, 0.0])

for bc, sigma in [("dirichlet", 0.0), ("neumann", 0.0), ("robin", 1.0)]:
    data = mrc.boundary_data_from_oracle(rule, oracle, bc, sigma)
    report = mrc.run_mrc(spec, rule, data, mrc.MrcConfig(epsilon=1e-6))
    R = 2.0 * mrc.radius_bounds(spec)[1]  # twice the enclosing radius
    err = mrc.error_on_enclosing_sphere(report.field, oracle, R)
    print(
        f"{bc:9s}: chosen L = {report.chosen_L:2d}, "
        f"boundary residual = {report.final_residual:.2e}, "
        f"L2 error on sphere R={R:.2f} = {err.l2:.2e}"
    )

# error as a function of distance from the surface
data = mrc.boundary_data_from_oracle(rule, oracle, "dirichlet")
report = mrc.run_mrc(spec, rule, data, mrc.MrcConfig(epsilon=1e-6))
print("\n  R     L2 error on S_R")
for R in np.linspace(1.25, 6.0, 8):
    err = mrc.error_on_enclosing_sphere(report.field, oracle, R)
    print(f"{R:5.2f}  {err.l2:.3e}")
