"""Run configuration: a single JSON document describing one solve.

RunConfig.from_dict runs every check before any quadrature is built (only
tabulated samples wait for the nodes); each failure is a ConfigError (exit
2): a key outside the schema below, a value of the wrong type or range, a
fixed rule under 2 x 4 nodes or, for tabulated data, short of L_start, a
source outside the inscribed sphere, a field radius inside the surface or
with an infinite square (the weights of its error sphere overflow). A
"grid" sweep has at most 10000 cells (see cli); its base must be a valid run.

    {
      "surface": {"preset": "sphere" | "spheroid" | "cosine_bump",
                  "params": {...}, "center": [x, y, z]},
      "bc": {"kind": "dirichlet" | "neumann" | "robin", "sigma": 0.0},
      "data": {"type": "point_source", "z": [x, y, z], "q": 1.0}
            | {"type": "band_limited", "coefficients": [[ell, m, value], ...]}
            | {"type": "tabulated", "path": "samples.csv"},
      "mrc": {"epsilon": ..., "L_start": ..., "L_step": ..., "L_max": ...,
              "svd_rtol": ..., "stagnation_factor": ..., "stagnation_patience": ...},
      "quadrature": "auto" | {"n_theta": ..., "n_phi": ...},
      "outputs": {"report": "report.json", "history_csv": "history.csv",
                  "field_error_csv": "field_errors.csv",
                  "field_radii": [2.0, 4.0], "sweep_csv": "sweep.csv"},
      "grid": {"dotted.path": [value, ...], ...}
    }

Only "mrc.epsilon" is required there; the other "mrc" keys default to the
fields of driver.MrcConfig, which holds the only copy of each default. The
parameters of each preset, with their defaults, types and ranges, are its
entry in geometry.PRESETS. "auto" quadrature is geometry.auto_quadrature
at L_max. A band-limited expansion is about the surface center and needs
|m| <= ell <= ELL_MAX; each field radius must enclose the surface (default:
twice the enclosing radius), also for tabulated data, which has no field
errors. Tabulated samples are CSV rows theta,phi,f that must match the
generated quadrature nodes to 1e-12 in angle; no interpolation is attempted.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import driver, fields, geometry, harmonics
from .errors import ConfigError, require_number
from .lsq import BC_KINDS, DIRICHLET

# The output files a solve writes, with their default names.
OUTPUT_FILES = {"report": "report.json", "history_csv": "history.csv", "field_error_csv": "field_errors.csv"}


def _section(value, name: str, keys=None) -> dict:
    """A copy of one JSON object of the config; keys outside `keys` are refused."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(value) - set(value if keys is None else keys)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return dict(value)


@dataclass(frozen=True)
class RunConfig:
    """One parsed run: every piece a solve needs, built and checked at load."""

    spec: geometry.SurfaceSpec
    bc: str
    sigma: float
    oracle: object | None  # the exact solution about the surface center; None for tabulated data
    samples: Path | None  # the tabulated samples file
    mrc: driver.MrcConfig
    quadrature: tuple[int, int] | str  # (n_theta, n_phi), or "auto"
    field_radii: list[float]  # empty without an oracle
    outputs: dict
    grid: dict | None
    document: dict  # the config with its defaults filled in

    @staticmethod
    def from_dict(doc: dict, base_dir: Path | None = None) -> "RunConfig":
        """The parsed doc; a tabulated data path in it is relative to base_dir."""
        doc = _section(doc, "config", ("surface", "bc", "data", "mrc", "quadrature", "outputs", "grid"))
        for key in ("surface", "data", "mrc"):
            if key not in doc:
                raise ConfigError(f"config is missing required section {key!r}")
        doc = dict(
            surface=_section(doc["surface"], "surface", ("preset", "params", "center")),
            bc=_section(doc.get("bc", {"kind": DIRICHLET}), "bc", ("kind", "sigma")),
            data=_section(doc["data"], "data", ("type", "z", "q", "coefficients", "path")),
            mrc=_section(doc["mrc"], "mrc"),
            quadrature=doc.get("quadrature", "auto"),
            outputs=_section(doc.get("outputs", {}), "outputs", [*OUTPUT_FILES, "field_radii", "sweep_csv"]),
            **({"grid": _section(doc["grid"], "grid")} if "grid" in doc else {}),
        )
        surface, bc, quadrature, grid = doc["surface"], doc["bc"], doc["quadrature"], doc.get("grid", {})
        for key, name in doc["outputs"].items():
            if key != "field_radii" and not (isinstance(name, str) and name.split("/")[-1] not in ("", ".", "..")):
                raise ConfigError(f"outputs {key} must be a file name, got {name!r}")
        # the spec checks the center, the preset and its parameters against geometry.PRESETS
        spec = geometry.SurfaceSpec(surface.get("preset"), surface.get("params", {}),
                                    surface.get("center", (0.0, 0.0, 0.0)))
        if bc.get("kind") not in BC_KINDS:
            raise ConfigError(f"unknown boundary condition {bc.get('kind')!r}")
        sigma = require_number("bc sigma", bc.get("sigma", 0.0))
        if not sigma >= 0:
            raise ConfigError("Robin coefficient sigma must be >= 0")
        try:
            mrc = driver.MrcConfig(**doc["mrc"])
        except TypeError as exc:  # an unknown key, or no epsilon
            raise ConfigError(f"mrc section: {exc}") from exc
        if quadrature != "auto":
            if not isinstance(quadrature, dict) or set(quadrature) != {"n_theta", "n_phi"}:
                raise ConfigError('quadrature must be "auto" or {"n_theta": ..., "n_phi": ...}')
            quadrature = tuple(require_number(f"quadrature {k}", quadrature[k], int) for k in ("n_theta", "n_phi"))
        resolved = mrc.L_max if quadrature == "auto" else geometry.max_degree(*quadrature)  # also the 2 x 4 check
        for key, vals in grid.items():
            if not isinstance(vals, list):
                raise ConfigError(f"grid entry {key!r} must be a list of values")
        n_cells = math.prod(len(vals) for vals in grid.values())
        if n_cells > 10_000:
            raise ConfigError(f"sweep grid has {n_cells} cells (limit 10000)")
        # the checks that need the surface's radius bounds come last
        oracle, samples = _data_source(doc["data"], spec, base_dir)
        if oracle is None and resolved < mrc.L_start:  # the driver cannot resample tabulated data on a finer rule
            raise ConfigError(f"tabulated data on a {quadrature} rule, which resolves degree {resolved} < L_start")
        field_radii = _field_radii(doc["outputs"], spec)
        return RunConfig(
            spec=spec, bc=bc["kind"], sigma=sigma, oracle=oracle, samples=samples, mrc=mrc,
            quadrature=quadrature, field_radii=field_radii if oracle is not None else [],
            outputs=doc["outputs"], grid=doc.get("grid"), document=doc,
        )

    @staticmethod
    def load(path) -> "RunConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return RunConfig.from_dict(doc, base_dir=path.parent)

    def to_dict(self) -> dict:
        """The config as the document it was read from (grid only if present)."""
        return copy.deepcopy(self.document)

    def quadrature_rule(self) -> geometry.QuadratureRule:
        if self.quadrature == "auto":
            return geometry.auto_quadrature(self.spec, self.mrc.L_max)
        return geometry.build_quadrature(self.spec, *self.quadrature)

    def boundary_data(self, rule) -> fields.BoundaryData:
        if self.oracle is not None:
            return fields.boundary_data_from_oracle(rule, self.oracle, self.bc, self.sigma)
        return boundary_data_from_csv(self.samples, rule, self.bc, self.sigma)


def _data_source(data: dict, spec: geometry.SurfaceSpec, base_dir: Path | None):
    """(oracle, None) for closed-form data, or (None, samples file, relative to base_dir)."""
    dtype = data.get("type")
    if dtype == "point_source":
        oracle = fields.PointSource(data.get("z"), data.get("q", 1.0))
        fields.interior_source_or_raise(spec, oracle.z)
        return oracle, None
    if dtype == "band_limited":
        return fields.BandLimited(_band_limited_coefficients(data.get("coefficients")), spec.center), None
    if dtype != "tabulated":
        raise ConfigError(f"unknown data type {dtype!r}")
    path = data.get("path", "")
    if not isinstance(path, str):
        raise ConfigError(f"tabulated data path must be a string, got {path!r}")
    path = (base_dir or Path()) / path
    if not path.is_file():
        raise ConfigError(f"tabulated data file not found: {path}")
    return None, path


def _field_radii(outputs: dict, spec: geometry.SurfaceSpec) -> list[float]:
    """The radii of the field-error spheres: outputs.field_radii, each at least
    the enclosing radius and with a finite square, or by default twice that radius."""
    r_max = geometry.radius_bounds(spec)[1]
    radii = outputs.get("field_radii", [2.0 * r_max])
    if not isinstance(radii, list):
        raise ConfigError(f"outputs field_radii must be a list of radii, got {radii!r}")
    radii = [require_number("outputs field_radii entry", R) for R in radii]
    if not all(r_max <= R and R * R < math.inf for R in radii):  # an error sphere's weights grow as R^2
        raise ConfigError(f"outputs field_radii {radii} must enclose the surface (enclosing radius {r_max!r}) "
                          "and have a finite square")
    return radii


def _band_limited_coefficients(entries) -> np.ndarray:
    """The flat coefficient vector of [ell, m, value] entries, |m| <= ell <= ELL_MAX."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError("band_limited data needs a non-empty list of [ell, m, value] coefficients")
    c, ell_max = np.zeros(harmonics.n_terms(harmonics.ELL_MAX)), 0
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"band_limited coefficient {entry!r} must be [ell, m, value]")
        ell = require_number("coefficient ell", entry[0], int)
        m = require_number("coefficient m", entry[1], int)
        if not abs(m) <= ell <= harmonics.ELL_MAX:
            raise ConfigError(f"band_limited coefficient {entry!r} needs |m| <= ell <= {harmonics.ELL_MAX}")
        c[harmonics.flatten(ell, m)] = require_number("coefficient value", entry[2])
        ell_max = max(ell_max, ell)
    return c[: harmonics.n_terms(ell_max)]


def boundary_data_from_csv(path: Path, rule, bc: str, sigma: float) -> fields.BoundaryData:
    """Read theta,phi,f samples; node angles must match the rule to 1e-12."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["theta", "phi", "f"]:
            raise ConfigError(f"{path}: expected CSV header theta,phi,f")
        try:
            rows = [(float(row[0]), float(row[1]), float(row[2])) for row in reader]
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: malformed sample row: {exc}") from exc
    if len(rows) != rule.n_nodes:
        raise ConfigError(f"{path}: {len(rows)} samples but the rule has {rule.n_nodes} nodes")
    arr = np.asarray(rows)
    if not np.allclose(arr[:, :2].T, [rule.theta, rule.phi], rtol=0.0, atol=1e-12):
        raise ConfigError(f"{path}: sample angles do not match the quadrature nodes (no interpolation)")
    return fields.BoundaryData(bc=bc, values=arr[:, 2].copy(), sigma=sigma, oracle=None)
