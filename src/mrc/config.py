"""Run configuration: a single JSON document describing one solve.

Schema ("grid" turns a run into a sweep, see cli); a key outside it, or a
value of the wrong type, is a ConfigError:

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
twice the enclosing radius). Tabulated samples are CSV rows theta,phi,f that
must match the generated quadrature nodes to 1e-12 in angle; no
interpolation is attempted.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields as dc_fields
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
    surface: dict
    bc: dict
    data: dict
    mrc: dict
    quadrature: object  # "auto" or {"n_theta", "n_phi"}
    outputs: dict
    grid: dict | None = None

    @staticmethod
    def from_dict(doc: dict, base_dir: Path | None = None) -> "RunConfig":
        doc = _section(doc, "config", [f.name for f in dc_fields(RunConfig)])
        for key in ("surface", "data", "mrc"):
            if key not in doc:
                raise ConfigError(f"config is missing required section {key!r}")
        cfg = RunConfig(
            surface=_section(doc["surface"], "surface", ("preset", "params", "center")),
            bc=_section(doc.get("bc", {"kind": DIRICHLET}), "bc", ("kind", "sigma")),
            data=_section(doc["data"], "data", ("type", "z", "q", "coefficients", "path")),
            mrc=_section(doc["mrc"], "mrc"),
            quadrature=doc.get("quadrature", "auto"),
            outputs=_section(doc.get("outputs", {}), "outputs", [*OUTPUT_FILES, "field_radii", "sweep_csv"]),
            grid=_section(doc["grid"], "grid") if "grid" in doc else None,
        )
        cfg.validate(base_dir)
        return cfg

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
        return {key: value for key, value in asdict(self).items() if value is not None}

    # -- validation ----------------------------------------------------

    def validate(self, base_dir: Path | None = None) -> None:
        spec = self.surface_spec()  # checks the center, the preset and its parameters against geometry.PRESETS

        if self.bc.get("kind") not in BC_KINDS:
            raise ConfigError(f"unknown boundary condition {self.bc.get('kind')!r}")
        if not self.sigma >= 0:
            raise ConfigError("Robin coefficient sigma must be >= 0")

        dtype = self.data.get("type")
        if dtype not in ("point_source", "band_limited", "tabulated"):
            raise ConfigError(f"unknown data type {dtype!r}")
        if dtype == "tabulated" and not self._tabulated_path(base_dir).is_file():
            raise ConfigError(f"tabulated data file not found: {self._tabulated_path(base_dir)}")

        # constructing the oracle and MrcConfig runs their type and range checks
        self.oracle(spec)
        self.mrc_config()

        if self.quadrature != "auto":
            if not isinstance(self.quadrature, dict) or set(self.quadrature) != {"n_theta", "n_phi"}:
                raise ConfigError('quadrature must be "auto" or {"n_theta": ..., "n_phi": ...}')
            for key, n in self.quadrature.items():
                require_number(f"quadrature {key}", n, int)

        if self.grid is not None:
            for key, vals in self.grid.items():
                if not isinstance(vals, list):
                    raise ConfigError(f"grid entry {key!r} must be a list of values")

    # -- construction of the run pieces ---------------------------------

    def surface_spec(self) -> geometry.SurfaceSpec:
        return geometry.SurfaceSpec(
            self.surface.get("preset"),
            self.surface.get("params", {}),
            self.surface.get("center", (0.0, 0.0, 0.0)),
        )

    @property
    def sigma(self) -> float:
        return require_number("bc sigma", self.bc.get("sigma", 0.0))

    def mrc_config(self) -> driver.MrcConfig:
        try:
            return driver.MrcConfig(**self.mrc)
        except TypeError as exc:  # an unknown key, or no epsilon
            raise ConfigError(f"mrc section: {exc}") from exc

    def quadrature_rule(self, spec: geometry.SurfaceSpec) -> geometry.QuadratureRule:
        if self.quadrature == "auto":
            return geometry.auto_quadrature(spec, self.mrc_config().L_max)
        return geometry.build_quadrature(spec, int(self.quadrature["n_theta"]), int(self.quadrature["n_phi"]))

    def oracle(self, spec: geometry.SurfaceSpec):
        """The exact-solution oracle about the surface center, or None for tabulated data."""
        d = self.data
        if d["type"] == "point_source":
            return fields.PointSource(d.get("z"), d.get("q", 1.0))
        if d["type"] == "band_limited":
            return fields.BandLimited(_band_limited_coefficients(d.get("coefficients")), spec.center)
        return None

    def field_radii(self, spec: geometry.SurfaceSpec) -> list[float]:
        """The radii of the field-error spheres: outputs.field_radii, each at
        least the enclosing radius, or by default twice that radius."""
        r_max = geometry.enclosing_radius(spec)
        radii = self.outputs.get("field_radii", [2.0 * r_max])
        if not isinstance(radii, list):
            raise ConfigError(f"outputs field_radii must be a list of radii, got {radii!r}")
        radii = [require_number("outputs field_radii entry", R) for R in radii]
        if not all(R >= r_max for R in radii):
            raise ConfigError(f"outputs field_radii {radii} must enclose the surface (enclosing radius {r_max!r})")
        return radii

    def boundary_data(self, spec, rule, base_dir: Path | None = None) -> fields.BoundaryData:
        oracle = self.oracle(spec)
        if oracle is not None:
            if isinstance(oracle, fields.PointSource):
                fields.interior_source_or_raise(spec, oracle.z)
            return fields.boundary_data_from_oracle(rule, oracle, self.bc["kind"], self.sigma)
        return boundary_data_from_csv(self._tabulated_path(base_dir), rule, self.bc["kind"], self.sigma)

    def _tabulated_path(self, base_dir: Path | None) -> Path:
        """The samples file; a relative path is taken from base_dir."""
        path = self.data.get("path", "")
        if not isinstance(path, str):
            raise ConfigError(f"tabulated data path must be a string, got {path!r}")
        return (base_dir or Path()) / path


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
