"""Batch front end: `mrc solve config.json` and `mrc sweep config.json`.

One runner, run_cells, serves both commands: a solve is a one-cell group,
so a sweep row equals the cell's solve by construction. Output paths are
resolved and checked under --out before any solve; their directories are
made only before the first write, so a run that fails makes none.

Outputs are machine-readable: a JSON solve report, a CSV convergence
history, and (when an exact oracle is configured) a CSV of field errors on
enclosing spheres. Every float is printed in its shortest round-trip form
(as the json module writes it), so reports are byte-reproducible. Exit
codes: 0 success, 2 config error, 3 geometry error, 4 solver degeneracy,
5 nonconvergence (report still written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from pathlib import Path

from . import driver, fields
from .config import OUTPUT_FILES, RunConfig
from .errors import ConfigError, GeometryError, SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_SOLVER = 4
EXIT_NONCONVERGED = 5
# The exit code and stderr label of each error that ends a command; a ValueError also ends a sweep cell
EXITS = {ConfigError: (EXIT_CONFIG, "config"), GeometryError: (EXIT_GEOMETRY, "geometry"),
         SolverError: (EXIT_SOLVER, "solver")}
CELL_ERRORS = (*EXITS, ValueError)

HISTORY_COLUMNS = [f.name for f in dataclasses.fields(driver.DegreeRecord)]
FIELD_ERROR_COLUMNS = ["R", "l2_error", "sup_error"]


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def run_cells(cells: list[RunConfig]) -> list:
    """Each cell's (SolveReport, [SphereError at each field radius]), or the exception that ends it.

    The cells differ only in their data (not its type) and mrc.epsilon. They share one quadrature
    rule and one driver.run_mrc_grid over their distinct data and epsilons, and each field radius
    tabulates its error sphere once. If that fails, each cell runs alone, so an error ends only
    the cells it ends alone. `mrc solve` is the one-cell call."""
    first, keys = cells[0], [json.dumps(cell.document["data"], sort_keys=True) for cell in cells]
    vectors, epsilons = dict(zip(keys, cells)), list(dict.fromkeys(cell.mrc.epsilon for cell in cells))
    try:
        rule = first.quadrature_rule()
        grid = driver.run_mrc_grid(first.spec, rule, [cell.boundary_data(rule) for cell in vectors.values()],
                                   first.mrc, epsilons)
        by_cell = dict(zip(itertools.product(vectors, epsilons), itertools.chain.from_iterable(grid)))
        reports = [by_cell[key, cell.mrc.epsilon] for key, cell in zip(keys, cells)]
        oracles = [vectors[key].oracle for key in keys]  # one object per distinct data: evaluated once per sphere
        by_radius = [fields.errors_on_enclosing_sphere([r.field for r in reports], oracles, R)
                     for R in first.field_radii]
    except CELL_ERRORS as exc:
        return [exc] if len(cells) == 1 else [outcome for cell in cells for outcome in run_cells([cell])]
    return [(report, [errors[i] for errors in by_radius]) for i, report in enumerate(reports)]


def output_paths(cfg: RunConfig, out_dir: Path, names: dict) -> dict:
    """Each output's path under out_dir (names: key -> default file name); a ConfigError (exit 2) if a
    path does not resolve under out_dir (through a symbolic link), names a directory or lies under a
    file. Nothing is made here: see make_directories."""
    paths = {key: out_dir / cfg.outputs.get(key, name) for key, name in names.items()}
    for key, path in paths.items():
        if not path.resolve().is_relative_to(out_dir.resolve()):
            raise ConfigError(f"outputs {key} resolves outside --out {out_dir}: {path}")
        if path.is_dir() or not next(p for p in path.parents if p.exists()).is_dir():
            raise ConfigError(f"outputs {key} names a directory or lies under a file: {path}")
    return paths


def make_directories(paths: dict) -> None:
    """Make the parent directory of each output path, before the first write; a ConfigError if one cannot be made."""
    for key, path in paths.items():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the directory of outputs {key}: {exc}") from exc


def write_reports(cfg: RunConfig, report, errors, paths: dict, verbose: bool) -> None:
    doc = report.to_dict()
    doc["config"] = cfg.to_dict()
    paths["report"].write_text(json.dumps(doc, indent=2) + "\n")

    _write_csv(
        paths["history_csv"],
        HISTORY_COLUMNS,
        [list(dataclasses.astuple(h)) for h in report.history],
    )
    if errors:
        _write_csv(paths["field_error_csv"], FIELD_ERROR_COLUMNS,
                   [[R, err.l2, err.sup] for R, err in zip(cfg.field_radii, errors)])

    if verbose:
        last = report.history[-1]
        print(
            f"termination={report.termination} chosen_L={report.chosen_L} "
            f"residual={_fmt(last.residual_l2)} rel={_fmt(last.residual_rel)}"
        )


def cmd_solve(args) -> int:
    cfg = RunConfig.load(args.config)
    paths = output_paths(cfg, Path(args.out) if args.out else Path.cwd(), OUTPUT_FILES)
    (outcome,) = run_cells([cfg])  # a solve is a one-cell run
    if isinstance(outcome, Exception):
        raise outcome
    report, errors = outcome
    make_directories(paths)
    write_reports(cfg, report, errors, paths, args.verbose)
    return EXIT_OK if report.termination == driver.CONVERGED else EXIT_NONCONVERGED


def _set_by_path(doc: dict, dotted: str, value) -> None:
    *path, last = dotted.split(".")
    for key in path:
        doc = doc.setdefault(key, {})
        if not isinstance(doc, dict):
            raise ConfigError(f"grid path {dotted!r} runs through {key!r}, which is not an object")
    doc[last] = value


def _sweep_fields(outcome) -> list:
    """A sweep.csv row's result fields; sr_error is the l2 error at the first field radius."""
    if isinstance(outcome, Exception):
        return ["error", "", "", "", f"{type(outcome).__name__}: {outcome}"]
    report, errors = outcome
    return [report.termination, "" if report.chosen_L is None else report.chosen_L, report.final_residual,
            errors[0].l2 if errors else "", ""]


def cmd_sweep(args) -> int:
    cfg = RunConfig.load(args.config)  # also checks the grid's cell count
    if cfg.grid is None:
        raise ConfigError("sweep requires a 'grid' section in the config")
    paths = output_paths(cfg, Path(args.out) if args.out else Path.cwd(), {"sweep_csv": "sweep.csv"})

    keys = sorted(cfg.grid)
    base_doc = {key: value for key, value in cfg.to_dict().items() if key != "grid"}
    columns = keys + ["termination", "chosen_L", "final_residual", "sr_error", "error"]

    base_dir = Path(args.config).parent
    grid = list(itertools.product(*(cfg.grid[k] for k in keys))) if keys else []
    outcomes, groups = [], {}  # a group's cells differ only in their data (not its type) and epsilon
    for values in grid:
        doc = json.loads(json.dumps(base_doc))
        try:
            for key, value in zip(keys, values):
                _set_by_path(doc, key, value)
            cell = RunConfig.from_dict(doc, base_dir)
        except CELL_ERRORS as exc:
            outcomes.append(exc)
            continue
        doc = cell.document
        shared = dict(doc, data=doc["data"].get("type"), mrc=dict(doc["mrc"], epsilon=None))
        groups.setdefault(json.dumps(shared, sort_keys=True), []).append(len(outcomes))
        outcomes.append(cell)
    for members in groups.values():
        for i, outcome in zip(members, run_cells([outcomes[i] for i in members])):
            outcomes[i] = outcome
    make_directories(paths)
    _write_csv(paths["sweep_csv"], columns, [[*values, *_sweep_fields(out)] for values, out in zip(grid, outcomes)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a single adaptive solve")
    p_solve.add_argument("config", help="path to a JSON run config")
    p_solve.add_argument("--out", default=None, help="directory for output files")
    p_solve.add_argument("--verbose", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid of solves")
    p_sweep.add_argument("config", help="path to a JSON run config with a 'grid' section")
    p_sweep.add_argument("--out", default=None, help="directory for output files")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXITS) as exc:
        code, label = next(value for kind, value in EXITS.items() if isinstance(exc, kind))
        print(f"{label} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
