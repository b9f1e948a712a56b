"""Reproducible experiment runner.

Subcommands: ``extend``, ``norms``, ``solve-hmf``, ``solve-lc`` and
``sweep`` take ``--config <path>`` (a single JSON document), ``--out <dir>``
and ``--seed <u64>`` (overrides the config seed); ``verify`` runs a fixed
battery and takes only ``--out``.

Configs are fail-closed: a key a kind does not use is rejected anywhere
in the document; only the solving kinds take ``solver``.  All artifacts
(JSON, CSV, snapshots) are pure functions of the config; floats are
printed with shortest round-trip ``repr``, so running the same config
twice produces byte-identical files.

Exit codes: 0 success, 2 when a solver reports NoConvergence (diagnostics
are still written), 1 on any other error, usage errors included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import families, hmflow, lcflow
from .grid import (
    Field,
    GridSpec,
    cyclic_shift,
    spectral_gradient,
    spectral_laplacian,
    write_snapshot,
)
from .heat import TimeLadder, caloric_extension, duhamel_heat, heat_semigroup, leray_project
from .hmflow import NoConvergence, SolverConfig
from .manifold import TubeEscape
from .norms import bmo_inverse_norm, bmo_seminorm, carleson_bmo, cylinder_mean_square, vmo_profile

__all__ = ["ExperimentConfig", "generate_data", "run", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2

SWEEP_COLUMNS = ("family", *(f.name for f in fields(hmflow.SweepRecord)))
NORMS_COLUMNS = ("family", "index", "seed", "bmo", "carleson", "equivalence_ratio")
VERIFY_COLUMNS = ("check", "observed", "bound", "passed")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    grid: GridSpec
    ladder: TimeLadder
    family: dict
    seed: int
    solver_options: dict
    options: dict
    out_dir: Path

    def solver(self) -> SolverConfig:
        return SolverConfig(self.grid, self.ladder, **self.solver_options)

    def to_json(self):
        return {
            "kind": self.kind,
            "grid": {
                "dim": self.grid.dim,
                "points_per_axis": self.grid.points_per_axis,
                "period": self.grid.period,
            },
            "ladder": {"t_final": self.ladder.t_final, "steps": self.ladder.steps},
            "family": self.family,
            "seed": self.seed,
            "solver": self.solver_options,
            "options": self.options,
        }


def _integer(value, where):
    """An integer config value; rejects bools, strings, non-finite and non-integral numbers."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _real(value, where):
    """A finite real config value; rejects bools, strings and numbers beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _require_keys(mapping, allowed, required, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


# family name -> (its function in geoflow.families, the integer keys it
# takes, whether it takes the seed).  Every family also takes ``amplitude``
# (default 1); a key the config leaves out takes the function's default.
_FAMILIES = {
    "oscillatory": ("oscillatory_angle", ("wavenumber", "ambient_dim"), False),
    "angle": ("random_angle", ("kmax", "ambient_dim"), True),
    "hedgehog": ("hedgehog_data", ("kmax",), True),
    "stream": ("stream_velocity", ("kmax",), True),
    "taylor-green": ("taylor_green", (), False),
    "modes": ("mode_field", ("components", "kmax"), True),
}


def _check_family(spec, where):
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str) or (
        spec["name"] not in _FAMILIES
    ):
        raise ConfigError(f"{where}: expected an object naming one of {sorted(_FAMILIES)}")
    _require_keys(spec, {"name", "amplitude", *_FAMILIES[spec["name"]][1]}, {"name"}, where)
    for key in sorted(set(spec) - {"name"}):
        (_real if key == "amplitude" else _integer)(spec[key], f"{where}.{key}")


def generate_data(family: dict, grid: GridSpec, seed: int) -> Field:
    """Build one data field from a validated family spec and a seed."""
    function, integers, seeded = _FAMILIES[family["name"]]
    kwargs = {key: int(family[key]) for key in integers if key in family}
    if seeded:
        kwargs["seed"] = seed
    # looked up at call time, so a rebound module attribute is the one called
    return getattr(families, function)(grid, amplitude=float(family.get("amplitude", 1.0)),
                                       **kwargs)


def parse_config(doc: dict, kind: str, out_dir, seed_override=None) -> ExperimentConfig:
    if kind not in _KINDS:
        raise ConfigError(f"{kind!r} takes no config")
    _runner, option_keys, solving = _KINDS[kind]
    _require_keys(
        doc,
        {"kind", "grid", "ladder", "family", "seed", "options"}
        | ({"solver"} if solving else set()),
        {"grid", "ladder", "seed", "family"},
        "config",
    )
    if "kind" in doc and doc["kind"] != kind:
        raise ConfigError(f"config kind {doc['kind']!r} does not match subcommand {kind!r}")
    _require_keys(doc["grid"], {"dim", "points_per_axis", "period"},
                  {"dim", "points_per_axis", "period"}, "config.grid")
    grid = GridSpec(
        _integer(doc["grid"]["dim"], "config.grid.dim"),
        _integer(doc["grid"]["points_per_axis"], "config.grid.points_per_axis"),
        _real(doc["grid"]["period"], "config.grid.period"),
    )
    _require_keys(doc["ladder"], {"t_final", "steps"}, {"t_final", "steps"}, "config.ladder")
    ladder = TimeLadder(_real(doc["ladder"]["t_final"], "config.ladder.t_final"),
                        _integer(doc["ladder"]["steps"], "config.ladder.steps"))
    seed = _integer(doc["seed"] if seed_override is None else seed_override, "seed")
    if not (0 <= seed < 2**64):
        raise ConfigError("seed must be an unsigned 64-bit integer")
    _require_keys(doc.get("solver", {}), {"picard_tol", "max_iters"}, set(), "config.solver")
    solver_options = dict(doc.get("solver", {}))
    _real(solver_options.get("picard_tol", 1.0), "config.solver.picard_tol")
    if "max_iters" in solver_options:
        solver_options["max_iters"] = _integer(solver_options["max_iters"], "config.solver.max_iters")
    _require_keys(doc.get("options", {}), option_keys, set(), "config.options")
    options = dict(doc.get("options", {}))
    if _integer(options.get("count", 20), "config.options.count") < 1:
        raise ConfigError("options.count must be >= 1")
    for j in options.get("snapshot_slices", []):
        if not (0 <= _integer(j, "config.options.snapshot_slices") <= ladder.steps):
            raise ConfigError(f"snapshot slice {j} outside the ladder")

    family = doc["family"]
    flow = options.get("flow", "hmf")
    if kind == "sweep":
        if flow not in ("hmf", "lc"):
            raise ConfigError("options.flow must be 'hmf' or 'lc'")
        if "amplitudes" not in options:
            raise ConfigError("options.amplitudes is required for sweep")
        for amp in options["amplitudes"]:
            _real(amp, "config.options.amplitudes")
    if kind == "solve-lc" or (kind == "sweep" and flow == "lc"):
        _require_keys(family, {"velocity", "director"}, {"velocity", "director"},
                      "config.family")
        _check_family(family["velocity"], "config.family.velocity")
        _check_family(family["director"], "config.family.director")
    else:
        _check_family(family, "config.family")
    cfg = ExperimentConfig(kind, grid, ladder, family, seed, solver_options, options,
                           Path(out_dir))
    cfg.solver()  # check the solver values before any work
    return cfg


# ---------------------------------------------------------------------------
# Deterministic serialization.
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="ascii")


def _family_label(family: dict) -> str:
    if "name" in family:
        return family["name"]
    return f"{family['velocity']['name']}+{family['director']['name']}"


# ---------------------------------------------------------------------------
# Experiment kinds.
# ---------------------------------------------------------------------------


def _run_extend(cfg: ExperimentConfig) -> int:
    data = generate_data(cfg.family, cfg.grid, cfg.seed)
    ext = caloric_extension(data, cfg.ladder)
    slices = [int(j) for j in cfg.options.get("snapshot_slices", [0, cfg.ladder.steps])]
    for j in slices:
        write_snapshot(ext.slice(j), cfg.out_dir / f"extend_slice_{j:04d}.dat")
    big_r = cfg.grid.period / 4.0
    report = {
        "config": cfg.to_json(),
        "data_bmo": bmo_seminorm(data, big_r).to_json(),
        "carleson": carleson_bmo(data, big_r, cfg.ladder).to_json(),
        "vmo_profile": [[r, v] for r, v in vmo_profile(data)],
        "slice_sup": {str(j): ext.slice(j).sup_norm() for j in slices},
    }
    _write_json(cfg.out_dir / "extend.json", report)
    return EXIT_OK


def _run_norms(cfg: ExperimentConfig) -> int:
    count = int(cfg.options.get("count", 20))
    big_r = cfg.grid.period / 4.0
    rows = []
    ratios = []
    label = _family_label(cfg.family)
    for i in range(count):
        member_seed = cfg.seed + i
        data = generate_data(cfg.family, cfg.grid, member_seed)
        bmo = bmo_seminorm(data, big_r).value
        carl = carleson_bmo(data, big_r, cfg.ladder).value
        ratio = carl / bmo if bmo > 0 else math.nan
        if bmo > 0:
            ratios.append(ratio)
        rows.append(
            {
                "family": label,
                "index": i,
                "seed": member_seed,
                "bmo": bmo,
                "carleson": carl,
                "equivalence_ratio": ratio,
            }
        )
    _write_csv(cfg.out_dir / "norms.csv", NORMS_COLUMNS, rows)
    summary = {
        "config": cfg.to_json(),
        "count": count,
        "bracket_low": min(ratios) if ratios else math.nan,
        "bracket_high": max(ratios) if ratios else math.nan,
        "bracket_spread": (max(ratios) / min(ratios)) if ratios else math.nan,
    }
    _write_json(cfg.out_dir / "norms.json", summary)
    return EXIT_OK


def _snapshot_solution(cfg, st_field, prefix):
    for j in (int(j) for j in cfg.options.get("snapshot_slices", [])):
        write_snapshot(st_field.slice(j), cfg.out_dir / f"{prefix}_{j:04d}.dat")


def _run_solve_hmf(cfg: ExperimentConfig) -> int:
    data = generate_data(cfg.family, cfg.grid, cfg.seed)
    code = EXIT_OK
    try:
        result = hmflow.solve(data, cfg.solver())
    except NoConvergence as err:
        result = err.result
        code = EXIT_NO_CONVERGENCE
    _write_json(cfg.out_dir / "solve_hmf.json",
                {"config": cfg.to_json(), "result": result.to_json()})
    _snapshot_solution(cfg, result.solution, "solve_hmf_slice")
    return code


def _run_solve_lc(cfg: ExperimentConfig) -> int:
    u0 = generate_data(cfg.family["velocity"], cfg.grid, cfg.seed)
    d0 = generate_data(cfg.family["director"], cfg.grid, cfg.seed + 1)
    code = EXIT_OK
    try:
        result = lcflow.solve(u0, d0, cfg.solver())
    except NoConvergence as err:
        result = err.result
        code = EXIT_NO_CONVERGENCE
    _write_json(cfg.out_dir / "solve_lc.json",
                {"config": cfg.to_json(), "result": result.to_json()})
    _snapshot_solution(cfg, result.state.u, "solve_lc_u")
    _snapshot_solution(cfg, result.state.d, "solve_lc_d")
    return code


def _sweep_rows(cfg: ExperimentConfig):
    amplitudes = [float(a) for a in cfg.options["amplitudes"]]
    flow = cfg.options.get("flow", "hmf")
    label = _family_label(cfg.family)
    if flow == "hmf":
        def make(amp):
            spec = dict(cfg.family)
            spec["amplitude"] = amp
            return generate_data(spec, cfg.grid, cfg.seed)

        report = hmflow.amplitude_sweep(make, amplitudes, cfg.solver())
    else:
        def make(amp):
            uspec = dict(cfg.family["velocity"])
            dspec = dict(cfg.family["director"])
            uspec["amplitude"] = amp
            dspec["amplitude"] = amp
            return (
                generate_data(uspec, cfg.grid, cfg.seed),
                generate_data(dspec, cfg.grid, cfg.seed + 1),
            )

        report = lcflow.amplitude_sweep(make, amplitudes, cfg.solver())
    rows = []
    for rec in report.records:
        row = {"family": label}
        row.update(rec.to_json())
        rows.append(row)
    return report, rows


def _run_sweep(cfg: ExperimentConfig) -> int:
    report, rows = _sweep_rows(cfg)
    _write_csv(cfg.out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
    _write_json(cfg.out_dir / "sweep.json",
                {"config": cfg.to_json(), "report": report.to_json()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: a compact deterministic invariant battery at small sizes.
# ---------------------------------------------------------------------------


def _verify_checks():
    checks = []

    def record(name, observed, bound):
        checks.append(
            {"check": name, "observed": float(observed), "bound": float(bound),
             "passed": bool(observed <= bound)}
        )

    g2 = GridSpec(2, 32, 2.0 * np.pi)
    f = Field.from_function(g2, lambda x, y: np.sin(x) * np.cos(2 * y))
    lap = spectral_laplacian(f)
    record("laplacian_single_mode", np.abs(lap.values + 5.0 * f.values).max(), 1e-12)

    gx = Field.from_function(g2, lambda x, y: np.cos(x) * np.cos(2 * y))
    grad = spectral_gradient(f)
    record("gradient_single_mode", np.abs(grad.values[:, 0] - gx.values[:, 0]).max(), 1e-12)

    ext = heat_semigroup(f, 0.2)
    record("semigroup_single_mode", np.abs(ext.values - np.exp(-1.0) * f.values).max(), 1e-12)
    record("semigroup_identity_at_zero", np.abs(heat_semigroup(f, 0.0).values - f.values).max(), 0.0)

    lad = TimeLadder(0.25, 64)
    const = Field.constant(g2, [1.5])
    resp = duhamel_heat(caloric_extension(const, lad))
    exact = lad.times[:, None, None] * const.values[None]
    record("duhamel_constant_forcing", np.abs(resp.values - exact).max(), 1e-12)

    p = Field.from_function(g2, lambda x, y: np.cos(x + y))
    record("leray_kills_gradients", np.abs(leray_project(spectral_gradient(p)).values).max(), 1e-12)
    w = families.stream_velocity(g2, 1.0, seed=7)
    record("leray_fixes_solenoidal", np.abs(leray_project(w).values - w.values).max(), 1e-12)

    d = families.mode_field(g2, 2, seed=11)
    rep = bmo_seminorm(d, g2.period / 4.0)
    shifted = bmo_seminorm(cyclic_shift(d, (3, 5)), g2.period / 4.0)
    record("bmo_translation_invariance", abs(rep.value - shifted.value), 1e-12)
    doubled = bmo_seminorm(2.0 * d, g2.period / 4.0)
    record("bmo_homogeneity_power_of_two", abs(doubled.value - 2.0 * rep.value), 0.0)
    inv = bmo_inverse_norm(w, g2.period / 4.0, lad)
    reeval = cylinder_mean_square(caloric_extension(w, lad), inv.maximizer)
    record("carleson_maximizer_reeval", abs(inv.value - reeval), 1e-12)

    g1 = GridSpec(1, 32, 2.0 * np.pi)
    lad1 = TimeLadder(0.25, 64)
    scfg = SolverConfig(g1, lad1)
    u0 = families.oscillatory_angle(g1, 0.2)
    res = hmflow.solve(u0, scfg)
    x = g1.coordinates()[0]
    err = 0.0
    for j in range(lad1.steps + 1):
        th = 0.2 * np.sin(x) * np.exp(-lad1.times[j])
        ex = np.stack([np.cos(th), np.sin(th)], axis=-1).reshape(g1.sites, 2)
        err = max(err, float(np.abs(res.solution.values[j] - ex).max()))
    record("circle_angle_oracle", err, 5e-3)
    record("constraint_defect_without_projection", res.constraint_defect, 1e-3)
    march = hmflow.time_march(u0, scfg)
    record("picard_vs_march", np.abs(march.values - res.solution.values).max(), 1e-8)

    g16 = GridSpec(2, 16, 2.0 * np.pi)
    lad16 = TimeLadder(0.25, 64)
    lcfg = SolverConfig(g16, lad16)
    tg = families.taylor_green(g16)
    dc = Field.constant(g16, [0.0, 0.0, 1.0])
    lres = lcflow.solve(tg, dc, lcfg)
    terr = 0.0
    for j in range(lad16.steps + 1):
        terr = max(terr, float(np.abs(
            lres.state.u.values[j] - np.exp(-2.0 * lad16.times[j]) * tg.values
        ).max()))
    record("cellular_flow_decay", terr, 1e-8)
    record("lc_divergence_free", lres.divergence_sup, 1e-10)
    return checks


def _run_verify(out_dir: Path) -> int:
    checks = _verify_checks()
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "verify.csv", VERIFY_COLUMNS, checks)
    passed = all(c["passed"] for c in checks)
    _write_json(out_dir / "verify.json", {"passed": passed, "checks": checks})
    return EXIT_OK if passed else EXIT_ERROR


# kind -> (runner, the option keys it takes, whether it takes ``solver``);
# ``verify`` builds its own grids and takes no config
_KINDS = {
    "extend": (_run_extend, {"snapshot_slices"}, False),
    "norms": (_run_norms, {"count"}, False),
    "solve-hmf": (_run_solve_hmf, {"snapshot_slices"}, True),
    "solve-lc": (_run_solve_lc, {"snapshot_slices"}, True),
    "sweep": (_run_sweep, {"flow", "amplitudes"}, True),
}
KINDS = (*_KINDS, "verify")


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes artifacts into cfg.out_dir."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return _KINDS[cfg.kind][0](cfg)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it exits 1 with one ``error:`` line."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="geoflow", description="reproducible torus flow experiments")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if kind in _KINDS:
            p.add_argument("--config", type=Path, required=True, help="JSON experiment config")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
    try:
        args = parser.parse_args(argv)
        if args.kind == "verify":
            return _run_verify(args.out)
        doc = json.loads(args.config.read_text(encoding="utf-8"))
        return run(parse_config(doc, args.kind, args.out, args.seed))
    except (ConfigError, ValueError, TypeError, OSError, KeyError, TubeEscape) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
