"""Experiment runner: solve single cells, sweep parameter grids, validate
declared problem bounds, and query the deterministic d=1 oracle.

Experiments come from JSON config files (schema_version 1) and/or flags;
when both give a value for experiment content (problem, grids, query
point, seed, ...) the config file wins.  Execution concerns (threads,
output path, format) come from flags.  Cells run one after another; each
cell's replications run in slices on at most --threads worker threads
(default: every core).

Config keys: schema_version, problem, overrides {dim, horizon, alpha},
variants, depths, samples, quad_orders, cache (each a list or a scalar),
t, x (scalar broadcast to d, or a length-d list), replications, seed,
estimate_z, strict_printed_form, theorem_bounds.

CSV contract: the fixed column order in COLUMNS, floats with 17
significant digits, booleans as true/false, vector values joined with
';', '' for values not requested, 'n/a' for bounds that do not apply to
the cell's problem.  Writing CSV to a file also writes <out>.meta.json
with the resolved experiment, seed, package version, and column order.
With --format json everything goes into one JSON document.

Exit codes: 0 all cells completed; 1 some cells failed (completed rows
are still written, failures are enumerated on stderr); 2 bad config or
usage; 3 unknown problem name; 4 output could not be written.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (MissingBoundsError, TheoremNotApplicableError,
                       deterministic_picard, run_replications, theorem_bound)
from .mlp import MlpConfig
from .problems import make_problem, problem_names, validate_assumptions

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN_PROBLEM = 3
EXIT_IO = 4

COLUMNS = [
    "problem", "dim", "horizon", "alpha", "variant", "depth",
    "base_samples", "quad_order", "cache", "estimate_z",
    "strict_printed_form", "t", "x", "replications", "seed",
    "mean_y", "std_y", "abs_error", "mean_z",
    "bias_bound", "variance_bound", "quad_term", "mc_term", "picard_term",
    "generator_evals", "terminal_evals", "gaussian_draws", "cache_hits",
    "wall_time_s",
]

_CONFIG_KEYS = {
    "schema_version", "problem", "overrides", "variants", "depths",
    "samples", "quad_orders", "cache", "t", "x", "replications", "seed",
    "estimate_z", "strict_printed_form", "theorem_bounds",
}
_OVERRIDE_KEYS = {"dim", "horizon", "alpha"}


class ConfigError(ValueError):
    """Unusable config file or flag combination."""


class UnknownProblemError(ValueError):
    """Problem name not in the builtin registry."""


class OutputError(OSError):
    """Result file could not be written."""


@dataclass
class Experiment:
    """Fully resolved experiment: a grid of estimator cells at one query."""

    problem: str
    dim: int = 1
    horizon: float = 1.0
    alpha: float = 0.3
    variants: list = field(default_factory=lambda: ["modified"])
    depths: list = field(default_factory=lambda: [3])
    samples: list = field(default_factory=lambda: [8])
    quad_orders: list = field(default_factory=lambda: [4])
    cache: list = field(default_factory=lambda: [True])
    t: float = 0.0
    x: object = 0.0
    replications: int = 16
    seed: int = 0
    estimate_z: bool = False
    strict_printed_form: bool = False
    theorem_bounds: bool = True

    def cells(self):
        return list(product(self.variants, self.depths, self.samples,
                            self.quad_orders, self.cache))

    def resolved(self) -> dict:
        d = asdict(self)
        d["x"] = list(np.atleast_1d(np.asarray(self.x, dtype=float)).tolist())
        d["schema_version"] = SCHEMA_VERSION
        return d


def _as_list(value, kind, key):
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [value]
    if not items:
        raise ConfigError(f"config key {key!r} must be a non-empty list")
    out = []
    for item in items:
        if kind is bool:
            if not isinstance(item, bool):
                raise ConfigError(f"config key {key!r} expects booleans")
            out.append(item)
        elif kind is int:
            if isinstance(item, bool) or not isinstance(item, int):
                raise ConfigError(f"config key {key!r} expects integers")
            out.append(item)
        else:
            out.append(kind(item))
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; "
                          f"this build reads {SCHEMA_VERSION}")
    overrides = data.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("config key 'overrides' must be an object")
    bad = set(overrides) - _OVERRIDE_KEYS
    if bad:
        raise ConfigError(f"unknown override keys: {', '.join(sorted(bad))}")
    return data


def _parse_x(raw):
    if raw is None:
        return None
    if isinstance(raw, str):
        parts = [p for p in raw.split(",") if p.strip() != ""]
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"cannot parse x value {raw!r}") from exc
        if not vals:
            raise ConfigError(f"cannot parse x value {raw!r}")
        return vals[0] if len(vals) == 1 else vals
    return raw


def _pick(source: dict, key: str, flag, fallback):
    """source[key] when present, else the flag when given, else fallback."""
    if key in source:
        return source[key]
    return fallback if flag is None else flag


def _check_problem(name: str) -> None:
    if name not in problem_names():
        raise UnknownProblemError(
            f"unknown problem {name!r}; known: {', '.join(problem_names())}")


def _build_experiment(args, config: Optional[dict]) -> Experiment:
    config = config or {}
    overrides = config.get("overrides", {})
    flag = vars(args).get
    name = _pick(config, "problem", flag("problem"), None)
    if name is None:
        raise ConfigError("no problem name given (flag --problem or config)")
    _check_problem(name)

    variant_flag = flag("variant")
    if variant_flag == "both":
        variant_flag = ["original", "modified"]
    cache_flag = [False] if flag("no_cache") else None

    exp = Experiment(
        problem=name,
        dim=int(_pick(overrides, "dim", flag("dim"), 1)),
        horizon=float(_pick(overrides, "horizon", flag("horizon"), 1.0)),
        alpha=float(_pick(overrides, "alpha", flag("alpha"), 0.3)),
        variants=_as_list(_pick(config, "variants", variant_flag, "modified"),
                          str, "variants"),
        depths=_as_list(_pick(config, "depths", flag("depth"), 3), int, "depths"),
        samples=_as_list(_pick(config, "samples", flag("samples"), 8), int, "samples"),
        quad_orders=_as_list(_pick(config, "quad_orders", flag("quad_order"), 4),
                             int, "quad_orders"),
        cache=_as_list(_pick(config, "cache", cache_flag, True), bool, "cache"),
        t=float(_pick(config, "t", flag("t"), 0.0)),
        x=_parse_x(_pick(config, "x", _parse_x(flag("x")), 0.0)),
        replications=int(_pick(config, "replications", flag("replications"), 16)),
        seed=int(_pick(config, "seed", flag("seed"), 0)),
        estimate_z=bool(_pick(config, "estimate_z", flag("estimate_z"), False)),
        strict_printed_form=bool(_pick(config, "strict_printed_form",
                                       flag("strict_printed_form"), False)),
        theorem_bounds=bool(_pick(config, "theorem_bounds",
                                  flag("theorem_bounds"), True)),
    )
    for variant in exp.variants:
        if variant not in ("original", "modified"):
            raise ConfigError(f"unknown variant {variant!r}")
    if exp.replications < 2:
        raise ConfigError("replications must be >= 2")
    if not 0.0 <= exp.t < exp.horizon:
        raise ConfigError(f"t must lie in [0, {exp.horizon}), got {exp.t}")
    xv = np.atleast_1d(np.asarray(exp.x, dtype=float))
    if xv.size not in (1, exp.dim):
        raise ConfigError(f"x must be a scalar or have {exp.dim} entries")
    # constructing every cell config up front surfaces invalid grids early
    for variant, depth, m, q, cache_on in exp.cells():
        try:
            MlpConfig(variant=variant, depth=depth, base_samples=m,
                      quad_order=q, seed=exp.seed, cache=cache_on)
        except ValueError as exc:
            raise ConfigError(f"invalid grid cell (depth={depth}, samples={m}, "
                              f"quad_order={q}): {exc}") from exc
    return exp


def _run_cell(exp: Experiment, cell, threads: Optional[int]) -> dict:
    variant, depth, m, q, cache_on = cell
    problem = make_problem(exp.problem, dim=exp.dim, horizon=exp.horizon,
                           alpha=exp.alpha)
    cfg = MlpConfig(variant=variant, depth=depth, base_samples=m,
                    quad_order=q, seed=exp.seed, estimate_z=exp.estimate_z,
                    cache=cache_on, strict_printed_form=exp.strict_printed_form)
    start = time.perf_counter()
    stats = run_replications(problem, cfg, exp.t, exp.x, exp.replications,
                             threads=threads)
    wall = time.perf_counter() - start

    row = {
        "problem": exp.problem,
        "dim": exp.dim,
        "horizon": exp.horizon,
        "alpha": exp.alpha,
        "variant": variant,
        "depth": depth,
        "base_samples": m,
        "quad_order": q,
        "cache": cache_on,
        "estimate_z": exp.estimate_z,
        "strict_printed_form": exp.strict_printed_form,
        "t": exp.t,
        "x": exp.x,
        "replications": exp.replications,
        "seed": exp.seed,
        "mean_y": stats.mean_y,
        "std_y": stats.std_y,
        "abs_error": stats.abs_error,
        "mean_z": stats.mean_z,
        "generator_evals": stats.mean_cost["generator_evals"],
        "terminal_evals": stats.mean_cost["terminal_evals"],
        "gaussian_draws": stats.mean_cost["gaussian_draws"],
        "cache_hits": stats.mean_cost["cache_hits"],
        "wall_time_s": wall,
    }
    bound_cols = ("bias_bound", "variance_bound", "quad_term", "mc_term",
                  "picard_term")
    if exp.theorem_bounds:
        try:
            tb = theorem_bound(problem, cfg, exp.t)
            row.update(bias_bound=tb.bias_bound,
                       variance_bound=tb.variance_bound,
                       quad_term=tb.quadrature_term,
                       mc_term=tb.mc_term,
                       picard_term=tb.picard_term)
        except (TheoremNotApplicableError, MissingBoundsError):
            row.update({c: "n/a" for c in bound_cols})
    else:
        row.update({c: None for c in bound_cols})
    return row


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(format(float(v), ".17g") for v in np.atleast_1d(value))
    return str(value)


def _json_cell(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _write_results(rows, exp: Experiment, out: Optional[str], fmt: str):
    document = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "experiment": exp.resolved(),
        "columns": COLUMNS,
    }
    try:
        if fmt == "json":
            document["rows"] = [{c: _json_cell(r[c]) for c in COLUMNS}
                                for r in rows]
            payload = json.dumps(document, indent=2) + "\n"
            if out is None or out == "-":
                sys.stdout.write(payload)
            else:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            return
        lines = [",".join(COLUMNS)]
        for r in rows:
            lines.append(",".join(_fmt_cell(r[c]) for c in COLUMNS))
        payload = "\n".join(lines) + "\n"
        if out is None or out == "-":
            sys.stdout.write(payload)
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
            with open(out + ".meta.json", "w", encoding="utf-8") as fh:
                json.dump(document, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write results to {out!r}: {exc}") from exc


def _thread_count(args) -> Optional[int]:
    """--threads as a count; None (every core) when unset or 'auto'."""
    raw = args.threads
    if raw is None or raw == "auto":
        return None
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"thread count must be an integer or 'auto', got {raw!r}")
    if n < 1:
        raise ConfigError(f"thread count must be >= 1, got {n}")
    return n


def _cmd_experiment(args, require_config: bool) -> int:
    if require_config and not args.config:
        raise ConfigError("sweep requires --config")
    config = _load_config(args.config) if args.config else None
    exp = _build_experiment(args, config)
    threads = _thread_count(args)
    rows, failures = [], []
    for cell in exp.cells():
        try:
            rows.append(_run_cell(exp, cell, threads))
        except Exception as exc:  # cell failures are enumerated, not fatal
            failures.append((cell, exc))
    _write_results(rows, exp, args.out, args.format)
    for cell, exc in failures:
        variant, depth, m, q, cache_on = cell
        print(f"cell failed: variant={variant} depth={depth} samples={m} "
              f"quad_order={q} cache={cache_on}: {exc}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_solve(args) -> int:
    return _cmd_experiment(args, require_config=False)


def _cmd_sweep(args) -> int:
    return _cmd_experiment(args, require_config=True)


def _cmd_validate(args) -> int:
    _check_problem(args.problem)
    problem = make_problem(args.problem, dim=args.dim, horizon=args.horizon,
                           alpha=args.alpha)
    entries = validate_assumptions(problem, samples=args.samples,
                                   seed=args.seed if args.seed is not None else 0)
    header = f"{'bound':32} {'declared':>12} {'violation':>12} {'status':>8}  note"
    print(header)
    violated = False
    for e in entries:
        declared = "-" if e.declared is None else format(e.declared, ".6g")
        excess = "-" if e.max_violation is None else format(e.max_violation, ".6g")
        print(f"{e.bound:32} {declared:>12} {excess:>12} {e.status:>8}  {e.note}")
        if e.status == "checked" and e.max_violation is not None \
                and e.max_violation > 0.0:
            violated = True
    return 1 if violated else EXIT_OK


def _cmd_oracle(args) -> int:
    _check_problem(args.problem)
    problem = make_problem(args.problem, dim=args.dim, horizon=args.horizon,
                           alpha=args.alpha)
    x = _parse_x(args.x)
    value = deterministic_picard(problem, args.depth, args.quad_order,
                                 args.t, 0.0 if x is None else x,
                                 space_quad=args.space_quad)
    print(format(value, ".17g"))
    return EXIT_OK


def _cmd_list_problems(args) -> int:
    for name in problem_names():
        print(name)
    return EXIT_OK


def _add_content_flags(p: argparse.ArgumentParser):
    p.add_argument("--problem", help="builtin problem name")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--x", default=None,
                   help="query point: scalar or comma-separated vector")
    p.add_argument("--seed", type=int, default=None)


def _add_exec_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--threads", default=None,
                   help="most threads working at once, capped at the cores: "
                        "a count or 'auto' (default: every core)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpicard",
        description="Multilevel Picard experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a single estimator cell")
    _add_content_flags(solve)
    _add_exec_flags(solve)
    solve.add_argument("--config", default=None)
    solve.add_argument("--variant", choices=("original", "modified", "both"),
                       default=None)
    solve.add_argument("--depth", type=int, default=None)
    solve.add_argument("--samples", type=int, default=None)
    solve.add_argument("--quad-order", type=int, default=None)
    solve.add_argument("--replications", type=int, default=None)
    solve.add_argument("--estimate-z", action="store_true", default=None)
    solve.add_argument("--no-cache", action="store_true")
    solve.add_argument("--strict-printed-form", action="store_true",
                       default=None)
    solve.add_argument("--no-theorem-bounds", dest="theorem_bounds",
                       action="store_false", default=None)
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="run a config-defined grid")
    _add_exec_flags(sweep)
    sweep.add_argument("--config", required=False, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="spot-check declared bounds")
    val.add_argument("--problem", required=True)
    val.add_argument("--dim", type=int, default=1)
    val.add_argument("--horizon", type=float, default=1.0)
    val.add_argument("--alpha", type=float, default=0.3)
    val.add_argument("--samples", type=int, default=10_000)
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=_cmd_validate)

    oracle = sub.add_parser("oracle", help="deterministic d=1 fixed-point value")
    oracle.add_argument("--problem", required=True)
    oracle.add_argument("--dim", type=int, default=1)
    oracle.add_argument("--horizon", type=float, default=1.0)
    oracle.add_argument("--alpha", type=float, default=0.3)
    oracle.add_argument("--depth", type=int, required=True)
    oracle.add_argument("--quad-order", type=int, default=4)
    oracle.add_argument("--t", type=float, default=0.0)
    oracle.add_argument("--x", default=None)
    oracle.add_argument("--space-quad", type=int, default=200)
    oracle.set_defaults(func=_cmd_oracle)

    lp = sub.add_parser("list-problems", help="print builtin problem names")
    lp.set_defaults(func=_cmd_list_problems)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnknownProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # bad numeric arguments to oracle/validate surface as usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
