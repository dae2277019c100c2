"""Experiment runner: solve single cells, sweep parameter grids, validate
declared problem bounds, and query the deterministic d=1 oracle.

Experiments come from JSON config files (schema_version 1) and/or flags;
when both give a value for experiment content (problem, grids, query
point, seed, ...) the config file wins, and a value that neither gives
takes its default from Experiment.  Execution concerns (threads, output
path, format) come from flags.  Cells run one after another; each cell's
replications run in slices on at most --threads worker threads (default:
every core).

Config keys: schema_version, plus one key per Experiment field, with
dim, horizon and alpha inside an "overrides" object.  The grid keys
(variants, depths, samples, quad_orders, cache) take a list or a scalar;
x takes a scalar (broadcast to d) or a length-d list.  Values must have
the field's type: integers are not booleans or floats, and booleans are
JSON true/false.

CSV contract: the fixed column order in COLUMNS, floats with 17
significant digits, booleans as true/false, vector values joined with
';', '' for values not requested, 'n/a' for bounds that do not apply to
the cell's problem.  Writing CSV to a file also writes <out>.meta.json
with the resolved experiment, seed, package version, and column order.
With --format json everything goes into one JSON document, with
non-finite floats as the CSV's strings "inf", "-inf" and "nan".

Exit codes: 0 all cells completed (validate: no declared bound was
violated); 1 some cells failed (completed rows are still written,
failures are enumerated on stderr), or validate found a declared bound
violated; 2 bad config or usage; 3 unknown problem name; 4 output could
not be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analysis import (MissingBoundsError, TheoremNotApplicableError,
                       deterministic_picard, run_replications, theorem_bound)
from .mlp import MlpConfig, _check_time, _prepare_point
from .problems import (_check_int, make_problem, problem_names,
                       validate_assumptions)

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


class ConfigError(ValueError):
    """Unusable config file or flag combination."""


class UnknownProblemError(ValueError):
    """Problem name not in the builtin registry."""


class OutputError(OSError):
    """Result file could not be written."""


# field metadata: the config key sits inside "overrides"
_OVERRIDE = {"override": True}


@dataclass
class Experiment:
    """Fully resolved experiment: a grid of estimator cells at one query.

    The one declaration of an experiment: the fields are the config keys
    (those marked _OVERRIDE sit under "overrides"), the annotations are
    the value types, and the defaults apply when neither the config nor a
    flag gives a value.
    """

    problem: str
    dim: int = field(default=1, metadata=_OVERRIDE)
    horizon: float = field(default=1.0, metadata=_OVERRIDE)
    alpha: float = field(default=0.3, metadata=_OVERRIDE)
    variants: list[str] = field(default_factory=lambda: ["modified"])
    depths: list[int] = field(default_factory=lambda: [3])
    samples: list[int] = field(default_factory=lambda: [8])
    quad_orders: list[int] = field(default_factory=lambda: [4])
    cache: list[bool] = field(default_factory=lambda: [True])
    t: float = 0.0
    x: float | list[float] = 0.0
    replications: int = 16
    seed: int = 0
    estimate_z: bool = False
    strict_printed_form: bool = False
    theorem_bounds: bool = True

    def build_problem(self):
        return make_problem(self.problem, dim=self.dim, horizon=self.horizon,
                            alpha=self.alpha)

    def resolved(self) -> dict:
        d = asdict(self)
        d["x"] = np.atleast_1d(np.asarray(self.x, dtype=float)).tolist()
        d["schema_version"] = SCHEMA_VERSION
        return d


_FIELDS = fields(Experiment)
_TYPES = get_type_hints(Experiment)
_OVERRIDE_KEYS = {f.name for f in _FIELDS if f.metadata.get("override")}
_CONFIG_KEYS = ({f.name for f in _FIELDS} - _OVERRIDE_KEYS
                | {"schema_version", "overrides"})
# flags whose dest is not the name of the field they set
_FLAG_DEST = {"variants": "variant", "depths": "depth",
              "quad_orders": "quad_order", "cache": "no_cache"}
_KIND_NAMES = {bool: "booleans", int: "integers", float: "numbers",
               str: "strings"}
# CSV column -> TheoremBound field
_BOUND_COLUMNS = {"bias_bound": "bias_bound",
                  "variance_bound": "variance_bound",
                  "quad_term": "quadrature_term", "mc_term": "mc_term",
                  "picard_term": "picard_term"}


def _typed(key: str, value, kind):
    """value checked against the annotation kind: integers are not bools
    or floats, booleans are JSON booleans, numbers come back as float, and
    a list kind also takes a scalar."""
    if get_origin(kind) is list:
        items = list(value) if isinstance(value, (list, tuple)) else [value]
        if not items:
            raise ConfigError(f"config key {key!r} must be a non-empty list")
        return [_typed(key, item, get_args(kind)[0]) for item in items]
    if get_origin(kind) is not None:  # float | list[float]
        scalar, vector = get_args(kind)
        return _typed(key, value, vector if isinstance(value, (list, tuple))
                      else scalar)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = {bool: isinstance(value, bool), str: isinstance(value, str),
          int: number and isinstance(value, int), float: number}[kind]
    if not ok:
        raise ConfigError(f"config key {key!r} expects {_KIND_NAMES[kind]}, "
                          f"got {value!r}")
    return float(value) if kind is float else value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
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


def _parse_x(raw: str):
    parts = [p for p in raw.split(",") if p.strip() != ""]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse x value {raw!r}") from exc
    if not vals:
        raise ConfigError(f"cannot parse x value {raw!r}")
    return vals[0] if len(vals) == 1 else vals


def _resolve(args, config: dict) -> Experiment:
    """Each field from the config, else from its flag, else its default,
    checked against the field's annotation."""
    overrides = config.get("overrides", {})
    values = {}
    for f in _FIELDS:
        source = overrides if f.name in _OVERRIDE_KEYS else config
        if f.name in source:
            value = source[f.name]
        else:
            value = getattr(args, _FLAG_DEST.get(f.name, f.name), None)
            if value is None:
                continue
            if f.name == "x":
                value = _parse_x(value)
            elif value == "both":  # --variant both
                value = ["original", "modified"]
        values[f.name] = _typed(f.name, value, _TYPES[f.name])
    name = values.get("problem")
    if name is None:
        raise ConfigError("no problem name given (flag --problem or config)")
    if name not in problem_names():
        raise UnknownProblemError(
            f"unknown problem {name!r}; known: {', '.join(problem_names())}")
    return Experiment(**values)


def _build_experiment(args, config: dict):
    """The experiment, its problem and one MlpConfig per grid cell, each
    built once; any invalid value is a ConfigError before a cell runs."""
    exp = _resolve(args, config)
    try:
        _check_int("replications", exp.replications, 2)
        problem = exp.build_problem()
        _check_time(problem, exp.t)
        _prepare_point(problem, exp.x)
        cells = [MlpConfig(variant=variant, depth=depth, base_samples=m,
                           quad_order=q, seed=exp.seed,
                           estimate_z=exp.estimate_z, cache=cache,
                           strict_printed_form=exp.strict_printed_form)
                 for variant, depth, m, q, cache in product(
                     exp.variants, exp.depths, exp.samples, exp.quad_orders,
                     exp.cache)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return exp, problem, cells


def _run_cell(exp: Experiment, problem, cfg: MlpConfig,
              threads: Optional[int]) -> dict:
    start = time.perf_counter()
    stats = run_replications(problem, cfg, exp.t, exp.x, exp.replications,
                             threads=threads)
    wall = time.perf_counter() - start
    bounds = dict.fromkeys(_BOUND_COLUMNS)  # empty cells: not requested
    if exp.theorem_bounds:
        try:
            tb = theorem_bound(problem, cfg, exp.t)
            bounds = {col: getattr(tb, name)
                      for col, name in _BOUND_COLUMNS.items()}
        except (TheoremNotApplicableError, MissingBoundsError):
            bounds = dict.fromkeys(_BOUND_COLUMNS, "n/a")
    return {**vars(stats), **asdict(exp), **asdict(cfg), **stats.mean_cost,
            **bounds, "wall_time_s": wall}


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(format(float(v), ".17g") for v in np.atleast_1d(value))
    return str(value)


def _json_cell(value):
    """A row value for JSON: arrays as lists, and a non-finite float as the
    CSV's text, since RFC 8259 JSON has no inf or nan."""
    if isinstance(value, np.ndarray):
        return [_json_cell(v) for v in value.tolist()]
    if isinstance(value, float) and not math.isfinite(value):
        return format(value, ".17g")
    return value


def _write_results(rows, exp: Experiment, out: Optional[str], fmt: str):
    document = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "experiment": exp.resolved(),
        "columns": COLUMNS,
    }
    if fmt == "json":
        document["rows"] = [{c: _json_cell(r[c]) for c in COLUMNS}
                            for r in rows]
        payload = json.dumps(document, indent=2, allow_nan=False) + "\n"
    else:
        lines = [",".join(COLUMNS)]
        lines += [",".join(_fmt_cell(r[c]) for c in COLUMNS) for r in rows]
        payload = "\n".join(lines) + "\n"
    try:
        if out is None or out == "-":
            sys.stdout.write(payload)
            return
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        if fmt == "csv":
            with open(out + ".meta.json", "w", encoding="utf-8") as fh:
                fh.write(json.dumps(document, indent=2) + "\n")
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
    return _check_int("thread count", n, 1)


def _cmd_experiment(args) -> int:
    if args.command == "sweep" and not args.config:
        raise ConfigError("sweep requires --config")
    config = _load_config(args.config) if args.config else {}
    exp, problem, cells = _build_experiment(args, config)
    threads = _thread_count(args)
    rows, failures = [], []
    for cfg in cells:
        try:
            rows.append(_run_cell(exp, problem, cfg, threads))
        except Exception as exc:  # cell failures are enumerated, not fatal
            failures.append((cfg, exc))
    _write_results(rows, exp, args.out, args.format)
    for cfg, exc in failures:
        print(f"cell failed: variant={cfg.variant} depth={cfg.depth} "
              f"samples={cfg.base_samples} quad_order={cfg.quad_order} "
              f"cache={cfg.cache}: {exc}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_validate(args) -> int:
    # --samples here counts probes; the resolved grid field is unused
    exp = _resolve(args, {})
    entries = validate_assumptions(exp.build_problem(), samples=args.samples,
                                   seed=exp.seed)
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
    exp = _resolve(args, {})
    value = deterministic_picard(exp.build_problem(), args.depth,
                                 exp.quad_orders[0], exp.t, exp.x,
                                 space_quad=args.space_quad)
    print(format(value, ".17g"))
    return EXIT_OK


def _cmd_list_problems(args) -> int:
    for name in problem_names():
        print(name)
    return EXIT_OK


def _add_problem_flags(p: argparse.ArgumentParser, required: bool = False):
    p.add_argument("--problem", required=required, help="builtin problem name")
    p.add_argument("--dim", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--alpha", type=float)


def _add_query_flags(p: argparse.ArgumentParser):
    p.add_argument("--t", type=float)
    p.add_argument("--x", help="query point: scalar or comma-separated vector")


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
    _add_problem_flags(solve)
    _add_query_flags(solve)
    solve.add_argument("--seed", type=int)
    _add_exec_flags(solve)
    solve.add_argument("--config")
    solve.add_argument("--variant", choices=("original", "modified", "both"))
    solve.add_argument("--depth", type=int)
    solve.add_argument("--samples", type=int)
    solve.add_argument("--quad-order", type=int)
    solve.add_argument("--replications", type=int)
    solve.add_argument("--estimate-z", action="store_true", default=None)
    solve.add_argument("--no-cache", action="store_const", const=[False])
    solve.add_argument("--strict-printed-form", action="store_true",
                       default=None)
    solve.add_argument("--no-theorem-bounds", dest="theorem_bounds",
                       action="store_false", default=None)
    solve.set_defaults(func=_cmd_experiment)

    sweep = sub.add_parser("sweep", help="run a config-defined grid")
    _add_exec_flags(sweep)
    sweep.add_argument("--config")
    sweep.add_argument("--seed", type=int)
    sweep.set_defaults(func=_cmd_experiment)

    val = sub.add_parser("validate", help="spot-check declared bounds")
    _add_problem_flags(val, required=True)
    val.add_argument("--samples", type=int, default=10_000)
    val.add_argument("--seed", type=int)
    val.set_defaults(func=_cmd_validate)

    oracle = sub.add_parser("oracle", help="deterministic d=1 fixed-point value")
    _add_problem_flags(oracle, required=True)
    oracle.add_argument("--depth", type=int, required=True)
    oracle.add_argument("--quad-order", type=int)
    _add_query_flags(oracle)
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
    except (ValueError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # any other ValueError, such as a bad oracle depth, is a usage error
        return {UnknownProblemError: EXIT_UNKNOWN_PROBLEM,
                OutputError: EXIT_IO}.get(type(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
