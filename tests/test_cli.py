import csv
import json
import math
from pathlib import Path

import pytest

from mlpicard.cli import (COLUMNS, EXIT_CONFIG, EXIT_IO, EXIT_OK,
                          EXIT_UNKNOWN_PROBLEM, SCHEMA_VERSION, main)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_problems(capsys):
    assert main(["list-problems"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert out == sorted(out)
    assert "linear-y" in out


def test_solve_writes_csv_with_schema(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["solve", "--problem", "zero-gen", "--depth", "1",
               "--samples", "50", "--replications", "4",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 1
    assert list(rows[0]) == COLUMNS
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["schema_version"] == SCHEMA_VERSION
    row = rows[0]
    assert row["problem"] == "zero-gen"
    assert row["depth"] == "1"
    # fixed schema-1 columns
    assert row["cache"] == "true" and row["strict_printed_form"] == "false"
    # zero-gen carries an analytic reference, so abs_error is populated
    assert float(row["abs_error"]) >= 0.0
    assert row["mean_z"] == ""  # z not requested


def test_float_cells_roundtrip_17_digits(tmp_path):
    out = tmp_path / "run.csv"
    main(["solve", "--problem", "linear-y", "--depth", "2",
          "--replications", "4", "--out", str(out)])
    row = read_csv(out)[0]
    val = float(row["mean_y"])
    assert f"%.17g" % val == row["mean_y"]
    again = tmp_path / "again.csv"
    main(["solve", "--problem", "linear-y", "--depth", "2",
          "--replications", "4", "--out", str(again)])
    assert read_csv(again)[0]["mean_y"] == row["mean_y"]


def test_solve_both_variants_gives_two_rows(tmp_path):
    out = tmp_path / "both.csv"
    rc = main(["solve", "--problem", "zero-gen", "--variant", "both",
               "--depth", "1", "--samples", "100", "--replications", "4",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out)
    assert [r["variant"] for r in rows] == ["original", "modified"]
    # depth-1 variants are the same estimator on the same streams
    assert rows[0]["mean_y"] == rows[1]["mean_y"]
    # sweep is solve's alias: the same flags, no config, the same CSV
    swept = tmp_path / "swept.csv"
    assert main(["sweep", "--problem", "zero-gen", "--variant", "both",
                 "--depth", "1", "--samples", "100", "--replications", "4",
                 "--out", str(swept)]) == EXIT_OK
    assert [{**r, "wall_time_s": ""} for r in read_csv(swept)] == \
        [{**r, "wall_time_s": ""} for r in rows]


def test_json_format(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["solve", "--problem", "zero-gen", "--depth", "1",
               "--replications", "4", "--format", "json",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert len(doc["rows"]) == 1
    assert isinstance(doc["rows"][0]["mean_y"], float)


def test_estimate_z_populates_mean_z(tmp_path):
    out = tmp_path / "z.csv"
    main(["solve", "--problem", "zero-gen", "--dim", "3", "--depth", "1",
          "--samples", "200", "--replications", "4", "--estimate-z",
          "--x", "0.1,0.2,0.3", "--out", str(out)])
    row = read_csv(out)[0]
    parts = row["mean_z"].split(";")
    assert len(parts) == 3
    assert all(math.isfinite(float(p)) for p in parts)
    assert row["x"] == ";".join("%.17g" % v for v in (0.1, 0.2, 0.3))


def test_json_mean_z_is_the_csv_mean_z(tmp_path):
    args = ["solve", "--problem", "z-coupled", "--dim", "3", "--depth", "2",
            "--samples", "3", "--replications", "4", "--estimate-z"]
    assert main(args + ["--out", str(tmp_path / "z.csv")]) == EXIT_OK
    assert main(args + ["--format", "json",
                        "--out", str(tmp_path / "z.json")]) == EXIT_OK
    got = json.loads((tmp_path / "z.json").read_text())["rows"][0]["mean_z"]
    want = read_csv(tmp_path / "z.csv")[0]["mean_z"].split(";")
    assert all(type(v) is float for v in got)
    assert got == [float(v) for v in want] and len(got) == 3


def test_bound_beyond_float_range_writes_inf(tmp_path):
    # the Monte-Carlo term's exponent passes 709; the cell used to fail
    # (exit 1), and the JSON used to write the bare token Infinity
    out = tmp_path / "inf.csv"
    assert main(["solve", "--problem", "linear-y", "--alpha", "0.9",
                 "--horizon", "300", "--depth", "1", "--replications", "2",
                 "--out", str(out)]) == EXIT_OK
    row = read_csv(out)[0]
    assert row["mc_term"] == row["bias_bound"] == "inf"
    assert math.isfinite(float(row["quad_term"]))

    # the JSON writes the CSV's text: RFC 8259 has no Infinity token
    def no_constant(token):
        raise AssertionError(f"non-JSON constant {token}")

    out = tmp_path / "inf.json"
    assert main(["solve", "--problem", "linear-y", "--alpha", "0.9",
                 "--horizon", "300", "--depth", "1", "--replications", "2",
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    row = json.loads(out.read_text(), parse_constant=no_constant)["rows"][0]
    assert row["mc_term"] == row["bias_bound"] == "inf"
    assert math.isfinite(row["quad_term"])


def test_z_coupled_bounds_marked_not_applicable(tmp_path):
    out = tmp_path / "zc.csv"
    rc = main(["solve", "--problem", "z-coupled", "--depth", "2",
               "--replications", "4", "--out", str(out)])
    assert rc == EXIT_OK
    row = read_csv(out)[0]
    assert row["bias_bound"] == "n/a"
    assert row["variance_bound"] == "n/a"


def test_unknown_problem_exit_code(tmp_path, capsys):
    for argv in (["solve", "--problem", "equity-basket", "--out",
                  str(tmp_path / "x.csv")],
                 ["validate", "--problem", "equity-basket"],
                 ["oracle", "--problem", "equity-basket", "--depth", "1"],
                 # "both" expands --variant only, so it is no problem name
                 ["solve", "--problem", "both", "--out",
                  str(tmp_path / "both.csv")]):
        rc = main(argv)
        assert rc == EXIT_UNKNOWN_PROBLEM
        assert f"unknown problem {argv[2]!r}" in capsys.readouterr().err


def test_sweep_requires_config(capsys):
    # neither a config nor a flag names the problem
    assert main(["sweep"]) == EXIT_CONFIG
    assert "no problem name" in capsys.readouterr().err


def test_sweep_grid_and_row_order(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION,
        "problem": "zero-gen",
        "variants": ["modified"],
        "depths": [1, 2],
        "samples": [4, 8],
        "quad_orders": [2],
        "replications": 4,
        "seed": 7,
    })
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_OK
    rows = read_csv(out)
    # deterministic row order: depth-major over the samples grid
    assert [(r["depth"], r["base_samples"]) for r in rows] == \
        [("1", "4"), ("1", "8"), ("2", "4"), ("2", "8")]
    assert all(r["seed"] == "7" for r in rows)


def test_config_wins_over_flags(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION,
        "problem": "zero-gen",
        "depths": [1],
        "replications": 4,
        "seed": 123,
    })
    out = tmp_path / "cw.csv"
    rc = main(["solve", "--problem", "linear-y", "--seed", "9",
               "--depth", "3", "--config", cfg, "--out", str(out)])
    assert rc == EXIT_OK
    row = read_csv(out)[0]
    assert row["problem"] == "zero-gen"
    assert row["seed"] == "123"
    assert row["depth"] == "1"


def test_config_error_exit_codes(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["sweep", "--config", str(bad_json)]) == EXIT_CONFIG
    # cache and strict_printed_form are no options: the subtrahend reuse
    # and the plain z mean are the modified scheme itself; theorem bounds
    # are always written
    for key, value in (("Ms", [4]), ("cache", [False]),
                       ("strict_printed_form", True),
                       ("theorem_bounds", False)):
        unknown_key = write_config(tmp_path, {
            "schema_version": SCHEMA_VERSION, "depths": [1], key: value},
            name="unk.json")
        assert main(["sweep", "--config", unknown_key]) == EXIT_CONFIG
        assert f"unknown config keys: {key!r}" in capsys.readouterr().err
    for flags in (["--no-cache"], ["--strict-printed-form"],
                  ["--no-theorem-bounds"], ["--threads", "auto"]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", "zero-gen", *flags])
        assert exc.value.code == EXIT_CONFIG
    bad_schema = write_config(tmp_path, {
        "schema_version": 99, "depths": [1]}, name="schema.json")
    assert main(["sweep", "--config", bad_schema]) == EXIT_CONFIG
    bad_grid = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION, "depths": [99],
        "replications": 4}, name="grid.json")
    assert main(["sweep", "--config", bad_grid]) == EXIT_CONFIG
    bad_reps = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION, "depths": [1],
        "replications": 1}, name="reps.json")
    assert main(["sweep", "--config", bad_reps]) == EXIT_CONFIG


def test_unwritable_output_exit_code(tmp_path):
    rc = main(["solve", "--problem", "zero-gen", "--depth", "1",
               "--replications", "4",
               "--out", "/nonexistent-dir/deep/run.csv"])
    assert rc == EXIT_IO


def test_thread_count_does_not_change_results(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION,
        "problem": "linear-y",
        "depths": [1, 2],
        "samples": [4, 8],
        "replications": 4,
        "seed": 11,
    })
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert main(["sweep", "--config", cfg, "--threads", "1",
                 "--out", str(serial)]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--threads", "4",
                 "--out", str(threaded)]) == EXIT_OK
    skip = {"wall_time_s"}
    for a, b in zip(read_csv(serial), read_csv(threaded)):
        for col in COLUMNS:
            if col not in skip:
                assert a[col] == b[col], col


def test_validate_clean_problem(capsys):
    assert main(["validate", "--problem", "linear-y",
                 "--samples", "2000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "f_lipschitz" in out


def test_oracle_command_matches_library(capsys):
    from mlpicard import deterministic_picard, make_problem
    rc = main(["oracle", "--problem", "linear-y", "--depth", "2",
               "--quad-order", "4", "--t", "0.25", "--x", "0.3"])
    assert rc == EXIT_OK
    printed = float(capsys.readouterr().out.strip())
    want = deterministic_picard(make_problem("linear-y"), 2, 4, 0.25, 0.3)
    assert printed == want


def test_oracle_rejects_multidim(capsys):
    assert main(["oracle", "--problem", "linear-y", "--depth", "2",
                 "--dim", "3"]) == EXIT_CONFIG


def test_oracle_rejects_non_finite_point(capsys):
    assert main(["oracle", "--problem", "linear-y", "--depth", "1",
                 "--x", "nan"]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_invalid_flag_values_are_config_errors(tmp_path, capsys):
    assert main(["solve", "--problem", "zero-gen", "--depth", "99",
                 "--out", str(tmp_path / "a.csv")]) == EXIT_CONFIG
    assert main(["solve", "--problem", "zero-gen", "--replications", "1",
                 "--out", str(tmp_path / "b.csv")]) == EXIT_CONFIG
    assert main(["solve", "--problem", "zero-gen", "--t", "1.5",
                 "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG
    assert main(["solve", "--problem", "zero-gen", "--x", "0.1,0.2",
                 "--out", str(tmp_path / "d.csv")]) == EXIT_CONFIG
    # a tree below the singularity floor used to be a failed cell (exit 1)
    # with a header-only file
    capsys.readouterr()
    floor = tmp_path / "floor.csv"
    assert main(["solve", "--problem", "linear-y", "--t", "0.99999999",
                 "--depth", "3", "--quad-order", "64",
                 "--out", str(floor)]) == EXIT_CONFIG
    assert "singularity floor" in capsys.readouterr().err
    assert not floor.exists()
    # an empty part of --x used to be dropped silently
    for x in ("0.1,,0.2", "0.3,"):
        assert main(["solve", "--problem", "zero-gen", "--depth", "1",
                     "--replications", "4", "--x", x,
                     "--out", str(tmp_path / "e.csv")]) == EXIT_CONFIG
        assert "x value" in capsys.readouterr().err
    # --threads is a count of at least 1, refused before any cell runs;
    # argparse refuses a non-integer with exit 2
    out = tmp_path / "threads.csv"
    for threads in ("0", "-1", "auto", "1.5"):
        argv = ["solve", "--problem", "zero-gen", "--depth", "1",
                "--replications", "4", "--threads", threads, "--out", str(out)]
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == EXIT_CONFIG, threads
        assert "thread" in capsys.readouterr().err, threads
        assert not out.exists(), threads


@pytest.mark.parametrize("key, value", [
    ("replications", 2.9),
    ("seed", 1.7),
    ("seed", True),
    ("overrides", {"dim": 2.5}),
    ("estimate_z", "false"),
    ("theorem_bounds", "no"),  # no longer a key: refused as unknown
    ("x", "0.5"),
])
def test_wrongly_typed_config_values_are_refused(tmp_path, capsys, key, value):
    payload = {"schema_version": SCHEMA_VERSION, "problem": "zero-gen",
               "depths": [1], "replications": 4, key: value}
    out = tmp_path / "typed.csv"
    rc = main(["sweep", "--config", write_config(tmp_path, payload),
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    named = next(iter(value)) if isinstance(value, dict) else key
    assert repr(named) in capsys.readouterr().err
    assert not out.exists()


def test_bad_problem_in_config_fails_before_any_cell(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "schema_version": SCHEMA_VERSION, "problem": "zero-gen",
        "overrides": {"dim": 0}, "depths": [1, 2], "replications": 4})
    out = tmp_path / "dim0.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "dim" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_query_point_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    assert main(["solve", "--problem", "zero-gen", "--depth", "1",
                 "--replications", "4", "--x", "nan",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_positive_horizon_is_named(tmp_path, capsys):
    assert main(["solve", "--problem", "zero-gen", "--depth", "1",
                 "--replications", "4", "--horizon", "0",
                 "--out", str(tmp_path / "h0.csv")]) == EXIT_CONFIG
    assert "horizon" in capsys.readouterr().err


def test_non_finite_horizon_is_named(tmp_path, capsys):
    # an infinite horizon used to exit 1 from inside the quadrature
    for horizon in ("inf", "nan"):
        assert main(["solve", "--problem", "linear-y", "--depth", "1",
                     "--replications", "4", "--horizon", horizon,
                     "--out", str(tmp_path / "h.csv")]) == EXIT_CONFIG
        assert "horizon" in capsys.readouterr().err


def test_overflowing_alpha_is_named(tmp_path, capsys):
    # a solution bound beyond the float range used to exit 1 with a traceback
    assert main(["solve", "--problem", "linear-y", "--alpha", "800",
                 "--depth", "1", "--replications", "2",
                 "--out", str(tmp_path / "a.csv")]) == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


def test_validate_refuses_zero_samples(capsys):
    assert main(["validate", "--problem", "linear-y",
                 "--samples", "0"]) == EXIT_CONFIG
    assert "samples" in capsys.readouterr().err


def test_readme_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.json"
    cfg.write_text(block)
    out = tmp_path / "readme.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert len(read_csv(out)) == 18
