"""Command-line interface: subcommands, exit codes, report schema."""

import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

MONO_SPEC = "target y\nbox x in [-2, 2]\nd1 x >= 0\n"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "shapeguard.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture(scope="module")
def schema():
    text = resources.files("shapeguard.resources").joinpath("report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="module")
def eq1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "eq1.spec"
    path.write_text(resources.files("shapeguard.resources").joinpath("eq1.spec").read_text())
    return path


def check_report(path, schema, subcommand):
    report = json.loads(path.read_text())
    jsonschema.validate(report, schema)
    assert report["subcommand"] == subcommand
    return report


def test_synth_single_and_corpus(tmp_path, schema):
    out = tmp_path / "cubic.csv"
    rep = tmp_path / "synth.json"
    proc = run("synth", "--kind", "cubic_fig1", "--seed", "5", "--out", str(out), "--report", str(rep))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    report = check_report(rep, schema, "synth")
    assert report["result"]["rows"] == 40

    corpus_dir = tmp_path / "corpus"
    proc = run(
        "synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "3",
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert len(manifest) == 5
    labels = [d["label"] for d in manifest]
    assert labels.count("valid") == 2 and labels.count("invalid") == 3
    for entry in manifest:
        assert (corpus_dir / entry["file"]).exists()


def test_fit_certify_round_trip(tmp_path, schema):
    cubic = tmp_path / "cubic.csv"
    run("synth", "--kind", "cubic_fig1", "--seed", "5", "--out", str(cubic))
    spec = tmp_path / "mono.spec"
    spec.write_text(MONO_SPEC)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"degree": 3}')
    model = tmp_path / "model.json"
    rep = tmp_path / "fit.json"

    proc = run(
        "fit", "--algo", "scpr", "--data", str(cubic), "--target", "y",
        "--constraints", str(spec), "--config", str(cfg),
        "--model-out", str(model), "--out", str(rep),
    )
    assert proc.returncode == 0, proc.stderr
    report = check_report(rep, schema, "fit")
    assert report["result"]["algorithm"] == "scpr"
    assert report["result"]["fit_report"]["train_rmse"] > 0

    cert_rep = tmp_path / "cert.json"
    proc = run("certify", "--model", str(model), "--constraints", str(spec), "--out", str(cert_rep))
    assert proc.returncode == 0, proc.stderr
    report = check_report(cert_rep, schema, "certify")
    assert report["result"]["all_certified"] is True
    assert "CERTIFIED" in proc.stdout


def test_validate_exit_codes(tmp_path, schema, eq1_path):
    good = tmp_path / "good.csv"
    run("synth", "--kind", "friction_valid", "--seed", "7", "--out", str(good))
    rep = tmp_path / "val.json"
    proc = run(
        "validate", "--data", str(good), "--constraints", str(eq1_path),
        "--algo", "scpr", "--t", "0.05", "--controlled", "p,v", "--out", str(rep),
    )
    assert proc.returncode == 0, proc.stderr
    report = check_report(rep, schema, "validate")
    assert report["result"]["verdict"] == "valid"

    bad = tmp_path / "bad.csv"
    run("synth", "--kind", "friction_stuck", "--seed", "3", "--out", str(bad))
    proc = run(
        "validate", "--data", str(bad), "--constraints", str(eq1_path),
        "--algo", "scpr", "--t", "0.05", "--controlled", "p,v",
    )
    assert proc.returncode == 3, proc.stderr


def test_gridsearch_and_roc(tmp_path, schema, eq1_path):
    corpus_dir = tmp_path / "corpus"
    run(
        "synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "2",
    )
    grid_csv = tmp_path / "grid.csv"
    grid_rep = tmp_path / "grid.json"
    proc = run(
        "gridsearch", "--data-dir", str(corpus_dir), "--algo", "pr",
        "--folds", "2", "--csv-out", str(grid_csv), "--out", str(grid_rep),
    )
    assert proc.returncode == 0, proc.stderr
    report = check_report(grid_rep, schema, "gridsearch")
    assert "degree" in report["result"]["best_params"]
    header = grid_csv.read_text().splitlines()[0]
    assert "sum_test_rmse" in header

    roc_csv = tmp_path / "roc.csv"
    roc_rep = tmp_path / "roc.json"
    proc = run(
        "roc", "--data-dir", str(corpus_dir), "--algo", "pr",
        "--constraints", str(eq1_path), "--controlled", "p,v",
        "--csv-out", str(roc_csv), "--out", str(roc_rep),
    )
    assert proc.returncode == 0, proc.stderr
    report = check_report(roc_rep, schema, "roc")
    assert 0.0 <= report["result"]["auc"] <= 1.0
    assert roc_csv.read_text().startswith("threshold,fpr,tpr")


def test_error_exit_codes(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("x,y\n")
    proc = run("fit", "--algo", "scpr", "--data", str(empty), "--target", "y")
    assert proc.returncode == 1
    assert "SchemaError" in proc.stderr

    proc = run("fit", "--algo", "nope", "--data", str(empty))
    assert proc.returncode == 2

    proc = run("frobnicate")
    assert proc.returncode == 2


def test_empty_csv_is_an_error_line_with_or_without_a_target(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    for target in ((), ("--target", "y")):
        proc = run("fit", "--algo", "pr", "--data", str(empty), *target)
        assert_error_line(proc, 1)
        assert f"SchemaError: {empty}: empty file" in proc.stderr


def test_input_that_is_not_utf8_is_an_error_line(tmp_path):
    data, spec, model = tmp_path / "d.csv", tmp_path / "mono.spec", tmp_path / "model.json"
    data.write_text("x,y\n0.0,0.0\n0.5,0.25\n1.0,1.0\n")
    spec.write_text(MONO_SPEC)
    run("fit", "--algo", "pr", "--data", str(data), "--model-out", str(model))
    bad = tmp_path / "latin1"
    bad.write_bytes("x,y\n# caf\xe9\n".encode("latin-1"))
    for args in (
        ("fit", "--algo", "pr", "--data", str(bad)),
        ("fit", "--algo", "pr", "--data", str(bad), "--target", "y"),
        ("fit", "--algo", "pr", "--data", str(data), "--constraints", str(bad)),
        ("certify", "--model", str(bad), "--constraints", str(spec)),
        ("certify", "--model", str(model), "--constraints", str(bad)),
    ):
        proc = run(*args)
        assert_error_line(proc, 1)
        assert "can't decode byte 0xe9" in proc.stderr


def test_an_input_that_is_not_utf8_is_named_in_its_error_line(tmp_path):
    # every file the CLI reads: the CSV, the constraint spec, --config,
    # certify's --model and a corpus manifest
    data, spec, bad = tmp_path / "d.csv", tmp_path / "mono.spec", tmp_path / "latin1"
    data.write_text("x,y\n0.0,0.0\n0.5,0.25\n1.0,1.0\n")
    spec.write_text(MONO_SPEC)
    bad.write_bytes("x,y\n# caf\xe9\n".encode("latin-1"))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    manifest = corpus / "manifest.json"
    manifest.write_bytes('[{"file": "caf\xe9.csv"}]'.encode("latin-1"))
    for path, args in (
        (bad, ("fit", "--algo", "pr", "--data", str(bad))),
        (bad, ("fit", "--algo", "pr", "--data", str(data), "--constraints", str(bad))),
        (bad, ("fit", "--algo", "pr", "--data", str(data), "--config", str(bad))),
        (bad, ("certify", "--model", str(bad), "--constraints", str(spec))),
        (manifest, ("roc", "--algo", "pr", "--data-dir", str(corpus))),
    ):
        proc = run(*args)
        assert_error_line(proc, 1)
        assert f"DataError: {path}: 'utf-8' codec can't decode byte 0xe9" in proc.stderr, (args, proc.stderr)


def test_algo_config_rejects_misspelt_key():
    from shapeguard.errors import ConfigError
    from shapeguard.validation import _config_from_settings

    with pytest.raises(ConfigError, match="populaton"):
        _config_from_settings("scsr", {"populaton": 10}, "--config")
    with pytest.raises(ConfigError, match="max_dept, n_tree"):
        _config_from_settings("gbt", {"n_tree": 5, "max_dept": 2}, "--config")
    with pytest.raises(ConfigError, match="cert_grid"):
        _config_from_settings("scpr", {"cert_grid": 16}, "--config")
    with pytest.raises(ConfigError, match="cert_tol, grid"):
        _config_from_settings("scpr", {"degree": 5, "grid": {"degree": [2]}, "cert_tol": 1e-8}, "--config")


def test_algo_config_accepts_cli_keys():
    from shapeguard.validation import _config_from_settings

    assert _config_from_settings("scpr", {"degree": 5}, "--config").degree == 5
    assert _config_from_settings("scsr", {"population": 10, "seed": 4}, "--config").seed == 4


def test_each_subcommand_rejects_config_keys_it_does_not_read(tmp_path, eq1_path):
    data = tmp_path / "d.csv"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "1")
    data_args = ["--data", str(data), "--constraints", str(eq1_path)]
    dir_args = ["--data-dir", str(corpus_dir), "--constraints", str(eq1_path)]
    cases = [
        (["fit", "--algo", "scsr", *data_args], {"degree": 3}),
        (["fit", "--algo", "scpr", *data_args], {"cert_tol": 1e-8}),
        (["fit", "--algo", "gbt", *data_args], {"grid": {"max_depth": [2]}}),
        (["validate", "--algo", "pr", "--t", "0.05", *data_args], {"grid": {"degree": [2]}}),
        (["roc", "--algo", "pr", *dir_args], {"cert_tol": 1e-8}),
        (["gridsearch", "--algo", "pr", *dir_args], {"cert_tol": 1e-8}),
    ]
    for args, keys in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(keys))
        proc = run(*args, "--config", str(cfg))
        assert proc.returncode == 1, (args, keys, proc.stdout)
        assert "ConfigError: unknown --config keys" in proc.stderr
        assert next(iter(keys)) in proc.stderr


def test_gridsearch_reads_fixed_config_fields_beside_grid(tmp_path):
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"degree": [2, 3]}, "lam": 1e-4}))
    rep = tmp_path / "grid.json"
    proc = run("gridsearch", "--algo", "pr", "--data-dir", str(corpus_dir),
               "--config", str(cfg), "--out", str(rep))
    assert proc.returncode == 0, proc.stderr
    table = json.loads(rep.read_text())["result"]["table"]
    assert [row["params"] for row in table] == [{"lam": 1e-4, "degree": 2}, {"lam": 1e-4, "degree": 3}]


def test_gridsearch_applies_seed_to_configs_with_a_seed(tmp_path):
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "0")

    def sum_rmse(grid=None, **fixed):
        cfg = tmp_path / "cfg.json"
        grid = {"max_generations": [5], **(grid or {})}
        cfg.write_text(json.dumps({"grid": grid, "population": 20, **fixed}))
        rep = tmp_path / "grid.json"
        proc = run("gridsearch", "--algo", "scsr", "--data-dir", str(corpus_dir),
                   "--config", str(cfg), "--out", str(rep))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(rep.read_text())
        assert report["metadata"]["seed"] is None  # each row's params hold its seed
        return report["result"]["table"][0]["sum_test_rmse"]

    # the seed comes from the config alone: a fixed field or a grid cell's, which wins
    assert sum_rmse(seed=1) != sum_rmse(seed=2)
    assert sum_rmse() == sum_rmse(seed=0)
    assert sum_rmse({"seed": [2]}, seed=1) == sum_rmse(seed=2)


SMALL_CONFIGS = {
    "pr": {"degree": 3},
    "scpr": {"degree": 3},
    "scsr": {"population": 40, "max_generations": 15},
    "gbt": {"n_trees": 20},
}


@pytest.mark.parametrize("algo", sorted(SMALL_CONFIGS))
def test_saved_model_reproduces_reported_train_rmse(tmp_path, eq1_path, algo):
    from shapeguard import GBTEnsemble, PolyModel, load_csv, predict_gbt
    from shapeguard.scsr import eval_tree_columns, tree_from_json

    loaders = {
        "pr": lambda text: PolyModel.from_json(text).evaluate_columns,
        "scpr": lambda text: PolyModel.from_json(text).evaluate_columns,
        "scsr": lambda text: lambda cols: eval_tree_columns(tree_from_json(text), cols),
        "gbt": lambda text: lambda cols: predict_gbt(GBTEnsemble.from_json(text), cols),
    }
    data = tmp_path / "d.csv"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIGS[algo]))
    model, rep = tmp_path / "model.json", tmp_path / "fit.json"
    proc = run(
        "fit", "--algo", algo, "--data", str(data), "--constraints", str(eq1_path),
        "--config", str(cfg), "--model-out", str(model), "--out", str(rep),
    )
    assert proc.returncode == 0, proc.stderr
    reported = json.loads(rep.read_text())["result"]["train_rmse"]
    ds = load_csv(data, target="mu_dyn")
    preds = loaders[algo](model.read_text())(ds.columns)
    assert abs(float(np.sqrt(np.mean((preds - ds.y) ** 2))) - reported) <= 1e-12


def assert_error_line(proc, code):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr, proc.stderr


def test_certify_without_constraints_is_a_usage_error(tmp_path):
    data, model = tmp_path / "d.csv", tmp_path / "model.json"
    run("synth", "--kind", "cubic_fig1", "--seed", "5", "--out", str(data))
    run("fit", "--algo", "pr", "--data", str(data), "--model-out", str(model))
    proc = run("certify", "--model", str(model))
    assert_error_line(proc, 2)
    assert "--constraints" in proc.stderr


def test_certify_takes_no_seed(tmp_path, eq1_path, schema):
    # certify has no randomness, so a seed would only be copied to the report
    data, model, rep = tmp_path / "d.csv", tmp_path / "model.json", tmp_path / "cert.json"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    run("fit", "--algo", "pr", "--data", str(data), "--model-out", str(model))
    args = ["certify", "--model", str(model), "--constraints", str(eq1_path), "--out", str(rep)]
    assert_error_line(run(*args, "--seed", "1"), 2)
    assert run(*args).returncode == 0
    assert check_report(rep, schema, "certify")["metadata"]["seed"] is None


def test_scpr_solver_controls_are_unknown_keys_on_every_surface(tmp_path, small_corpus):
    # the solver's tolerance, NNLS budget and refinement cap are scpr constants
    from shapeguard import ConfigError, ValidationConfig, grid_search, synth_generate

    old = {"max_iter": 1, "refine_rounds": 0, "solver_tol": 1e-6}
    named = "keys: max_iter, refine_rounds, solver_tol"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(old))
    data = next(small_corpus.glob("*.csv"))
    proc = run("fit", "--algo", "scpr", "--data", str(data), "--config", str(cfg))
    assert_error_line(proc, 1)
    assert f"ConfigError: unknown --config {named}" in proc.stderr
    with pytest.raises(ConfigError, match=f"unknown algorithm_config {named}"):
        ValidationConfig(0.05, ["p", "v"], "scpr", old)
    datasets = [synth_generate("cubic_fig1", s) for s in range(2)]
    with pytest.raises(ConfigError, match=f"unknown grid cell 1 {named}"):
        grid_search(datasets, "scpr", [{"degree": 2}, old], folds=2)


def test_ga_breeding_settings_are_unknown_keys_on_every_surface(tmp_path, small_corpus):
    # the tournament size, crossover and mutation probabilities and elite count are scsr constants
    from shapeguard import ConfigError, ValidationConfig, grid_search, synth_generate

    old = {"tournament_size": 5, "crossover_prob": 0.9, "mutation_prob": 0.15, "elitism": 1}
    named = "keys: crossover_prob, elitism, mutation_prob, tournament_size"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(old))
    data = next(small_corpus.glob("*.csv"))
    proc = run("fit", "--algo", "scsr", "--data", str(data), "--config", str(cfg))
    assert_error_line(proc, 1)
    assert f"ConfigError: unknown --config {named}" in proc.stderr
    with pytest.raises(ConfigError, match=f"unknown algorithm_config {named}"):
        ValidationConfig(0.05, ["p", "v"], "scsr", old)
    datasets = [synth_generate("cubic_fig1", s) for s in range(2)]
    with pytest.raises(ConfigError, match=f"unknown grid cell 1 {named}"):
        grid_search(datasets, "scsr", [{"population": 10}, old], folds=2)


@pytest.mark.parametrize("args", [
    ["fit", "--algo", "pr", "--data", "d.csv", "--seed", "1"],
    ["validate", "--algo", "scsr", "--t", "0.05", "--data", "d.csv", "--seed", "1"],
    ["gridsearch", "--algo", "scsr", "--data-dir", "corpus", "--seed", "1"],
    ["roc", "--algo", "scsr", "--data-dir", "corpus", "--seed", "1"],
], ids=["fit-seed", "validate-seed", "gridsearch-seed", "roc-seed"])
def test_removed_flags_are_usage_errors(tmp_path, args):
    # only synth and a config's seed field seed a run
    proc = run(*args, cwd=tmp_path)
    assert_error_line(proc, 2)
    assert f"unrecognized arguments: {args[-2]} {args[-1]}" in proc.stderr


def test_metadata_seed_is_the_seed_that_ran(tmp_path, schema):
    data, cfg = tmp_path / "d.csv", tmp_path / "cfg.json"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    cfg.write_text(json.dumps({"population": 10, "max_generations": 2, "seed": 2}))
    seeds = {}
    for algo, config in (("scsr", ["--config", str(cfg)]), ("pr", [])):
        rep = tmp_path / f"{algo}.json"
        proc = run("fit", "--algo", algo, "--data", str(data), *config, "--out", str(rep))
        assert proc.returncode == 0, proc.stderr
        seeds[algo] = check_report(rep, schema, "fit")["metadata"]["seed"]
    assert seeds == {"scsr": 2, "pr": None}


@pytest.mark.parametrize("key, value", [
    ("label", "Invalid"), ("label", 1), ("name", 7), ("name", None), ("error_kind", ["stuck"]),
])
def test_manifest_entry_with_a_bad_field_is_a_schema_error(tmp_path, eq1_path, key, value):
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "1", "--n-invalid", "1")
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    manifest[1][key] = value
    (corpus_dir / "manifest.json").write_text(json.dumps(manifest))
    for sub in ("roc", "gridsearch"):
        proc = run(sub, "--algo", "pr", "--data-dir", str(corpus_dir), "--constraints", str(eq1_path))
        assert_error_line(proc, 1)
        assert f'SchemaError: {corpus_dir / "manifest.json"} entry 1 "{key}"' in proc.stderr


def test_manifest_entry_without_file_is_a_schema_error(tmp_path, eq1_path):
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "1", "--n-invalid", "1")
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    del manifest[1]["file"]
    (corpus_dir / "manifest.json").write_text(json.dumps(manifest))
    proc = run("roc", "--algo", "pr", "--data-dir", str(corpus_dir), "--constraints", str(eq1_path))
    assert_error_line(proc, 1)
    assert "SchemaError" in proc.stderr and "entry 1" in proc.stderr


def test_malformed_config_json_is_a_config_error(tmp_path):
    data, cfg = tmp_path / "d.csv", tmp_path / "cfg.json"
    run("synth", "--kind", "cubic_fig1", "--seed", "5", "--out", str(data))
    cfg.write_text('{"degree": 3,}')
    proc = run("fit", "--algo", "pr", "--data", str(data), "--config", str(cfg))
    assert_error_line(proc, 1)
    assert "ConfigError: --config" in proc.stderr


def test_malformed_synth_params_is_a_config_error(tmp_path):
    proc = run("synth", "--kind", "cubic_fig1", "--out", str(tmp_path / "d.csv"), "--params", "{n: 5}")
    assert_error_line(proc, 1)
    assert "ConfigError: --params" in proc.stderr


@pytest.mark.parametrize("subcommand, algo, config", [
    ("certify", None, {"cert_tol": "abc"}),
    ("certify", None, {"cert_tol": None}),
    ("fit", "scpr", {"degree": "3"}),
    ("fit", "scpr", {"lam": True}),
    ("fit", "scsr", {"population": 2.5}),
    ("fit", "gbt", {"monotone": [1]}),
])
def test_ill_typed_config_value_is_a_config_error(tmp_path, eq1_path, subcommand, algo, config):
    data, model, cfg = tmp_path / "d.csv", tmp_path / "model.json", tmp_path / "cfg.json"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    cfg.write_text(json.dumps(config))
    if subcommand == "certify":
        run("fit", "--algo", "pr", "--data", str(data), "--model-out", str(model))
        args = ["certify", "--model", str(model)]
    else:
        args = ["fit", "--algo", algo, "--data", str(data)]
    proc = run(*args, "--constraints", str(eq1_path), "--config", str(cfg))
    if subcommand == "certify":
        # certify reads no config, so a cert_tol of any type is refused before the model is read
        assert_error_line(proc, 2)
        assert f"unrecognized arguments: --config {cfg}" in proc.stderr
    else:
        assert_error_line(proc, 1)
        assert f"ConfigError: --config key {next(iter(config))!r}" in proc.stderr


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("corpus")
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "3", "--n-invalid", "2")
    return corpus_dir


@pytest.mark.parametrize("setting, key", [
    ({"cert_tol": -1}, "unknown --config keys: cert_tol"),
    ({"cert_tol": math.inf}, "unknown --config keys: cert_tol"),
    ({"grid": 5}, "grid"),
    ({"grid": {"degree": 3}}, "'degree'"),
    ({"grid": [1]}, "grid"),
    ({"grid": {"degree": ["3"]}}, "'degree'"),
    ({"grid": {"degreee": [3]}}, "degreee"),
    ({"p_levels": "4"}, "'p_levels'"),
    ({"sigma": None}, "'sigma'"),
    ({"v_levels": 0}, "'v_levels'"),
    ({"rows_per_segment": -3}, "'rows_per_segment'"),
    ({"sigma": -1}, "'sigma'"),
    ({"outlier_fraction": 2}, "'outlier_fraction'"),
    ({"n": 2.5}, "'n'"),
    ({"n_valid": -2}, "n_valid"),
    ({"cert_tol": 10**400}, "unknown --config keys: cert_tol"),
    ({"lam": 10**400}, "'lam' is too large for a float"),
    ({"sigma": 10**400}, "'sigma' is too large for a float"),
    ({"degree": 0}, "degree must be >= 1"),
    ({"grid": {"degree": [0, 3]}}, "degree must be >= 1"),
], ids=["cert_tol-negative", "cert_tol-inf", "grid-number", "grid-value-not-list",
        "grid-list-of-numbers", "grid-str-value", "grid-unknown-key", "p_levels-str", "sigma-null",
        "v_levels-0", "rows_per_segment-negative", "sigma-negative", "outlier_fraction-2",
        "n-fraction", "n_valid-negative", "cert_tol-huge", "lam-huge", "sigma-huge", "degree-0",
        "grid-degree-0"])
def test_bad_setting_is_one_config_error_line_naming_the_key(
    tmp_path, small_corpus, setting, key
):
    (name, value), = setting.items()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(setting))
    out = str(tmp_path / "out")
    if name == "grid":
        proc = run("gridsearch", "--algo", "pr", "--data-dir", str(small_corpus), "--config", str(cfg))
    elif name == "n_valid":
        proc = run("synth", "--kind", "corpus", "--out", out, "--n-valid", str(value))
    elif name in ("lam", "degree", "cert_tol"):  # cert_tol, certify's old setting, is no key
        data = sorted(small_corpus.glob("*.csv"))[0]
        proc = run("fit", "--algo", "pr", "--data", str(data), "--config", str(cfg))
    else:
        kind = "cubic_fig1" if name == "n" else "friction_outlier"
        proc = run("synth", "--kind", kind, "--out", out, "--params", json.dumps(setting))
    assert proc.returncode == 1, proc.stderr
    line, = proc.stderr.splitlines()
    assert line.startswith("error: ConfigError: ") and key in line, line


def rename_target(csv_path, name):
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text(lines[0].replace("mu_dyn", name) + "".join(lines[1:]))


def test_validate_and_roc_fit_the_target_flag_beside_a_spec(tmp_path, eq1_path):
    # eq1.spec names mu_dyn; --target must win for the fit and the scores
    data = tmp_path / "d.csv"
    run("synth", "--kind", "friction_valid", "--seed", "7", "--out", str(data))
    rename_target(data, "friction")
    rep = tmp_path / "val.json"
    proc = run(
        "validate", "--data", str(data), "--constraints", str(eq1_path), "--target", "friction",
        "--algo", "pr", "--t", "0.05", "--out", str(rep),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(rep.read_text())["result"]["error"] is None

    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "2")
    for path in corpus_dir.glob("*.csv"):
        rename_target(path, "friction")
    rep = tmp_path / "roc.json"
    proc = run(
        "roc", "--data-dir", str(corpus_dir), "--constraints", str(eq1_path),
        "--target", "friction", "--algo", "pr", "--out", str(rep),
    )
    assert proc.returncode == 0, proc.stderr
    assert ", 0 failed;" in proc.stdout
    assert [r["error"] for r in json.loads(rep.read_text())["result"]["reports"]] == [None] * 4


def test_certify_takes_no_target(tmp_path, eq1_path):
    data, model = tmp_path / "d.csv", tmp_path / "model.json"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    run("fit", "--algo", "pr", "--data", str(data), "--model-out", str(model))
    proc = run("certify", "--model", str(model), "--constraints", str(eq1_path), "--target", "y")
    assert_error_line(proc, 2)
    assert "--target" in proc.stderr


def test_malformed_model_file_is_a_schema_error(tmp_path, eq1_path):
    model = tmp_path / "model.json"
    cases = (
        ("degree: 3\n", "model is not valid JSON"),
        (json.dumps({"variables": ["v", "p", "T"], "degree": 3}), "model: missing field 'terms'"),
    )
    for text, message in cases:
        model.write_text(text)
        proc = run("certify", "--model", str(model), "--constraints", str(eq1_path))
        assert_error_line(proc, 1)
        assert f"SchemaError: {message}" in proc.stderr


def test_model_without_variables_is_an_error_line(tmp_path):
    model, spec = tmp_path / "model.json", tmp_path / "mono.spec"
    model.write_text(json.dumps({"variables": [], "degree": 0, "terms": [{"exponents": [], "coeff": -1.0}]}))
    spec.write_text(MONO_SPEC)
    proc = run("certify", "--model", str(model), "--constraints", str(spec))
    assert_error_line(proc, 1)
    assert "DomainError: a polynomial model needs at least one variable" in proc.stderr


def test_manifest_that_is_not_a_json_list_is_a_schema_error(tmp_path, eq1_path):
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "1", "--n-invalid", "1")
    manifest = corpus_dir / "manifest.json"
    cases = (("[{", "is not valid JSON"), ('{"file": "a.csv"}', "JSON list"), ('[{"file": 3}]', "entry 0"))
    for text, message in cases:
        manifest.write_text(text)
        proc = run("roc", "--algo", "pr", "--data-dir", str(corpus_dir), "--constraints", str(eq1_path))
        assert_error_line(proc, 1)
        assert "SchemaError" in proc.stderr and "manifest.json" in proc.stderr and message in proc.stderr


def test_roc_fails_when_every_dataset_failed(tmp_path, eq1_path):
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "2")
    rep = tmp_path / "roc.json"
    proc = run(
        "roc", "--data-dir", str(corpus_dir), "--constraints", str(eq1_path),
        "--controlled", "a,b", "--algo", "pr", "--out", str(rep),
    )
    assert_error_line(proc, 1)
    assert "controlled column 'a' not present" in proc.stderr
    assert "AUC" not in proc.stdout
    reports = json.loads(rep.read_text())["result"]["reports"]
    assert len(reports) == 4 and all(r["error"] for r in reports)

    proc = run("roc", "--data-dir", str(tmp_path / "missing"), "--algo", "pr")
    assert_error_line(proc, 1)
    assert "holds no datasets" in proc.stderr


def test_every_schema_def_is_reachable_from_the_root(schema):
    def refs(node):
        return re.findall(r'"#/\$defs/([^"]+)"', json.dumps(node))

    reachable, todo = set(), refs({k: v for k, v in schema.items() if k != "$defs"})
    while todo:
        name = todo.pop()
        if name not in reachable:
            reachable.add(name)
            todo += refs(schema["$defs"][name])
    assert reachable == set(schema["$defs"])


SMALL_CONFIGS = {"pr": {}, "scpr": {}, "gbt": {"n_trees": 5}, "scsr": {"population": 30, "max_generations": 5}}


@pytest.mark.parametrize("algo", sorted(SMALL_CONFIGS))
def test_fit_and_validate_reports_match_the_schema_and_time_the_call(tmp_path, schema, eq1_path, algo):
    data, cfg = tmp_path / "d.csv", tmp_path / "cfg.json"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    cfg.write_text(json.dumps(SMALL_CONFIGS[algo]))
    common = ["--algo", algo, "--data", str(data), "--constraints", str(eq1_path), "--config", str(cfg)]
    for subcommand, extra in (("fit", []), ("validate", ["--t", "1"])):
        rep = tmp_path / f"{subcommand}.json"
        proc = run(subcommand, *common, *extra, "--out", str(rep))
        assert proc.returncode == 0, proc.stderr
        report = check_report(rep, schema, subcommand)
        assert isinstance(report["metadata"]["wall_time_seconds"], float)
