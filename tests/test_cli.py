"""Command-line interface: subcommands, exit codes, report schema."""

import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

MONO_SPEC = "target y\nbox x in [-2, 2]\nd1 x >= 0\n"


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "shapeguard.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
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


def test_algo_config_rejects_misspelt_key():
    from shapeguard.cli import _algo_config
    from shapeguard.errors import ConfigError

    with pytest.raises(ConfigError, match="populaton"):
        _algo_config("scsr", {"populaton": 10}, 0)
    with pytest.raises(ConfigError, match="max_dept, n_tree"):
        _algo_config("gbt", {"n_tree": 5, "max_dept": 2}, 0)
    with pytest.raises(ConfigError, match="cert_grid"):
        _algo_config("scpr", {"cert_grid": 16}, 0)
    with pytest.raises(ConfigError, match="cert_tol, grid"):
        _algo_config("scpr", {"degree": 5, "grid": {"degree": [2]}, "cert_tol": 1e-8}, 0)


def test_algo_config_accepts_cli_keys():
    from shapeguard.cli import _algo_config

    assert _algo_config("scpr", {"degree": 5}, 0).degree == 5
    assert _algo_config("scsr", {"population": 10}, 4).seed == 4


def test_each_subcommand_rejects_config_keys_it_does_not_read(tmp_path, eq1_path):
    data = tmp_path / "d.csv"
    run("synth", "--kind", "friction_valid", "--seed", "3", "--out", str(data))
    corpus_dir = tmp_path / "corpus"
    run("synth", "--kind", "corpus", "--seed", "0", "--out", str(corpus_dir),
        "--n-valid", "2", "--n-invalid", "1")
    model = tmp_path / "model.json"
    run("fit", "--algo", "pr", "--data", str(data), "--model-out", str(model))
    data_args = ["--data", str(data), "--constraints", str(eq1_path)]
    dir_args = ["--data-dir", str(corpus_dir), "--constraints", str(eq1_path)]
    cases = [
        (["certify", "--model", str(model), "--constraints", str(eq1_path)], {"cert_tl": 2.0}),
        (["certify", "--model", str(model), "--constraints", str(eq1_path)], {"degree": 3}),
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

    def sum_rmse(cli_seed, **fixed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"max_generations": [5]}, "population": 20, **fixed}))
        rep = tmp_path / "grid.json"
        proc = run("gridsearch", "--algo", "scsr", "--data-dir", str(corpus_dir),
                   "--config", str(cfg), "--seed", str(cli_seed), "--out", str(rep))
        assert proc.returncode == 0, proc.stderr
        return json.loads(rep.read_text())["result"]["table"][0]["sum_test_rmse"]

    assert sum_rmse(1) != sum_rmse(2)
    # a seed in the config wins over --seed
    assert sum_rmse(1, seed=2) == sum_rmse(2)


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
