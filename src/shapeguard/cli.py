"""Command-line interface: fit, certify, validate, gridsearch, roc, synth.

Reports are JSON (deterministic apart from the ``metadata`` field, which
holds timestamps and wall times); curves and tables are plot-ready CSV.
Exit codes: 0 success / verdict valid, 1 pipeline error, 2 usage error,
3 validation verdict invalid.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from . import synth as synth_mod
from . import validation as validation_mod
from .certify import certify as run_certification
from .constraints import parse_constraints
from .datasets import load_csv
from .errors import ConfigError, SchemaError, ShapeguardError
from .poly import PolyModel
from .validation import ALGORITHMS

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INVALID = 3


def _jsonable(obj):
    """Recursively convert report values; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_report(path, subcommand, result, seed=None, extra_metadata=None):
    metadata = {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(), "seed": seed}
    if extra_metadata:
        metadata.update(extra_metadata)
    report = {"subcommand": subcommand, "result": _jsonable(result), "metadata": metadata}
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    return report


def _parse_json(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{flag} is not valid JSON: {exc}") from None


def _load_config(path) -> dict:
    if not path:
        return {}
    cfg = _parse_json(Path(path).read_text(encoding="utf-8"), f"--config {path}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _reject_unknown_keys(overrides: dict, allowed, reader: str):
    unknown = sorted(set(overrides) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown --config keys for {reader}: {', '.join(unknown)}")


def _algo_config(algorithm: str, overrides: dict, seed):
    cls = ALGORITHMS[algorithm].config
    names = {f.name for f in dc_fields(cls)}
    _reject_unknown_keys(overrides, names, repr(algorithm))
    kwargs = {k: v for k, v in overrides.items() if k in names}
    if seed is not None and "seed" in names:
        kwargs.setdefault("seed", seed)
    return cls(**kwargs)


def _load_spec(path):
    if not path:
        return None
    return parse_constraints(Path(path).read_text(encoding="utf-8"))


def _resolve_target(args, spec) -> str | None:
    if getattr(args, "target", None):
        return args.target
    if spec is not None:
        return spec.target
    return None


def _load_data(path, target):
    if target is None:
        with open(path, "r", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        target = header[-1].strip()
    return load_csv(path, target=target)


def _pop_wall_time(fit_report):
    if isinstance(fit_report, dict):
        return fit_report.pop("wall_time_seconds", None)
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    params = _parse_json(args.params, "--params") if args.params else None
    if args.kind == "corpus":
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        corpus = synth_mod.make_corpus(args.n_valid, args.n_invalid, args.seed, params)
        manifest = []
        files = []
        for ds in corpus:
            fname = f"{ds.name}.csv"
            ds.write_csv(out_dir / fname)
            files.append(fname)
            manifest.append(
                {"file": fname, "name": ds.name, "label": ds.label, "error_kind": ds.error_kind}
            )
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        result = {"kind": "corpus", "files": files, "rows": sum(d.n_rows for d in corpus)}
        print(f"wrote {len(files)} datasets to {out_dir}")
    else:
        ds = synth_mod.synth_generate(args.kind, args.seed, params)
        ds.write_csv(args.out)
        result = {"kind": args.kind, "files": [str(args.out)], "rows": ds.n_rows}
        print(f"wrote {ds.n_rows} rows to {args.out} (label: {ds.label})")
    _write_report(args.report, "synth", result, seed=args.seed)
    return EXIT_OK


def _cmd_fit(args) -> int:
    spec = _load_spec(args.constraints)
    target = _resolve_target(args, spec)
    data = _load_data(args.data, target)
    overrides = _load_config(args.config)
    config = _algo_config(args.algo, overrides, args.seed)
    constraints = spec.constraints if spec else []
    entry = ALGORITHMS[args.algo]
    model, predict, fit_info = entry.fit(data, config, constraints, data.target)
    wall = _pop_wall_time(fit_info)
    model_file = None
    if args.model_out:
        model_file = str(args.model_out)
        Path(model_file).write_text(entry.to_json(model) + "\n", encoding="utf-8")
    rmse = float(np.sqrt(np.mean((predict(data.columns) - data.y) ** 2)))
    result = {
        "algorithm": args.algo, "train_rmse": rmse, "fit_report": fit_info, "model_file": model_file
    }
    _write_report(
        args.out, "fit", result, seed=args.seed, extra_metadata={"wall_time_seconds": wall}
    )
    print(f"{args.algo} fit on {data.name}: train RMSE {rmse:.6g}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    spec = _load_spec(args.constraints)
    model = PolyModel.from_json(Path(args.model).read_text(encoding="utf-8"))
    overrides = _load_config(args.config)
    _reject_unknown_keys(overrides, {"cert_tol"}, "certify")
    report = run_certification(model, spec.constraints, tol=float(overrides.get("cert_tol", 1e-9)))
    _write_report(args.out, "certify", report.to_dict(), seed=args.seed)
    for entry in report.entries:
        print(f"{entry.verdict:10s} {entry.constraint.describe()}")
    return EXIT_OK


def _validation_config(args, spec, overrides):
    controlled = [c for c in args.controlled.split(",") if c]
    algo_config = _algo_config(args.algo, overrides, args.seed)
    return validation_mod.ValidationConfig(
        threshold=args.t,
        controlled_variables=controlled,
        algorithm=args.algo,
        algorithm_config=algo_config,
        constraints=spec.constraints if spec else [],
        target=spec.target if spec else None,
    )


def _cmd_validate(args) -> int:
    spec = _load_spec(args.constraints)
    target = _resolve_target(args, spec)
    data = _load_data(args.data, target)
    overrides = _load_config(args.config)
    config = _validation_config(args, spec, overrides)
    report = validation_mod.validate_dataset(data, config)
    wall = _pop_wall_time(report.fit_report)
    _write_report(
        args.out,
        "validate",
        report.to_dict(),
        seed=args.seed,
        extra_metadata={"wall_time_seconds": wall},
    )
    print(f"{data.name}: score {report.score:.6g} vs t={args.t:g} -> {report.verdict}")
    return EXIT_OK if report.verdict == "valid" else EXIT_INVALID


def _load_corpus(data_dir, target):
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    datasets = []
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for i, entry in enumerate(manifest):
            if not isinstance(entry, dict) or "file" not in entry:
                raise SchemaError(f'{manifest_path} entry {i} names no "file": {entry!r}')
            ds = _load_data(data_dir / entry["file"], target)
            ds.name = entry.get("name", entry["file"])
            ds.label = entry.get("label")
            ds.error_kind = entry.get("error_kind")
            datasets.append(ds)
    else:
        for path in sorted(data_dir.glob("*.csv")):
            datasets.append(_load_data(path, target))
    return datasets


def _cmd_gridsearch(args) -> int:
    spec = _load_spec(args.constraints)
    target = _resolve_target(args, spec)
    overrides = _load_config(args.config)
    datasets = _load_corpus(args.data_dir, target)
    datasets = [d for d in datasets if d.label in (None, "valid")]
    fixed = dict(overrides)
    grid = fixed.pop("grid", ALGORITHMS[args.algo].grid)
    config = _algo_config(args.algo, fixed, args.seed)  # rejects unknown keys and bad values up front
    if "seed" in {f.name for f in dc_fields(config)}:
        fixed["seed"] = config.seed  # --seed unless --config sets one; a grid cell's seed wins
    if not grid:
        raise ConfigError(f"no parameter grid for algorithm {args.algo!r}; set 'grid' in --config")
    cells = [dict(fixed, **cell) for cell in validation_mod._expand_grid(grid)]
    best, table = validation_mod.grid_search(
        datasets, args.algo, cells, folds=args.folds,
        constraints=spec.constraints if spec else (), target=target,
    )
    result = {"best_params": best, "table": table}
    _write_report(args.out, "gridsearch", result, seed=args.seed)
    if args.csv_out:
        Path(args.csv_out).write_text(
            validation_mod.grid_table_to_csv(table), encoding="utf-8"
        )
    print(f"best params over {len(datasets)} datasets: {best}")
    return EXIT_OK


def _cmd_roc(args) -> int:
    spec = _load_spec(args.constraints)
    target = _resolve_target(args, spec)
    overrides = _load_config(args.config)
    datasets = _load_corpus(args.data_dir, target)
    config = _validation_config(args, spec, overrides)
    reports, confusion, curve = validation_mod.validate_corpus(datasets, config)
    for r in reports:
        _pop_wall_time(r.fit_report)
    points = []
    if curve:
        points = [
            {"threshold": t, "fpr": f, "tpr": tp}
            for t, f, tp in zip(curve.thresholds, curve.fpr, curve.tpr)
        ]
    result = {
        "auc": curve.auc if curve else None,
        "points": points,
        "confusion": confusion,
        "reports": [r.to_dict() for r in reports],
    }
    _write_report(args.out, "roc", result, seed=args.seed)
    if args.csv_out and curve:
        Path(args.csv_out).write_text(curve.to_csv(), encoding="utf-8")
    auc_text = f"{curve.auc:.4f}" if curve else "n/a"
    print(f"validated {len(reports)} datasets; confusion {confusion}; AUC {auc_text}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, data=True, spec_required=False):
    p.add_argument("--constraints", required=spec_required, help="constraint spec file")
    p.add_argument("--target", help="target column (default: spec target or last column)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON config file overriding algorithm defaults")
    p.add_argument("--out", help="JSON report destination")
    if data:
        p.add_argument("--data", required=True, help="input CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeguard",
        description="Shape-constrained regression and data validation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    p.add_argument("--kind", required=True, help="cubic_fig1, friction_*, or corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path (directory for corpus)")
    p.add_argument("--params", help="JSON parameter overrides")
    p.add_argument("--n-valid", type=int, default=18)
    p.add_argument("--n-invalid", type=int, default=35)
    p.add_argument("--report", help="JSON report destination")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit one model to one dataset")
    p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    _add_common(p)
    p.add_argument("--model-out", help="write the fitted model as JSON")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("certify", help="certify constraints on a saved polynomial model")
    p.add_argument("--model", required=True, help="model JSON file")
    _add_common(p, data=False, spec_required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("validate", help="classify one dataset as valid/invalid")
    p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--t", type=float, required=True, help="segment-RMSE threshold")
    p.add_argument("--controlled", default="p,v", help="comma-separated controlled columns")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gridsearch", help="two-fold CV hyper-parameter search")
    p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--data-dir", required=True, help="directory of CSVs (+ optional manifest)")
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--csv-out", help="write the result table as CSV")
    _add_common(p, data=False)
    p.set_defaults(func=_cmd_gridsearch)

    p = sub.add_parser("roc", help="validate a labeled corpus and sweep the threshold")
    p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
    p.add_argument("--data-dir", required=True, help="corpus directory with manifest.json")
    p.add_argument("--t", type=float, default=0.05, help="threshold for the confusion counts")
    p.add_argument("--controlled", default="p,v")
    p.add_argument("--csv-out", help="write the ROC curve as CSV")
    _add_common(p, data=False)
    p.set_defaults(func=_cmd_roc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ShapeguardError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
