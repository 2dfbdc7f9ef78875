"""Corpus-validation benchmark for shapeguard.

Runs the paper's job -- validate a labeled friction corpus, one
``validate_dataset`` call per dataset, closed loop, one caller, one process --
with one fitting algorithm per workload, checks every report, and prints the
metrics.  Run from the repository root:

    python3 perfbench/run.py --workload validate_scpr --seed 3 --seconds 25 --trace 0

Every run validates the same datasets: the first datasets of the paper corpus
(make_corpus seed 0, 18 valid : 35 invalid, kinds interleaved), as many as the
workload's pass size.  ``--seed`` shuffles their order.  The corpus stays
fixed because per-dataset cost is heavy-tailed: a new corpus per seed would
make the run-to-run spread a property of the data, not of the program.
``--corpus-seed`` validates another corpus; ``--full`` validates the whole
corpus once, ignoring ``--seconds`` (used for the quality baseline).

A run validates its datasets in passes, at least two and more while the
next pass is expected to end within ``--seconds``.  Each dataset's time is
its median over the passes.  Every timed interval is bracketed by a fixed
reference computation, and the gated timings are scaled to the machine speed
at which it is nominal (see ``bench.at_reference_speed``); the raw wall
timings are printed and reported beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced ones, which put a span around each call into a
layer's public functions, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import bench
from tracer import Tracer, self_times

T_START = time.perf_counter()  # import_s runs from here to shapeguard imported
ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5  # the import in this process and four in fresh interpreters
MIN_PASSES = 2


@dataclass
class Outcome:
    name: str
    label: str
    score: float
    verdict: str
    error: str | None
    problems: list
    seconds: float
    ref_seconds: float  # seconds at the reference machine speed
    certification: dict | None


class Stopwatch:
    """Times a block in wall seconds and in seconds at the reference speed."""

    def __enter__(self):
        self.ref_before = bench.reference_s()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        self.ref_seconds = bench.at_reference_speed(
            self.seconds, self.ref_before, bench.reference_s()
        )
        return False


def load_shapeguard():
    """Import shapeguard from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "shapeguard" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import shapeguard

    if Path(shapeguard.__file__).resolve().parent != src / "shapeguard":
        return None
    return shapeguard


IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import shapeguard
print(time.perf_counter() - t0)
"""


def fresh_import_s() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import shapeguard from this checkout.

    Returns wall seconds and seconds at the reference speed.
    """
    with Stopwatch() as sw:
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
    seconds = float(out.stdout)
    return seconds, seconds * sw.ref_seconds / sw.seconds


def set_up(sg, algorithm: str, corpus_seed: int):
    """Constraint parse, corpus generation and one warm-up validation."""
    from importlib.resources import files

    with Stopwatch() as sw:
        t0 = time.perf_counter()
        spec = sg.parse_constraints((files(sg) / "resources" / "eq1.spec").read_text())
        t1 = time.perf_counter()
        corpus = sg.make_corpus(bench.N_VALID, bench.N_INVALID, seed=corpus_seed)
        t2 = time.perf_counter()
        config = sg.ValidationConfig(
            threshold=bench.THRESHOLD,
            controlled_variables=list(bench.CONTROLLED),
            algorithm=algorithm,
            algorithm_config=bench.algorithm_config(sg, algorithm),
            constraints=list(spec.constraints),
            target=bench.TARGET,
        )
        # the corpus uses derived seeds corpus_seed ^ i for i < 53, so this one is outside it
        warm = sg.synth_generate("friction_valid", corpus_seed ^ (bench.N_VALID + bench.N_INVALID))
        # ten GA generations or ten trees run the same code as the full fit; five
        # full fits would make set-up as long as the timed passes
        warm_config, fit = config, config.algorithm_config
        if algorithm == "scsr":
            warm_config = replace(config, algorithm_config=replace(fit, max_generations=10))
        elif algorithm == "gbt":
            warm_config = replace(config, algorithm_config=replace(fit, n_trees=10))
        sg.validate_dataset(warm, warm_config)
        t3 = time.perf_counter()
    times = {
        "parse_s": t1 - t0, "corpus_s": t2 - t1, "warmup_s": t3 - t2, "total_s": t3 - t0,
        "total_ref_s": sw.ref_seconds,
    }
    return spec, corpus, config, times


def validate_pass(sg, datasets, config, constraint_names, tracer=None, pass_index=0) -> list:
    validate = sg.validate_dataset
    if tracer is not None:
        validate = partial(tracer.call, "validation.validate_dataset", "validation", validate)
    outcomes = []
    for ds in datasets:
        if tracer is not None:
            tracer.request = f"{pass_index}/{ds.name}"
        with Stopwatch() as sw:
            try:
                report = validate(ds, config)
            except Exception as exc:  # a failed dataset is counted, as validate_corpus does
                report, error = None, f"{type(exc).__name__}: {exc}"
        times = (sw.seconds, sw.ref_seconds)
        if report is None:
            outcome = Outcome(ds.name, ds.label, math.inf, "invalid", error, [], *times, None)
        else:
            problems = bench.check_report(report, config.algorithm, constraint_names)
            outcome = Outcome(
                ds.name, ds.label, report.score, report.verdict, None, problems, *times,
                report.certification,
            )
        outcomes.append(outcome)
    return outcomes


def same_results(a: list, b: list) -> bool:
    return [(o.name, o.score, o.verdict, o.error) for o in a] == [
        (o.name, o.score, o.verdict, o.error) for o in b
    ]


def quality(outcomes: list) -> dict:
    labels = [o.label for o in outcomes]
    counts = {"CERTIFIED": 0, "VIOLATED": 0, "UNDECIDED": 0}
    for o in outcomes:
        for entry in (o.certification or {}).get("constraints", []):
            counts[entry["verdict"]] = counts.get(entry["verdict"], 0) + 1
    return {
        "auc": bench.auc_pair_count([o.score for o in outcomes], labels),
        "verdict_accuracy": statistics.fmean(o.verdict == o.label for o in outcomes),
        "datasets": len(outcomes),
        "valid": labels.count("valid"),
        "invalid": labels.count("invalid"),
        "errors": {o.name: o.error for o in outcomes if o.error},
        "problems": {o.name: o.problems for o in outcomes if o.problems},
        "certify_verdicts": counts,
    }


def trace_pass(sg, datasets, config, constraint_names, tracer, pass_index: int) -> list:
    bench.install_probes(tracer)
    try:
        return validate_pass(sg, datasets, config, constraint_names, tracer, pass_index)
    finally:
        tracer.restore()


def self_time_residual(tracer) -> float:
    """Largest |sum of span self times - root span duration| over datasets."""
    own = self_times(tracer.spans)
    per_request: dict = {}
    roots: dict = {}
    for span, s in zip(tracer.spans, own):
        per_request[span[6]] = per_request.get(span[6], 0.0) + s
        if span[1] is None:
            roots[span[6]] = span[5] - span[4]
    return max((abs(per_request[r] - roots[r]) for r in roots), default=0.0)


def timing_metrics(setup_s: float, per_dataset: list) -> tuple[dict, dict]:
    latency = bench.latency_summary(per_dataset)
    return latency, {
        "setup_s": (setup_s, "s"),
        "datasets_per_s": (len(per_dataset) / sum(per_dataset), "1/s"),
        "dataset_s_p50": (latency["p50"], "s"),
        "dataset_s_tail": (latency["tail"], "s"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="validate the whole corpus once")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sg = load_shapeguard()
    if sg is None:
        print(f"error: shapeguard sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one import is too short to time steadily on a shared machine
    import_s = time.perf_counter() - T_START
    ref = bench.reference_s()
    imports = [(import_s, bench.at_reference_speed(import_s, ref, ref))]
    imports += [fresh_import_s() for _ in range(IMPORT_REPEATS - 1)]
    import_s = statistics.median(wall for wall, _ in imports)
    import_ref_s = statistics.median(at_ref for _, at_ref in imports)
    algorithm, pass_size = bench.WORKLOADS[args.workload]

    setups = [set_up(sg, algorithm, args.corpus_seed) for _ in range(SETUP_REPEATS)]
    spec, corpus, config, _ = setups[-1]
    setup_times = {k: statistics.median(s[3][k] for s in setups) for k in setups[0][3]}
    constraint_names = [c.describe() for c in spec.constraints]
    datasets = list(corpus) if args.full else bench.timed_set(corpus, pass_size, args.seed)

    tracer = Tracer() if args.trace else None
    # a traced run measures untraced-and-traced pairs; one pair is enough,
    # as per-layer metrics have no bound
    min_rounds = 1 if tracer is not None else MIN_PASSES
    passes, traced = [], []
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        passes.append(validate_pass(sg, datasets, config, constraint_names))
        if tracer is not None:
            # traced passes alternate with untraced ones, so that a slow phase
            # of a shared machine falls on both sides of the overhead estimate
            traced.append(
                trace_pass(sg, datasets, config, constraint_names, tracer, len(traced))
            )
        now = time.perf_counter()
        if args.full or (len(passes) >= min_rounds and (now - t0) + (now - tp) > args.seconds):
            break
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for p in passes for o in p]
    first = passes[0]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.error or o.problems)
    correct = not any(o.problems for o in outcomes) and all(
        same_results(first, p) for p in passes[1:]
    )
    # each dataset's time is its median over the passes, which discards the
    # passes that a burst of load from outside the process happened to slow
    def per_dataset(runs, field="ref_seconds"):
        return [statistics.median(getattr(p[i], field) for p in runs) for i in range(len(first))]

    latency, metrics = timing_metrics(
        import_ref_s + setup_times["total_ref_s"], per_dataset(passes)
    )
    _, wall = timing_metrics(import_s + setup_times["total_s"], per_dataset(passes, "seconds"))
    q = quality(first)
    metrics.update({
        "auc": (q["auc"], "ratio"),
        "verdict_accuracy": (q["verdict_accuracy"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })
    report = {
        "workload": args.workload,
        "algorithm": algorithm,
        "environment": bench.fingerprint(ROOT, args.seed, args.corpus_seed),
        "passes": len(passes),
        "pass_datasets": len(datasets),
        "elapsed_s": elapsed,
        "error_rate": failed / attempted,
        "latency": latency,
        "dataset_seconds": {o.name: [p[i].seconds for p in passes] for i, o in enumerate(first)},
        "machine_speed": statistics.median(o.ref_seconds / o.seconds for o in outcomes),
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "quality": q,
        "setup": dict(
            setup_times, import_s=import_s, import_ref_s=import_ref_s, repeats=SETUP_REPEATS,
            import_repeats=IMPORT_REPEATS,
        ),
    }
    shown = {
        "error_rate": (failed / attempted, "ratio"),
        **metrics,
        **{"wall." + k: v for k, v in wall.items()},
    }

    if tracer is not None:
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        traced_s, untraced_s = sum(per_dataset(traced)), sum(per_dataset(passes))
        residual = self_time_residual(tracer)
        correct = (
            correct
            and all(same_results(first, p) for p in traced)
            and residual <= 1e-9 * sum(per_dataset(traced, "seconds"))
        )
        # per-layer numbers are per pass over the timed set, averaged over the traced passes
        metrics = {
            k: (v / len(traced) if u in ("s", "count") else v, u)
            for k, (v, u) in bench.layer_metrics(tracer).items()
        }
        metrics.update(
            {
                "synth.make_corpus_s": (setup_times["corpus_s"], "s"),
                "constraints.parse_s": (setup_times["parse_s"], "s"),
                "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
                "trace.datasets": (len(datasets), "count"),
                "trace.spans": (len(tracer.spans) / len(traced), "count"),
            }
        )
        report["trace"] = {
            "passes": len(traced),
            "absent": sorted(tracer.absent),
            "untraced_ref_s": untraced_s,
            "traced_ref_s": traced_s,
            "self_time_residual_max_s": residual,
        }
        shown = metrics

    report["correct"] = correct
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    for name, (value, unit) in shown.items():
        print(f"{args.workload:15s} {name:32s} {value:14.6g} {unit}")
    print(json.dumps(report))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
