"""Workloads, correctness checks, quality metrics and per-layer probes.

Every workload runs the paper's corpus-validation job: one
``validation.validate_dataset`` call per dataset, closed loop, one caller.
The four workloads differ only in the fitting algorithm, which moves the work
onto different layers (see WORKLOADS).
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import random
from collections import defaultdict
from pathlib import Path

from tracer import self_times

# name -> (algorithm, datasets per pass); BENCHMARK.json says why each exists.
# On a 2-core x86 box a pass takes about 8 s (scpr), 5 s (pr), 8 s (gbt) and
# 10 s (scsr), so a 25 s run makes two to five passes and each dataset's time
# is a median over them.  Five datasets hold one of each kind (valid and the
# four error kinds); scpr takes eight so that its median falls among the
# cheap datasets rather than in the gap between cheap and costly ones; scsr
# keeps two, one valid and one outlier, because one of its datasets takes
# 4-6 s.
WORKLOADS = {
    "validate_scpr": ("scpr", 8),
    "validate_pr": ("pr", 20),
    "validate_gbt": ("gbt", 5),
    "validate_scsr": ("scsr", 2),
}

THRESHOLD = 0.05
CONTROLLED = ["p", "v"]
TARGET = "mu_dyn"
N_VALID, N_INVALID = 18, 35  # the paper's corpus mix
N_SEGMENTS = 16  # 4 p-levels x 4 v-levels
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
SOLVE_MAX_ITER = 50000  # solve_elastic_net's default iteration budget


def algorithm_config(sg, algorithm: str):
    if algorithm in ("pr", "scpr"):
        return sg.SCPRConfig(degree=3, lam=1e-6)
    if algorithm == "gbt":
        return sg.GBTConfig()
    return sg.GAConfig(population=150, max_generations=100)


def interleave(corpus) -> list:
    """Order datasets so that every prefix holds the kinds in corpus proportion."""
    by_kind: dict = {}
    for ds in corpus:
        by_kind.setdefault(ds.error_kind or "valid", []).append(ds)
    keyed = []
    for rank, group in enumerate(by_kind.values()):
        for j, ds in enumerate(group):
            keyed.append(((j + 0.5) / len(group), rank, ds))
    keyed.sort(key=lambda item: item[:2])
    return [ds for _, _, ds in keyed]


def timed_set(corpus, n: int, seed: int) -> list:
    """The first ``n`` datasets of the interleaved corpus, shuffled by ``seed``."""
    chosen = interleave(corpus)[:n]
    random.Random(seed).shuffle(chosen)
    return chosen


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def check_report(report, algorithm: str, constraint_names) -> list:
    """Problems with one ValidationReport; an empty list means it passes."""
    problems = []
    rmses = list(report.segment_rmses)
    if report.verdict not in ("valid", "invalid"):
        problems.append(f"verdict {report.verdict!r}")
    if len(rmses) != N_SEGMENTS:
        problems.append(f"{len(rmses)} segments, expected {N_SEGMENTS}")
    if not all(math.isfinite(r) for r in rmses):
        problems.append("non-finite segment RMSE")
    if not rmses or report.score != max(rmses):
        problems.append("score is not the largest segment RMSE")
    if algorithm in ("pr", "scpr"):
        entries = (report.certification or {}).get("constraints", [])
        described = sorted(e.get("constraint") for e in entries)
        if described != sorted(constraint_names):
            problems.append("certification does not hold one entry per constraint")
        verdicts = {e.get("verdict") for e in entries}
        if not verdicts <= {"CERTIFIED", "VIOLATED", "UNDECIDED"}:
            problems.append(f"certification verdicts {sorted(map(str, verdicts))}")
    return problems


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def auc_pair_count(scores, labels) -> float:
    """Mann-Whitney AUC: share of (invalid, valid) pairs ranked correctly, ties half.

    ``invalid`` is the positive class.  Scores may be +inf (failed datasets).
    """
    pos = sorted(s for s, l in zip(scores, labels) if l == "invalid")
    neg = [s for s, l in zip(scores, labels) if l == "valid"]
    if not pos or not neg:
        raise ValueError("AUC needs both labels present")
    wins = 0.0
    for s in neg:
        below, not_above = bisect.bisect_left(pos, s), bisect.bisect_right(pos, s)
        wins += (len(pos) - not_above) + 0.5 * (not_above - below)
    return wins / (len(pos) * len(neg))


def percentile(ordered, pct: float) -> float:
    """Linear interpolation between closest ranks, so percentile 50 is the median."""
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked strictly above the ``pct`` percentile of ``n``."""
    return n - 1 - math.ceil(pct / 100.0 * (n - 1))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    Below 41 samples no ladder step qualifies and the median (percentile 50)
    stands in for the tail; the report states how many samples lie beyond.
    """
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= 10:
            return pct
    return 50.0


def latency_summary(durations) -> dict:
    ordered = sorted(durations)
    pct = tail_percentile(len(ordered))
    return {
        "p50": percentile(ordered, 50.0),
        "tail": percentile(ordered, pct),
        "tail_percentile": pct,
        "samples": len(ordered),
        "samples_beyond_tail": samples_beyond(len(ordered), pct),
    }


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# A shared machine's CPU speed drifts by a quarter over tens of seconds, and a
# whole run can fall in a slow phase, so wall times of separate runs spread
# wider than any bound a timing may carry.  Each timed interval is therefore
# bracketed by a fixed reference computation that uses no shapeguard code,
# and the gated timings are wall seconds scaled to the speed at which the
# reference takes REF_NOMINAL_S.  Raw wall seconds are reported beside them.
REF_NOMINAL_S = 0.00186  # reference_s() on a quiet 2-core x86 box
_ref_inputs: list = []


def reference_s() -> float:
    """Seconds a fixed mix of interpreter, array and small-BLAS work takes now.

    Best of three, so that an interrupt during one of them does not count.
    """
    import time

    import numpy as np

    if not _ref_inputs:
        _ref_inputs.extend(
            [np.linspace(0.0, 1.0, 50_000), np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48) / 48]
        )
    vector, matrix = _ref_inputs
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        v = vector
        for _ in range(4):
            v = np.sqrt(v * v + 1.0)
        m = matrix
        for _ in range(20):
            m = np.tanh(m @ matrix)
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds scaled to the machine speed at which reference_s() is nominal."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path, seed: int, corpus_seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = root / "src" / "shapeguard"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # unset means OpenBLAS's default of one thread per CPU
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "seed": seed,
        "corpus_seed": corpus_seed,
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# per-layer probes
# ---------------------------------------------------------------------------


def _solve_counts(tracer, args, kwargs, result):
    tracer.count("scpr.solve_iters", result.iterations)
    A = kwargs.get("A", args[4] if len(args) > 4 else None)
    tracer.count("scpr.solve_rows", 0 if A is None else A.shape[0])


def _solve_failed(tracer, args, kwargs, exc):
    # a solve that gives up has spent its whole budget; counting nothing would
    # let a fix that makes it converge read as more iterations, not fewer
    tracer.count("scpr.solve_failed")
    tracer.count("scpr.solve_iters", kwargs.get("max_iter", SOLVE_MAX_ITER))


def _compile_rows(tracer, args, kwargs, system):
    tracer.count("scpr.compile_rows", len(system.rows))


def _fit_violation(tracer, args, kwargs, result):
    tracer.maximum("scpr.fit_violation_max", result[1].max_sampled_violation)


def _certify_counts(tracer, args, kwargs, report):
    for entry in report.entries:
        tracer.count("certify.constraints")
        tracer.count("certify.boxes", entry.boxes_examined)
        tracer.count(f"certify.{entry.verdict.lower()}")


def _points(tracer, args, kwargs, values):
    tracer.count("poly.evaluate_columns_points", len(values))


def _leaves(node) -> int:
    return 1 if node.is_leaf else _leaves(node.left) + _leaves(node.right)


def _gbt_counts(tracer, args, kwargs, ensemble):
    tracer.count("gbt.trees", len(ensemble.trees))
    tracer.count("gbt.leaves", sum(_leaves(t) for t in ensemble.trees))


def _individuals(tracer, args, kwargs, history):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    tracer.count("scsr.individuals", len(history) * config.population)


def _feasible(tracer, args, kwargs, result):
    tracer.count("scsr.feasible", 1 if result[0] else 0)


def install_probes(tracer) -> None:
    """Wrap each layer's public functions at the name its caller resolves."""
    from shapeguard import gbt, poly, scpr, scsr, validation

    probes = [
        (validation, "segment", "validation.segment", "validation", None, None),
        (validation, "score_segments", "validation.score_segments", "validation", None, None),
        (validation, "scale_unit", "datasets.scale_unit", "datasets", None, None),
        (validation, "run_certification", "certify.certify", "certify", _certify_counts, None),
        (scpr, "fit_constrained", "scpr.fit_constrained", "scpr", _fit_violation, None),
        (scpr, "fit_unconstrained", "scpr.fit_unconstrained", "scpr", _fit_violation, None),
        (scpr, "build_design_matrix", "scpr.build_design_matrix", "scpr", None, None),
        (scpr, "compile_constraints", "scpr.compile_constraints", "scpr", _compile_rows, None),
        (scpr, "solve_elastic_net", "scpr.solve_elastic_net", "scpr", _solve_counts, _solve_failed),
        (poly.PolyModel, "evaluate_columns", "poly.evaluate_columns", "poly", _points, None),
        (poly.PolyModel, "interval_bound", "poly.interval_bound", "poly", None, None),
        (poly.PolyModel, "evaluate", "poly.evaluate", "poly", None, None),
        (poly.PolyModel, "derivative", "poly.derivative", "poly", None, None),
        (gbt, "fit_gbt", "gbt.fit_gbt", "gbt", _gbt_counts, None),
        (gbt, "predict_gbt", "gbt.predict_gbt", "gbt", None, None),
        (scsr, "evolve", "scsr.evolve", "scsr", _individuals, None),
        (scsr, "eval_tree_columns", "scsr.eval_tree_columns", "scsr", None, None),
        (scsr, "check_constraints", "scsr.check_constraints", "scsr", _feasible, None),
    ]
    for owner, attr, name, layer, on_result, on_error in probes:
        tracer.wrap(owner, attr, name, layer, on_result, on_error)


LAYERS = ("validation", "datasets", "scpr", "certify", "poly", "gbt", "scsr")


def span_stats(spans):
    """Total time and calls per span name, and self time per name and per layer."""
    time_by, calls_by, self_by = defaultdict(float), defaultdict(int), defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        _, _, name, layer, start, end, _ = span
        time_by[name] += end - start
        calls_by[name] += 1
        self_by[name] += own
        self_by["layer:" + layer] += own
    return time_by, calls_by, self_by


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    A metric whose function was not found to wrap is left out; its probe
    name is listed in ``tracer.absent``.
    """
    t, n, own = span_stats(tracer.spans)
    c = tracer.counts
    out = {}

    def put(metric, unit, probe, value):
        if probe not in tracer.absent:
            out[metric] = (value, unit)

    def ratio(num, den):
        return num / den if den else 0.0

    solve, fits = "scpr.solve_elastic_net", ("scpr.fit_constrained", "scpr.fit_unconstrained")
    put("scpr.solve_s", "s", solve, t[solve])
    put("scpr.solve_calls", "count", solve, n[solve])
    put("scpr.solve_iters", "count", solve, c["scpr.solve_iters"])
    put("scpr.solve_rows", "count", solve, c["scpr.solve_rows"])
    put("scpr.solve_failed", "count", solve, c["scpr.solve_failed"])
    put("scpr.compile_s", "s", "scpr.compile_constraints", t["scpr.compile_constraints"])
    put("scpr.compile_rows", "count", "scpr.compile_constraints", c["scpr.compile_rows"])
    put("scpr.design_s", "s", "scpr.build_design_matrix", t["scpr.build_design_matrix"])
    put("scpr.fit_self_s", "s", fits[0], own[fits[0]] + own[fits[1]])
    put("scpr.fit_violation_max", "ratio", fits[0], tracer.maxima.get("scpr.fit_violation_max", 0.0))

    cert = "certify.certify"
    decided = c["certify.certified"] + c["certify.violated"]
    put("certify.s", "s", cert, t[cert])
    for key in ("constraints", "boxes", "certified", "violated", "undecided"):
        put(f"certify.{key}", "count", cert, c[f"certify.{key}"])
    put("certify.decided_frac", "ratio", cert, ratio(decided, c["certify.constraints"]))

    for fn in ("evaluate_columns", "interval_bound", "evaluate", "derivative"):
        put(f"poly.{fn}_s", "s", f"poly.{fn}", t[f"poly.{fn}"])
        put(f"poly.{fn}_calls", "count", f"poly.{fn}", n[f"poly.{fn}"])
    put("poly.evaluate_columns_points", "count", "poly.evaluate_columns",
        c["poly.evaluate_columns_points"])

    put("gbt.fit_s", "s", "gbt.fit_gbt", t["gbt.fit_gbt"])
    put("gbt.predict_s", "s", "gbt.predict_gbt", t["gbt.predict_gbt"])
    put("gbt.trees", "count", "gbt.fit_gbt", c["gbt.trees"])
    put("gbt.leaves", "count", "gbt.fit_gbt", c["gbt.leaves"])

    check = "scsr.check_constraints"
    put("scsr.evolve_s", "s", "scsr.evolve", t["scsr.evolve"])
    put("scsr.evolve_self_s", "s", "scsr.evolve", own["scsr.evolve"])
    put("scsr.individuals", "count", "scsr.evolve", c["scsr.individuals"])
    put("scsr.eval_tree_columns_s", "s", "scsr.eval_tree_columns", t["scsr.eval_tree_columns"])
    put("scsr.eval_tree_columns_calls", "count", "scsr.eval_tree_columns",
        n["scsr.eval_tree_columns"])
    put("scsr.check_constraints_s", "s", check, t[check])
    put("scsr.check_constraints_calls", "count", check, n[check])
    put("scsr.feasible_frac", "ratio", check, ratio(c["scsr.feasible"], n[check]))

    put("validation.segment_s", "s", "validation.segment", t["validation.segment"])
    put("validation.score_s", "s", "validation.score_segments", t["validation.score_segments"])
    put("datasets.scale_unit_s", "s", "datasets.scale_unit", t["datasets.scale_unit"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (own["layer:" + layer], "s")
    return out
