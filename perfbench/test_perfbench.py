"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import inspect
import math
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _pair_oracle(scores, labels):
    """The criterion-05 oracle: every (invalid, valid) pair, ties count half."""
    pos = [s for s, l in zip(scores, labels) if l == "invalid"]
    neg = [s for s, l in zip(scores, labels) if l == "valid"]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (len(pos) * len(neg))


def test_auc_matches_pair_oracle_on_tied_scores():
    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 60))
        # quantized scores so ties occur routinely; +inf marks a failed dataset
        scores = np.round(rng.uniform(0, 1, size=n), 1).tolist()
        scores = [math.inf if rng.uniform() < 0.1 else s for s in scores]
        labels = rng.choice(["valid", "invalid"], size=n).tolist()
        if "valid" not in labels or "invalid" not in labels:
            continue
        assert abs(bench.auc_pair_count(scores, labels) - _pair_oracle(scores, labels)) <= 1e-12
        checked += 1
    assert checked > 100


def test_auc_needs_both_labels():
    with pytest.raises(ValueError):
        bench.auc_pair_count([0.1, 0.2], ["valid", "valid"])


@pytest.mark.parametrize(
    "n, pct",
    [(1, 50.0), (12, 50.0), (40, 50.0), (41, 75.0), (53, 75.0), (100, 75.0), (101, 90.0),
     (201, 95.0), (1001, 99.0)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct):
    assert bench.tail_percentile(n) == pct
    if pct > 50.0:
        assert bench.samples_beyond(n, pct) >= 10
        higher = [p for p in bench.TAIL_LADDER if p > pct]
        assert all(bench.samples_beyond(n, p) < 10 for p in higher)


def test_latency_summary_counts_samples_beyond_tail():
    durations = [float(i) for i in range(53, 0, -1)]
    s = bench.latency_summary(durations)
    assert s["p50"] == statistics.median(durations)
    assert s["tail_percentile"] == 75.0
    assert sum(1 for d in durations if d > s["tail"]) == s["samples_beyond_tail"] == 13


def test_reference_speed_scales_wall_time_by_machine_speed():
    nominal = bench.REF_NOMINAL_S
    assert bench.at_reference_speed(3.0, nominal, nominal) == pytest.approx(3.0)
    # on a machine half as fast, both the interval and the reference take twice as long
    assert bench.at_reference_speed(6.0, 2 * nominal, 2 * nominal) == pytest.approx(3.0)
    assert bench.at_reference_speed(6.0, nominal, 3 * nominal) == pytest.approx(3.0)
    assert bench.reference_s() > 0.0


def _span(i, parent, start, end, name="f", layer="l", request="r"):
    return (i, parent, name, layer, start, end, request)


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 6.0),
        _span(4, 0, 5.5, 7.0),  # overlaps its sibling: covered once, not twice
    ]
    own = self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5])


def test_self_times_of_a_request_sum_to_its_wall_time():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=lambda: float(clock()))

    def leaf():
        return 1

    def mid():
        return tracer.call("leaf", "b", leaf) + tracer.call("leaf", "b", leaf)

    tracer.call("root", "a", lambda: tracer.call("mid", "a", mid))
    root = next(s for s in tracer.spans if s[1] is None)
    assert sum(self_times(tracer.spans)) == pytest.approx(root[5] - root[4])


def test_recursive_function_gets_outermost_span_only():
    from shapeguard import scsr

    tree = ("add", ("mul", ("var", "x"), ("var", "x")), ("neg", ("const", 2.0)))
    cols = {"x": np.array([1.0, 2.0, 3.0])}
    expected = scsr.eval_tree_columns(tree, cols)
    tracer = Tracer()
    tracer.wrap(scsr, "eval_tree_columns", "scsr.eval_tree_columns", "scsr")
    try:
        got = scsr.eval_tree_columns(tree, cols)
        scsr.eval_tree_columns(tree, cols)
    finally:
        tracer.restore()
    np.testing.assert_array_equal(got, expected)
    assert [s[2] for s in tracer.spans] == ["scsr.eval_tree_columns"] * 2
    assert all(s[1] is None for s in tracer.spans)


def test_wrapper_records_span_and_reraises():
    ns = SimpleNamespace(fail=lambda: 1 / 0)
    errors = []
    tracer = Tracer()
    tracer.wrap(ns, "fail", "ns.fail", "ns", on_error=lambda t, a, k, exc: errors.append(exc))
    with pytest.raises(ZeroDivisionError):
        ns.fail()
    tracer.restore()
    assert len(tracer.spans) == 1 and len(errors) == 1


def test_failed_solve_counts_its_whole_iteration_budget():
    from shapeguard import scpr

    def solve(X, y, lam, alpha, A=None, b=None, *, max_iter=bench.SOLVE_MAX_ITER):
        raise RuntimeError("did not converge")

    ns = SimpleNamespace(solve=solve)
    tracer = Tracer()
    tracer.wrap(ns, "solve", "scpr.solve_elastic_net", "scpr", bench._solve_counts,
                bench._solve_failed)
    for kwargs in ({"max_iter": 700}, {}):
        with pytest.raises(RuntimeError):
            ns.solve(None, None, 0.0, 0.0, **kwargs)
    assert tracer.counts["scpr.solve_failed"] == 2
    assert tracer.counts["scpr.solve_iters"] == 700 + bench.SOLVE_MAX_ITER
    default = inspect.signature(scpr.solve_elastic_net).parameters["max_iter"].default
    assert bench.SOLVE_MAX_ITER == default


def _probe_targets():
    from shapeguard import gbt, poly, scpr, scsr, validation

    owners = (validation, scpr, gbt, scsr, poly.PolyModel)
    return {(id(o), name): (o, vars(o).get(name)) for o in owners for name in vars(o)}


def test_restore_puts_back_every_wrapped_function():
    before = _probe_targets()
    tracer = Tracer()
    bench.install_probes(tracer)
    changed = [k for k, (o, v) in before.items() if vars(o).get(k[1]) is not v]
    assert len(changed) == 18 and not tracer.absent
    tracer.restore()
    assert all(vars(o).get(k[1]) is v for k, (o, v) in before.items())


def test_restore_removes_wrapper_of_inherited_method():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "f", "child.f", "c")
    assert Child().f() == "base" and "f" in vars(Child)
    tracer.restore()
    assert "f" not in vars(Child) and Child.f is Base.f


def test_missing_function_is_reported_absent_not_an_error():
    tracer = Tracer()
    assert not tracer.wrap(SimpleNamespace(), "gone", "scpr.solve_elastic_net", "scpr")
    metrics = bench.layer_metrics(tracer)
    assert tracer.absent == {"scpr.solve_elastic_net"}
    assert "scpr.solve_s" not in metrics and "scpr.solve_iters" not in metrics
    assert "scpr.compile_s" in metrics and metrics["scpr.self_s"] == (0.0, "s")


def _report(rmses, score=None, certification=None, verdict="valid"):
    return SimpleNamespace(
        segment_rmses=rmses,
        score=max(rmses) if score is None else score,
        verdict=verdict,
        certification=certification,
    )


def test_check_report():
    names = ["a", "b"]
    cert = {"constraints": [{"constraint": "a", "verdict": "CERTIFIED"},
                            {"constraint": "b", "verdict": "VIOLATED"}]}
    good = [0.01 * i for i in range(16)]
    assert bench.check_report(_report(good, certification=cert), "scpr", names) == []
    assert bench.check_report(_report(good), "gbt", names) == []
    assert bench.check_report(_report(good), "pr", names)  # certification missing
    dup = {"constraints": cert["constraints"][:1] * 2}
    assert bench.check_report(_report(good, certification=dup), "scpr", names)
    assert bench.check_report(_report(good[:15]), "gbt", names)
    assert bench.check_report(_report(good, score=0.5), "gbt", names)
    assert bench.check_report(_report(good[:15] + [math.nan]), "gbt", names)
    assert bench.check_report(_report(good, verdict="maybe"), "gbt", names)


def test_interleave_keeps_corpus_proportions_in_every_prefix():
    from shapeguard import make_corpus

    order = bench.interleave(make_corpus(18, 35, seed=0))
    first = order[:12]
    assert sum(ds.label == "valid" for ds in first) == 4
    assert {ds.error_kind for ds in first} == {None, "outlier", "stuck", "drift", "inverted"}
    shuffled = [ds.name for ds in bench.timed_set(make_corpus(18, 35, seed=0), 12, seed=3)]
    assert shuffled != [ds.name for ds in first]
    assert sorted(shuffled) == sorted(ds.name for ds in first)
