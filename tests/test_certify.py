"""Certification: verdict correctness and Bernstein-bound soundness."""

import itertools
import math
import warnings
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from shapeguard import (
    ConfigError,
    Interval,
    PolyModel,
    SCPRConfig,
    ShapeConstraint,
    certify,
    fit_unconstrained,
    make_corpus,
    monomial_basis,
    parse_constraints,
    scale_unit,
)
from shapeguard.poly import _bernstein_matrix, _first_box, _gamma, _terms


def region1d(lo=-1.0, hi=1.0):
    return {"x": Interval(lo, hi)}


def test_certified_monotone_cubic():
    # f = x^3 + 3x is strictly increasing: f' = 3x^2 + 3 >= 3
    model = PolyModel(("x",), 3, {(3,): 1.0, (1,): 3.0})
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region1d())]
    report = certify(model, cons)
    (entry,) = report.entries
    assert entry.verdict == "CERTIFIED"
    assert report.all_certified and not report.any_violated
    assert entry.enclosure.lo >= -1e-9


def test_violated_with_witness_point():
    # f = x^3 - x dips: f'(0) = -1
    model = PolyModel(("x",), 3, {(3,): 1.0, (1,): -1.0})
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region1d())]
    report = certify(model, cons)
    (entry,) = report.entries
    assert entry.verdict == "VIOLATED"
    assert entry.worst_violation == pytest.approx(1.0, abs=1e-3)
    x = entry.worst_point["x"]
    assert 3 * x**2 - 1 == pytest.approx(-entry.worst_violation, abs=1e-9)
    assert entry.enclosure.lo <= -1.0  # f'(0) = -1 lies inside the enclosure


def test_witness_is_the_breaching_corner():
    # g = 4 (x - 1/2)^2 - 1/2 is >= 0 at every corner until the second split
    # puts one at x = 1/2, inside the right half of [-1, 1]
    model = PolyModel(("x",), 2, {(2,): 4.0, (1,): -4.0, (0,): 0.5})
    cons = [ShapeConstraint({}, Interval(0.0, math.inf), region1d())]
    entry = certify(model, cons).entries[0]
    assert entry.verdict == "VIOLATED"
    assert entry.worst_point == {"x": 0.5}
    assert entry.worst_violation == 0.5


def test_touching_extremum_is_certified():
    # f = x^3 has f' = 3x^2 >= 0 with equality exactly at x = 0: the
    # bisection must close on the active point rather than give up
    model = PolyModel(("x",), 3, {(3,): 1.0})
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region1d())]
    report = certify(model, cons)
    assert report.entries[0].verdict == "CERTIFIED"


def test_value_constraint_two_sided():
    model = PolyModel(("x",), 2, {(2,): 1.0})  # x^2 on [-1,1] lies in [0,1]
    cons = [ShapeConstraint({}, Interval(0.0, 1.0), region1d())]
    assert certify(model, cons).entries[0].verdict == "CERTIFIED"
    cons = [ShapeConstraint({}, Interval(0.0, 0.5), region1d())]
    assert certify(model, cons).entries[0].verdict == "VIOLATED"


def test_second_derivative_constraint():
    model = PolyModel(("x",), 2, {(2,): 2.0, (1,): -1.0})  # f'' = 4 (convex)
    cons = [ShapeConstraint({"x": 2}, Interval(0.0, math.inf), region1d())]
    assert certify(model, cons).entries[0].verdict == "CERTIFIED"


def test_multivariate_mixed_constraints():
    # f = x^2 + y^2: df/dx >= 0 on x in [0,1], violated on x in [-1,0)
    model = PolyModel(("x", "y"), 2, {(2, 0): 1.0, (0, 2): 1.0})
    box_pos = {"x": Interval(0.0, 1.0), "y": Interval(-1.0, 1.0)}
    box_all = {"x": Interval(-1.0, 1.0), "y": Interval(-1.0, 1.0)}
    cons = [
        ShapeConstraint({"x": 1}, Interval(0.0, math.inf), box_pos),
        ShapeConstraint({"x": 1}, Interval(0.0, math.inf), box_all),
    ]
    report = certify(model, cons)
    assert report.entries[0].verdict == "CERTIFIED"
    assert report.entries[1].verdict == "VIOLATED"


def random_case(rng, n_vars):
    names = tuple(f"x{i}" for i in range(n_vars))
    degree = int(rng.integers(1, 5))
    basis = monomial_basis(n_vars, degree)
    coeffs = {a: float(c) for a, c in zip(basis, rng.normal(size=len(basis)))}
    model = PolyModel(names, degree, coeffs)
    region = {}
    for v in names:
        lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2))
        region[v] = Interval(lo, hi)
    var = names[int(rng.integers(n_vars))]
    order = int(rng.integers(0, 3))
    derivative = {var: order} if order else {}
    if rng.random() < 0.5:
        bound = Interval(float(rng.normal()), math.inf)
    else:
        bound = Interval(-math.inf, float(rng.normal()))
    return model, ShapeConstraint(derivative, bound, region)


def test_certified_soundness_random_sample():
    # smaller cousin of the acceptance-scale soundness sweep
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(80):
        n_vars = int(rng.integers(1, 3))
        model, c = random_case(rng, n_vars)
        entry = certify(model, [c]).entries[0]
        if entry.verdict != "CERTIFIED":
            continue
        checked += 1
        deriv = model.derivative(c.derivative_tuple(model.variables))
        axes = [
            np.linspace(c.region[v].lo, c.region[v].hi, 200 if n_vars == 1 else 60)
            for v in model.variables
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        cols = {v: m.ravel() for v, m in zip(model.variables, mesh)}
        vals = deriv.evaluate_columns(cols)
        if math.isfinite(c.bound.lo):
            assert vals.min() >= c.bound.lo - 1e-9
        if math.isfinite(c.bound.hi):
            assert vals.max() <= c.bound.hi + 1e-9
    assert checked > 10  # the sweep must actually exercise CERTIFIED verdicts


def test_report_serialization():
    model = PolyModel(("x",), 3, {(3,): 1.0, (1,): 3.0})
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region1d())]
    obj = certify(model, cons).to_dict()
    assert obj["all_certified"] is True
    assert obj["constraints"][0]["verdict"] == "CERTIFIED"
    assert len(obj["constraints"][0]["enclosure"]) == 2


def dense_values(model, c, per_dim):
    deriv = model.derivative(c.derivative_tuple(model.variables))
    axes = [np.linspace(c.region[v].lo, c.region[v].hi, per_dim) for v in model.variables]
    mesh = np.meshgrid(*axes, indexing="ij")
    return deriv, deriv.evaluate_columns({v: m.ravel() for v, m in zip(model.variables, mesh)})


def breach_at(deriv, c, point):
    value = deriv.evaluate(point)
    return max(c.bound.lo - value, value - c.bound.hi)


def assert_entry_sound(model, c, entry, per_dim):
    deriv, vals = dense_values(model, c, per_dim)
    slack = 1e-12 * (1.0 + float(np.abs(vals).max()))
    assert entry.enclosure.lo <= vals.min() + slack
    assert vals.max() - slack <= entry.enclosure.hi
    if entry.verdict == "VIOLATED":
        assert entry.worst_violation > 1e-9
        assert all(c.region[v].lo <= x <= c.region[v].hi for v, x in entry.worst_point.items())
        assert breach_at(deriv, c, entry.worst_point) == entry.worst_violation
    else:
        assert entry.worst_violation == 0.0 and entry.worst_point is None


def test_random_sweep_enclosures_and_witnesses():
    # every verdict's enclosure holds the sampled range and every VIOLATED
    # witness breaches; the small budget makes many sweeps stop early
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(60):
        model, c = random_case(rng, int(rng.integers(1, 3)))
        for max_boxes in (4000, 5):
            entry = certify(model, [c], max_boxes=max_boxes).entries[0]
            assert entry.boxes_examined <= max_boxes
            seen.add(entry.verdict)
            assert_entry_sound(model, c, entry, 60)
    assert seen == {"CERTIFIED", "VIOLATED", "UNDECIDED"}


def test_corpus_fit_witnesses_breach():
    text = resources.files("shapeguard.resources").joinpath("eq1.spec").read_text()
    constraints = parse_constraints(text).constraints
    violated = 0
    for ds in make_corpus(18, 35, seed=0)[:5]:
        scaled = scale_unit(ds, [c for c in ds.columns if c != "mu_dyn"])
        model, _ = fit_unconstrained(scaled, SCPRConfig(degree=3, lam=1e-6))
        for c, entry in zip(constraints, certify(model, constraints).entries):
            violated += entry.verdict == "VIOLATED"
            assert_entry_sound(model, c, entry, 30)
            if entry.verdict == "VIOLATED":
                # certify builds the derivative model only for a witness
                value = model.derivative(c.derivative_tuple(model.variables)).evaluate(entry.worst_point)
                assert max(c.bound.lo - value, value - c.bound.hi) == entry.worst_violation
    assert violated > 0


def exact_bernstein(model, wrt, lo, hi):
    """Bernstein coefficients on the box [lo, hi] of the model's exact
    wrt-derivative, in rationals, by index."""
    coeffs = {}
    for alpha, a in model.coeffs.items():
        if a != 0.0 and all(e >= k for e, k in zip(alpha, wrt)):
            factor = Fraction(a) * math.prod(math.perm(e, k) for e, k in zip(alpha, wrt))
            coeffs[tuple(e - k for e, k in zip(alpha, wrt))] = factor
    degrees = [max((a[i] for a in coeffs), default=0) for i in range(len(lo))]
    # per axis, x**j = sum_k C(j, k) lo**(j-k) width**k t**k, and t**k has
    # Bernstein coefficient C(m, k) / C(d, k) at index m
    axes = []
    for a, b, d in zip(lo, hi, degrees):
        a, width = Fraction(a), Fraction(b) - Fraction(a)
        axes.append([[
            sum(math.comb(j, k) * a ** (j - k) * width**k * Fraction(math.comb(m, k), math.comb(d, k)) for k in range(j + 1))
            for j in range(d + 1)] for m in range(d + 1)])
    return {
        m: sum(c * math.prod(axis[i][j] for axis, i, j in zip(axes, m, alpha)) for alpha, c in coeffs.items())
        for m in itertools.product(*(range(d + 1) for d in degrees))
    }


def assert_form_encloses_exact(model, wrt, lo, hi):
    """The first box's coefficients lie within their error bound of the exact
    rationals; returns them, the bound and the degrees."""
    coeffs, err, degrees = _first_box(*_terms(model), wrt, tuple(lo), tuple(hi))
    exact = exact_bernstein(model, wrt, lo, hi)
    assert err.shape == (1,) and coeffs.shape[1:] == tuple(d + 1 for d in degrees)
    for m, value in exact.items():
        assert abs(Fraction(float(coeffs[(0, *m)])) - value) <= Fraction(float(err[0]))
    return coeffs, err, degrees


def test_bernstein_coefficients_enclose_exact_rationals():
    rng = np.random.default_rng(11)
    for _ in range(40):
        model, c = random_case(rng, int(rng.integers(1, 4)))
        lo = [c.region[v].lo for v in model.variables]
        hi = [c.region[v].hi for v in model.variables]
        coeffs, err, _ = assert_form_encloses_exact(model, c.derivative_tuple(model.variables), lo, hi)
        assert err[0] <= 1e-12 * (1.0 + float(np.abs(coeffs).max()))  # the bound is not vacuous


def test_error_bound_covers_a_negative_lower_end():
    # on [lo, hi] with lo < 0 the |lo| matrices' entries reach (|lo| + hi -
    # lo)**j, not (|lo| + |hi|)**j: a bound from |lo| + |hi| misses this
    # form's exact coefficient of index 8 by a factor of about 3
    model = PolyModel(("x",), 8, {(j,): c for j, c in enumerate([
        1.2511284724790825e-11, 2.307964668705751e-09, 1.8626637473765573e-07, 8.590169221602506e-06,
        0.0002475990612895676, 0.004567475667216788, 0.05266032174648344, 0.3469386829199763, 1.0])})
    assert_form_encloses_exact(model, (0,), [-3.038458776175533], [0.14780222632663173])


def test_bernstein_forms_near_overflow_enclose_exact_rationals_or_give_up():
    # a form on a huge box is either finite and sound or not finite at all
    rng = np.random.default_rng(23)
    finite = 0
    for top in [1e60, 1e75, 1e76, 1e77, 1e100, 1e150, 1e154, 1e155, 1e300]:
        model, c = random_case(rng, 1)
        model = PolyModel(model.variables, 4, {(4,): 1.0, **model.coeffs})
        wrt = c.derivative_tuple(model.variables)
        coeffs, err, _ = _first_box(*_terms(model), wrt, (0.0,), (top,))
        if np.isfinite(err[0]) and np.isfinite(coeffs).all():
            finite += 1
            assert_form_encloses_exact(model, wrt, [0.0], [top])
        else:
            entry = certify(model, [ShapeConstraint(c.derivative, c.bound, {"x0": Interval(0.0, top)})]).entries[0]
            assert (entry.verdict, entry.enclosure) == ("UNDECIDED", Interval.whole())
    assert 0 < finite < 9


def reference_bernstein(model, wrt, lo, hi):
    """The Bernstein form built from the derivative model, term by term, and
    the error bound of that float path: sum(wrt) roundings in the derivative's
    coefficients, 3d + 2 per matrix entry and d + 1 per mode product."""
    deriv = model.derivative(wrt)
    degrees = [max((a[i] for a in deriv.coeffs), default=0) for i in range(len(lo))]
    dense = np.zeros([d + 1 for d in degrees])
    for alpha, c in deriv.coeffs.items():
        dense[alpha] = c
    radius = np.abs(lo) + (hi - lo)
    magnitude = sum(abs(c) * float(np.prod(radius ** np.array(a))) for a, c in deriv.coeffs.items())
    roundings = sum(wrt) + sum(4 * d + 3 for d in degrees)
    for axis, d in enumerate(degrees):
        matrix = _bernstein_matrix(lo[axis], hi[axis] - lo[axis], d)
        dense = np.moveaxis(np.tensordot(matrix, dense, axes=(1, axis)), 0, axis)
    return dense[None], _gamma(2 * roundings + 2) * magnitude, degrees


def test_bernstein_form_equals_the_derivative_model_reference():
    rng = np.random.default_rng(19)
    for _ in range(150):
        n_vars, degree = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        names = tuple(f"x{k}" for k in range(n_vars))
        basis = monomial_basis(n_vars, degree)
        # explicit zeros, of either sign, survive JSON and are dropped as
        # zero terms of the derivative
        values = rng.normal(size=len(basis)) * (rng.random(len(basis)) > 0.3) * rng.choice([1.0, -1.0])
        model = PolyModel.from_json(PolyModel(names, degree, dict(zip(basis, values.tolist()))).to_json())
        lo, hi = np.empty(n_vars), np.empty(n_vars)
        for k in range(n_vars):
            kind = rng.integers(3)
            if kind == 0:  # an axis of zero width
                lo[k] = hi[k] = rng.uniform(-3, 3)
            elif kind == 1:  # negative lo
                lo[k], hi[k] = sorted(rng.uniform(-3, 3, size=2))
            else:
                lo[k], hi[k] = sorted(rng.uniform(0.5, 7, size=2))
        wrt = tuple(int(k) for k in rng.integers(0, 3, size=n_vars) * (rng.random(n_vars) < 0.6))
        coeffs, err, degrees = assert_form_encloses_exact(model, wrt, lo.tolist(), hi.tolist())
        ref_coeffs, ref_err, ref_degrees = reference_bernstein(model, wrt, lo, hi)
        # the map rounds along another path than the reference by design, so
        # the two agree only within their error bounds, not bit for bit
        assert degrees == tuple(ref_degrees)
        assert err[0] <= 2.0 * ref_err
        assert np.all(np.abs(coeffs - ref_coeffs) <= err[0] + ref_err)


def test_overflowing_bernstein_form_is_undecided_without_warnings():
    # on [0, 1e308] the Bernstein matrix of degree 2 overflows, and x**3 on
    # [0, 1e103] does so too: the form is not finite, so nothing is decided
    model = PolyModel(("x",), 3, {(3,): -1.0, (1,): 1.0})
    c = ShapeConstraint({"x": 1}, Interval(-math.inf, 5.0), {"x": Interval(0.0, 1e308)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entry = certify(model, [c]).entries[0]
        assert model.interval_bound({"x": Interval(0.0, 1e103)}) == Interval.whole()
        assert model.interval_bound({"x": Interval(0.0, 1e102)}).is_finite()
    assert (entry.verdict, entry.enclosure) == ("UNDECIDED", Interval.whole())
    assert (entry.worst_violation, entry.worst_point, entry.boxes_examined) == (0.0, None, 1)

@pytest.mark.parametrize("max_boxes", [1, 2, 3, 64, 501])
def test_undecided_stays_within_box_budget(max_boxes):
    # f = 3x^3 - 3x^2 + x has f' = (3x - 1)^2, which touches 0 at the
    # non-dyadic x = 1/3: with tol 0 no box around it ever closes and no
    # corner breaches
    model = PolyModel(("x",), 3, {(3,): 3.0, (2,): -3.0, (1,): 1.0})
    exact = {e: Fraction(c) * e for (e,), c in model.coeffs.items()}
    assert (exact[3], exact[2], exact[1]) == (9, -6, 1)  # f' is (3x - 1)^2 in rationals
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region1d())]
    entry = certify(model, cons, tol=0.0, max_boxes=max_boxes).entries[0]
    assert entry.verdict == "UNDECIDED"
    assert 1 <= entry.boxes_examined <= max_boxes
    assert_entry_sound(model, cons[0], entry, 2001)


def test_violated_witness_of_a_rounded_tangent_is_an_exact_breach():
    # f = x^3 - x^2 + fl(1/3) x stores fl(1/3) < 1/3, so f' = 3x^2 - 2x +
    # fl(1/3) dips below 0 near x = 1/3: any VIOLATED witness is a true breach
    model = PolyModel(("x",), 3, {(3,): 1.0, (2,): -1.0, (1,): 1.0 / 3.0})
    assert Fraction(1.0 / 3.0) < Fraction(1, 3)
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region1d())]
    for max_boxes in [1, 2, 3, 64, 501, 2000, 20000]:
        entry = certify(model, cons, tol=0.0, max_boxes=max_boxes).entries[0]
        assert entry.verdict in ("UNDECIDED", "VIOLATED")
        if entry.verdict == "VIOLATED":
            x = Fraction(entry.worst_point["x"])
            assert 3 * x**2 - 2 * x + Fraction(1.0 / 3.0) < 0


@pytest.mark.parametrize("setting", [
    {"tol": -1.0}, {"tol": math.inf}, {"tol": math.nan}, {"max_boxes": 0},
], ids=["tol-negative", "tol-inf", "tol-nan", "max_boxes-0"])
def test_rejects_a_tolerance_or_box_budget_it_cannot_use(setting):
    # an infinite tol would certify any bound, a negative one violate all of them
    model = PolyModel(("x",), 1, {(1,): 1.0})
    cons = [ShapeConstraint({"x": 1}, Interval(0.0, math.inf), region1d())]
    with pytest.raises(ConfigError, match=next(iter(setting))):
        certify(model, cons, **setting)


def test_zero_width_axis():
    # f = x^2 y + y^3 on a region where y is pinned to 0.5
    model = PolyModel(("x", "y"), 3, {(2, 1): 1.0, (0, 3): 1.0})
    line = {"x": Interval(-1.0, 1.0), "y": Interval(0.5, 0.5)}
    point = {"x": Interval(0.2, 0.2), "y": Interval(0.5, 0.5)}
    cons = [
        ShapeConstraint({"y": 1}, Interval(0.75, math.inf), line),  # x^2 + 3y^2, touches at x = 0
        ShapeConstraint({"x": 1}, Interval(0.0, math.inf), line),  # 2xy, -1 at x = -1
        ShapeConstraint({}, Interval(0.0, 0.165), point),  # f = 0.145
        ShapeConstraint({}, Interval(0.15, math.inf), point),
    ]
    entries = certify(model, cons).entries
    assert [e.verdict for e in entries] == ["CERTIFIED", "VIOLATED", "CERTIFIED", "VIOLATED"]
    assert entries[1].worst_point == {"x": -1.0, "y": 0.5}
    assert entries[1].worst_violation == pytest.approx(1.0)
    assert entries[3].worst_point == {"x": 0.2, "y": 0.5}
    assert entries[3].worst_violation == pytest.approx(0.005)
    for c, e in zip(cons, entries):
        assert_entry_sound(model, c, e, 41)
