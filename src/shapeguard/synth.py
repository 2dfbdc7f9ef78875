"""Synthetic dataset generation: noisy cubic showcase and friction surrogates.

The friction surrogate mimics clutch test-rig experiments: controlled inputs
p (pressure) and v (velocity) step through a grid schedule (each combination
is one segment), temperature T sweeps within a segment, and the target is

    mu = a0 - a1*p + a2*p^2 - a3*T + a4*T^2 + a5*v*(1 - v) + noise

with coefficients drawn per seed from ranges that satisfy, with margin, the
expert constraint set on the unit box (value in [0, 1], d/dv in [-0.01, 0.01],
decreasing and convex in p and in T).  Error kinds modify the valid twin's
target only inside a documented region:

* ``friction_outlier``  - 10-sigma spikes in 5% of one segment's rows
* ``friction_stuck``    - one segment frozen at its first value
* ``friction_drift``    - additive linear drift over the whole recording
* ``friction_inverted`` - pressure dependence flipped (p replaced by 1-p)
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import Dataset
from .errors import ConfigError
from .poly import PolyModel

__all__ = [
    "synth_generate",
    "friction_generating_model",
    "make_corpus",
    "CUBIC_DEFAULTS",
    "FRICTION_DEFAULTS",
    "ERROR_KINDS",
]

CUBIC_DEFAULTS = {
    "c3": 0.5,
    "c1": 0.1,
    "c0": 1.0,
    "sigma": 0.5,
    "n": 40,
    "x_lo": -2.0,
    "x_hi": 2.0,
}

FRICTION_DEFAULTS = {
    "p_levels": 4,
    "v_levels": 4,
    "rows_per_segment": 30,
    "sigma": 0.005,
    "outlier_scale": 10.0,  # in units of sigma
    "outlier_fraction": 0.05,
    "drift_magnitude": 0.08,
}

ERROR_KINDS = ("outlier", "stuck", "drift", "inverted")
_KINDS = ("cubic_fig1", "friction_valid") + tuple(f"friction_{e}" for e in ERROR_KINDS)


def _merged(defaults: dict, params) -> dict:
    merged = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown params {sorted(unknown)}")
        merged.update(params)
    return merged


def _friction_coefficients(seed: int, params: dict) -> dict:
    rng = np.random.default_rng([int(seed), 7])
    a2 = rng.uniform(0.02, 0.05)
    a4 = rng.uniform(0.02, 0.05)
    return {
        "a0": rng.uniform(0.5, 0.7),
        "a1": rng.uniform(2 * a2 + 0.05, 2 * a2 + 0.12),
        "a2": a2,
        "a3": rng.uniform(2 * a4 + 0.05, 2 * a4 + 0.12),
        "a4": a4,
        "a5": rng.uniform(0.003, 0.008),
    }


def friction_generating_model(seed: int, params=None) -> PolyModel:
    """The noise-free polynomial behind the same-seed friction datasets."""
    params = _merged(FRICTION_DEFAULTS, params)
    a = _friction_coefficients(seed, params)
    variables = ("p", "v", "T")
    coeffs = {
        (0, 0, 0): a["a0"],
        (1, 0, 0): -a["a1"],
        (2, 0, 0): a["a2"],
        (0, 0, 1): -a["a3"],
        (0, 0, 2): a["a4"],
        (0, 1, 0): a["a5"],
        (0, 2, 0): -a["a5"],
    }
    return PolyModel(variables, 2, coeffs)


def _friction_base(seed: int, params: dict):
    """Schedule, noise-free surface and noise for the valid dataset."""
    rng = np.random.default_rng([int(seed), 0])
    p_levels = np.linspace(0.1, 0.9, params["p_levels"])
    v_levels = np.linspace(0.1, 0.9, params["v_levels"])
    rows = params["rows_per_segment"]
    p_col, v_col, t_col = [], [], []
    for p in p_levels:
        for v in v_levels:
            t_start = rng.uniform(0.05, 0.2)
            t_end = rng.uniform(0.8, 0.95)
            p_col.append(np.full(rows, p))
            v_col.append(np.full(rows, v))
            t_col.append(np.linspace(t_start, t_end, rows))
    p_arr = np.concatenate(p_col)
    v_arr = np.concatenate(v_col)
    t_arr = np.concatenate(t_col)
    model = friction_generating_model(seed, params)
    surface = model.evaluate_columns({"p": p_arr, "v": v_arr, "T": t_arr})
    noise = rng.normal(0.0, params["sigma"], size=len(p_arr))
    return p_arr, v_arr, t_arr, surface, noise


def _segment_slices(params: dict):
    rows = params["rows_per_segment"]
    n_segments = params["p_levels"] * params["v_levels"]
    return [slice(i * rows, (i + 1) * rows) for i in range(n_segments)]


def _friction_dataset(kind: str, seed: int, params: dict) -> Dataset:
    p, v, t, surface, noise = _friction_base(seed, params)
    mu = surface + noise
    error_kind = kind.removeprefix("friction_")
    label = "valid"
    if kind != "friction_valid":
        label = "invalid"
        inject = np.random.default_rng([int(seed), 1])
        slices = _segment_slices(params)
        sigma = params["sigma"]
        if error_kind == "outlier":
            seg = slices[inject.integers(len(slices))]
            rows = np.arange(seg.start, seg.stop)
            n_spikes = max(1, math.ceil(params["outlier_fraction"] * len(rows)))
            hit = inject.choice(rows, size=n_spikes, replace=False)
            signs = inject.choice([-1.0, 1.0], size=n_spikes)
            mu[hit] += signs * params["outlier_scale"] * sigma
        elif error_kind == "stuck":
            seg = slices[inject.integers(len(slices))]
            mu[seg] = mu[seg.start]
        elif error_kind == "drift":
            n = len(mu)
            mu = mu + params["drift_magnitude"] * np.arange(n) / (n - 1)
        elif error_kind == "inverted":
            model = friction_generating_model(seed, params)
            a1 = -model.coefficient((1, 0, 0))
            a2 = model.coefficient((2, 0, 0))
            flipped = 1.0 - p
            mu = mu + (a1 * p - a2 * p**2) - (a1 * flipped - a2 * flipped**2)
        else:
            raise ConfigError(f"unknown friction error kind {error_kind!r}")
    return Dataset(
        name=f"{kind}-{seed}",
        columns={"p": p, "v": v, "T": t, "mu_dyn": mu},
        target="mu_dyn",
        label=label,
        error_kind=None if kind == "friction_valid" else error_kind,
    )


def _cubic_dataset(seed: int, params: dict) -> Dataset:
    rng = np.random.default_rng([int(seed), 0])
    n = int(params["n"])
    x = np.linspace(params["x_lo"], params["x_hi"], n)
    base = params["c3"] * x**3 + params["c1"] * x + params["c0"]
    y = base + rng.normal(0.0, params["sigma"], size=n)
    return Dataset(
        name=f"cubic_fig1-{seed}",
        columns={"x": x, "y": y},
        target="y",
        label="valid",
    )


def synth_generate(kind: str, seed: int, params=None) -> Dataset:
    """Generate one labeled synthetic dataset; deterministic in (kind, seed, params)."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown kind {kind!r}; choose from {_KINDS}")
    if kind == "cubic_fig1":
        return _cubic_dataset(seed, _merged(CUBIC_DEFAULTS, params))
    return _friction_dataset(kind, seed, _merged(FRICTION_DEFAULTS, params))


def make_corpus(n_valid: int = 18, n_invalid: int = 35, seed: int = 0, params=None) -> list:
    """Labeled friction corpus; dataset i uses derived seed ``seed ^ i``.

    Invalid datasets cycle through the documented error kinds.  Seeds that
    differ only in their low bits therefore share datasets: seeds 0 and 1
    share all 18 valid ones.  Multiples of 64 give disjoint corpora of up to
    64 datasets.
    """
    corpus = []
    for i in range(n_valid):
        corpus.append(synth_generate("friction_valid", seed ^ i, params))
    for j in range(n_invalid):
        kind = f"friction_{ERROR_KINDS[j % len(ERROR_KINDS)]}"
        corpus.append(synth_generate(kind, seed ^ (n_valid + j), params))
    for i, ds in enumerate(corpus):
        ds.name = f"{i:03d}-{ds.name}"
    return corpus
