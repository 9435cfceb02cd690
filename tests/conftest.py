"""Shared models and finite-difference helpers for the test suite."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import jumpsmooth as js
from jumpsmooth.config import load_config

# The bench workloads: the tests read them and never edit them.
BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def bench_workload(name, load=False):
    """Path of the bench workload `name` (``bench/workloads/<name>.yaml``),
    or with `load` its `ExperimentConfig`."""
    path = BENCH_WORKLOADS / f"{name}.yaml"
    return load_config(str(path)) if load else path


@dataclass(frozen=True)
class NaNBeyond(js.ExpDecay):
    """amp * exp(-rate * x), every derivative NaN beyond x = edge: a
    coefficient that goes bad where only some audit reads it."""

    edge: float = 20.0

    def _derivative(self, x, l):
        return np.where(x > self.edge, np.nan, super()._derivative(x, l))

    def _stack(self, x, order):
        return np.where(x > self.edge, np.nan, super()._stack(x, order))


def fd_derivative(fn, x, l, h=0.05, points=9):
    """High-order central finite difference of the l-th derivative.

    Stencil weights come from a Vandermonde solve; error is O(h^(points-l))
    for smooth fn, comfortably under 1e-8 at the default settings for l <= 3.
    """
    m = points // 2
    offsets = np.arange(-m, m + 1, dtype=float)
    A = np.vander(offsets, increasing=True).T
    rhs = np.zeros(points)
    rhs[l] = math.factorial(l)
    w = np.linalg.solve(A, rhs)
    acc = 0.0
    for wi, oi in zip(w, offsets):
        acc = acc + wi * np.asarray(fn(x + oi * h), dtype=float)
    return acc / h**l


def poly_taylor(coefs, x0, order):
    """Derivative stack [p(x0), p'(x0), ...] of a polynomial given by coefs
    (ascending powers), the independent oracle for composition tests."""
    p = np.polynomial.Polynomial(coefs)
    return np.array([p.deriv(l)(x0) for l in range(order + 1)])


@pytest.fixture(scope="session")
def exp_unit_model():
    """Unit-rate exponential-displacement model: b=0, gamma=1, h=e^{-z}."""
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (12.0, 24.0, 56.0))
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-4.0, 9.0),
        label="exp-unit",
    )


@pytest.fixture(scope="session")
def wobble_model():
    """Smooth k=2 model with state-dependent rate and drift."""
    h = js.JumpAmplitude(((js.constant(0.4), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0, 4.0, 6.0))
    return js.CoefficientSet(
        b=js.Sinusoidal(0.2, 1.0),
        gamma=js.FunctionSum(js.constant(0.6), js.Sinusoidal(0.3, 1.0)),
        h=h, eta=js.ExpDecay(0.4, 1.0), q=q, k=2, y_window=(-8.0, 8.0),
        label="wobble",
    )


def _readme_jumps(gamma, window):
    """The README model's amplitude and marks, with zero drift, the rate
    `gamma` and the audit window `window`."""
    h = js.JumpAmplitude(((js.constant(0.4), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0, 4.0, 6.0))
    return js.CoefficientSet(b=js.constant(0.0), gamma=gamma, h=h, eta=js.ExpDecay(0.4, 1.0),
                             q=q, k=2, y_window=window)


@pytest.fixture(scope="session")
def reach_model():
    """Rate 1 + y / 2 audited on (-1, 1): gamma_sup 1.5 and the bound 1.575,
    but the rate is 4 at y = 6, where the runs of the reach tests start."""
    return _readme_jumps(js.Affine(1.0, 0.5), (-1.0, 1.0))


@pytest.fixture(scope="session")
def off_window_rate_model():
    """A rate that is 0 on the audit window (-0.5, 0.5) and 1 on [1, 5): its
    bound is 0, and the runs of its tests start at y = 2."""
    return _readme_jumps(js.Indicator(1.0, 5.0, 1.0), (-0.5, 0.5))


@pytest.fixture(scope="session")
def ripple_model():
    """Second smooth k=2 model: power-law displacement, y-modulated."""
    h = js.JumpAmplitude(
        (
            (js.constant(0.2), js.InversePower(1.0, 2.0)),
            (js.Sinusoidal(0.1, 1.0), js.InversePower(1.0, 2.0)),
        )
    )
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (4.0, 16.0))
    return js.CoefficientSet(
        b=js.Sinusoidal(0.25, 1.0, phase=math.pi / 2),
        gamma=js.FunctionSum(js.constant(0.2), js.IsoPower(0.8, 1.0)),
        h=h, eta=js.InversePower(0.35, 2.0), q=q, k=2, y_window=(-6.0, 6.0),
        label="ripple",
    )


@pytest.fixture(scope="session")
def power_model():
    """Power-law displacement model: smoothing at every horizon."""
    h = js.JumpAmplitude(((js.constant(0.5), js.InversePower(1.0, 2.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (10.0, 40.0))
    return js.CoefficientSet(
        b=js.constant(0.0),
        gamma=js.FunctionSum(js.constant(0.4), js.IsoPower(0.6, 1.0)),
        h=h, eta=js.InversePower(0.5, 2.0), q=q, k=2, y_window=(-6.0, 8.0),
        label="power",
    )


@pytest.fixture(scope="session")
def collapse_model():
    """Degenerate model: marks in A=(1,2) collapse the state to 0.

    Violates the non-degeneracy floor 1 + dh/dy >= c0 (equality to 0 on A);
    the terminal law carries an atom at 0 of mass 1 - e^{-q(A) t}.
    """
    A = js.Indicator(1.0, 2.0, 1.0)
    bump = js.SmoothstepBump(3.0, 5.0, 1.0, 3, 0.2)
    h = js.JumpAmplitude(((js.Affine(0.0, -1.0), A), (js.Affine(0.0, 1.0), bump)))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (6.0,))
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.FunctionSum(A, bump), q=q, k=1, y_window=(-3.0, 3.0),
        label="collapse",
    )


@pytest.fixture(scope="session")
def uniform_jump_model():
    """b=0, gamma=1, displacement = the mark itself, marks uniform on (0,1]."""
    h = js.JumpAmplitude(((js.constant(1.0), js.Affine(0.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.Indicator(0.0, 1.0, 1.0), (1.0,))
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.FunctionSum(js.Indicator(0.0, 1.0, 1.0), js.ExpDecay(0.05, 1.0)),
        q=q, k=1, y_window=(-3.0, 6.0), label="uniform-jump",
    )
