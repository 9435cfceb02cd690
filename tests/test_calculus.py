"""Composition, inversion, and transfer-coefficient oracles.

Frozen reference values come from symbolic expansion or classical series
(Bell numbers, log derivatives, Lagrange reversion); randomized sweeps check
against an independent polynomial-arithmetic oracle.
"""

import dataclasses
import doctest
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import jumpsmooth as js
from jumpsmooth.calculus import SINGULAR_SLOPE

from conftest import fd_derivative, poly_taylor


def _stack(point, values):
    return js.DerivativeStack(point, np.asarray(values, dtype=float))


def _exp_model(fy, amp_eta=1.0, b=None):
    """Model with h(y,z) = fy(y) * e^{-z}; only h matters for the tau tests."""
    h = js.JumpAmplitude(((fy, js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (4.0, 8.0))
    return js.CoefficientSet(
        b=b if b is not None else js.constant(0.0),
        gamma=js.constant(1.0), h=h, eta=js.ExpDecay(amp_eta, 1.0), q=q,
        k=2, y_window=(-6.0, 6.0),
    )


# ---------------------------------------------------------------------------
# faa_di_bruno
# ---------------------------------------------------------------------------


def test_composition_identity_inner():
    outer = _stack(2.0, [7.0, -1.0, 3.0, 0.5, 2.0])
    inner = _stack(2.0, [2.0, 1.0, 0.0, 0.0, 0.0])
    out = js.faa_di_bruno(outer, inner)
    assert np.allclose(out.values, outer.values, rtol=0, atol=0)


def test_composition_power_oracle():
    # phi(u) = u^2, tau(y) = y^3 at y=2: derivatives of y^6.
    inner = _stack(2.0, [8.0, 12.0, 12.0, 6.0, 0.0])
    outer = _stack(8.0, [64.0, 16.0, 2.0, 0.0, 0.0])
    out = js.faa_di_bruno(outer, inner)
    assert np.allclose(out.values, [64.0, 192.0, 480.0, 960.0, 1440.0], rtol=1e-14)


def test_composition_bell_numbers():
    # e^{e^y} at 0: e * Bell numbers; e^{e^y - 1} at 0: plain Bell numbers.
    e = math.e
    inner = _stack(0.0, np.ones(6))
    outer = _stack(1.0, np.full(6, e))
    out = js.faa_di_bruno(outer, inner)
    assert np.allclose(out.values, e * np.array([1, 1, 2, 5, 15, 52]), rtol=1e-13)
    shifted = _stack(0.0, [0, 1, 1, 1, 1, 1])
    out = js.faa_di_bruno(_stack(0.0, np.ones(6)), shifted)
    assert np.allclose(out.values, [1, 1, 2, 5, 15, 52], rtol=1e-13)


def test_partition_tables_serve_every_stack_order():
    # the n-th table has one term per integer partition of n (A000041), and
    # its coefficients count the set partitions of n (Bell numbers, A000110)
    partitions = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]
    bell = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437,
            190899322, 1382958545, 10480142147]
    for n in range(1, 17):
        terms = js.composition_terms(n)
        assert len(terms) == partitions[n - 1]
        assert sum(coef for _, _, coef in terms) == bell[n - 1]
    # e^{e^y - 1} at 0, to the stack cap: the Bell numbers exactly
    out = js.faa_di_bruno(_stack(0.0, np.ones(17)), _stack(0.0, [0.0] + [1.0] * 16))
    assert out.values.tolist() == [1.0] + [float(b) for b in bell]
    with pytest.raises(js.ContractError, match=r"^derivative order 17 outside \[0, 16\]$"):
        js.composition_terms(17)
    with pytest.raises(js.ContractError, match="^composition order must be >= 1$"):
        js.composition_terms(0)


def test_composition_exp_sin_oracle():
    # e^{sin y} at 0; classical series expansion.
    inner = _stack(0.0, [0.0, 1.0, 0.0, -1.0, 0.0, 1.0])
    outer = _stack(0.0, np.ones(6))
    out = js.faa_di_bruno(outer, inner)
    assert np.allclose(out.values, [1.0, 1.0, 1.0, 0.0, -3.0, -8.0], atol=1e-12)


def test_composition_randomized_polynomial_sweep():
    rng = np.random.default_rng(20240811)
    for _ in range(50):
        dq = int(rng.integers(1, 7))
        dp = int(rng.integers(1, 7))
        qco = rng.uniform(-2, 2, size=dq + 1)
        pco = rng.uniform(-2, 2, size=dp + 1)
        x0 = float(rng.uniform(-1, 1))
        order = int(rng.integers(1, 6))
        p = np.polynomial.Polynomial(pco)
        comp = np.polynomial.Polynomial(qco)(p)
        oracle = np.array([comp.deriv(l)(x0) for l in range(order + 1)])
        out = js.faa_di_bruno(
            _stack(p(x0), poly_taylor(qco, p(x0), order)),
            _stack(x0, poly_taylor(pco, x0, order)),
        )
        scale = np.maximum(np.abs(oracle), 1.0)
        assert np.all(np.abs(out.values - oracle) <= 1e-10 * scale)


def test_composition_order_mismatch():
    with pytest.raises(js.ContractError):
        js.faa_di_bruno(_stack(0.0, [1.0, 1.0]), _stack(0.0, [0.0, 1.0, 0.0]))


def test_leibniz_product_polynomial_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-2, 2, size=5)
        b = rng.uniform(-2, 2, size=4)
        x0 = float(rng.uniform(-1, 1))
        pa = np.polynomial.Polynomial(a)
        pb = np.polynomial.Polynomial(b)
        sa = poly_taylor(a, x0, 4)
        sb = poly_taylor(b, x0, 4)
        oracle = np.array([(pa * pb).deriv(l)(x0) for l in range(5)])
        got = js.leibniz_product(sa, sb)
        assert np.allclose(got, oracle, rtol=1e-12, atol=1e-12)


def test_leibniz_terms_are_binomials_times_the_stack():
    rng = np.random.default_rng(11)
    s = rng.normal(size=(6, 3, 2))
    terms = js.calculus._leibniz_terms(s)
    assert [len(row) for row in terms] == [1, 2, 3, 4, 5, 6]
    for l, row in enumerate(terms):
        for r, entry in enumerate(row):
            assert entry.tobytes() == (math.comb(l, r) * s[l - r]).tobytes()
    assert len(js.calculus._leibniz_terms(s, 3)) == 4


def _leibniz_row(a, b, n):
    # the per-row product formula that `_leibniz_terms` replaced
    acc = 0.0
    for j in range(n + 1):
        acc = acc + math.comb(n, j) * a[j] * b[n - j]
    return acc


@pytest.mark.parametrize("rows", [(6, 6), (4, 7), (7, 3)])
def test_leibniz_product_matches_the_row_formula_on_broadcast_stacks(rows):
    rng = np.random.default_rng(sum(rows))
    a = rng.normal(size=(rows[0], 5, 1))
    b = rng.normal(size=(rows[1], 1, 4))
    got = js.leibniz_product(a, b)
    order = min(rows) - 1
    assert got.shape == (order + 1, 5, 4)
    want = np.stack([_leibniz_row(a, b, n) for n in range(order + 1)])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# inverse_derivatives
# ---------------------------------------------------------------------------


def test_inverse_linear():
    out = js.inverse_derivatives(_stack(1.0, [2.0, 2.0, 0.0, 0.0]))
    assert out.point == 2.0
    assert np.allclose(out.values, [1.0, 0.5, 0.0, 0.0], rtol=0, atol=0)


def test_inverse_reversion_oracle():
    # f(y) = y + y^2 at 0: inverse derivatives 1, -2, 12.
    out = js.inverse_derivatives(_stack(0.0, [0.0, 1.0, 2.0, 0.0]))
    assert np.allclose(out.values, [0.0, 1.0, -2.0, 12.0], rtol=1e-13)


def test_inverse_log_oracle():
    out = js.inverse_derivatives(_stack(0.0, np.ones(5)))
    assert out.point == 1.0
    assert np.allclose(out.values, [0.0, 1.0, -1.0, 2.0, -6.0], rtol=1e-13)


def _reversion_oracle(values, order):
    """Inverse derivative stack by truncated series composition.

    Solves g(f(x)) = x coefficient by coefficient in the centered variables,
    an independent route to the same numbers as the inversion formula.
    """
    a = np.array([values[j] / math.factorial(j) for j in range(order + 1)])
    c = np.zeros(order + 1)
    c[1] = 1.0 / a[1]
    shifted = np.polynomial.Polynomial(np.concatenate([[0.0], a[1 : order + 1]]))
    for m in range(2, order + 1):
        # coefficient of x^m in sum_{j<m} c_j (f(x) - f0)^j plus c_m a1^m is 0
        comp = np.polynomial.Polynomial([0.0])
        for j in range(1, m):
            comp = comp + c[j] * shifted**j
        coef = comp.coef[m] if m < comp.coef.size else 0.0
        c[m] = -coef / (a[1] ** m)
    return np.array(
        [values[0] * 0.0] + [c[j] * math.factorial(j) for j in range(1, order + 1)]
    )


def test_inverse_randomized_reversion_sweep():
    rng = np.random.default_rng(20240812)
    for _ in range(50):
        order = int(rng.integers(2, 6))
        vals = rng.uniform(-1, 1, size=order + 1)
        vals[1] = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        x0 = float(rng.uniform(-1, 1))
        forward = _stack(x0, vals)
        out = js.inverse_derivatives(forward)
        oracle = _reversion_oracle(vals, order)
        oracle[0] = x0
        assert out.point == vals[0]
        scale = np.maximum(np.abs(oracle), 1.0)
        assert np.all(np.abs(out.values - oracle) <= 1e-10 * scale)


def test_inverse_round_trip_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.uniform(-1, 1, size=5)
        vals[1] = 1.0 + float(rng.uniform(0.2, 1.0))
        forward = _stack(0.3, vals)
        inv = js.inverse_derivatives(forward)
        back = js.faa_di_bruno(inv, forward)
        ident = np.array([0.3, 1.0, 0.0, 0.0, 0.0])
        assert np.allclose(back.values, ident, atol=1e-8 * max(1.0, np.abs(vals).max()))


def test_inverse_near_singular_raises():
    with pytest.raises(js.NearSingularError):
        js.inverse_derivatives(_stack(0.0, [0.0, 0.5 * SINGULAR_SLOPE, 1.0]))


# ---------------------------------------------------------------------------
# pre-images: order-0 stacks at one state
# ---------------------------------------------------------------------------


def _tau(m, y, z):
    """The pre-jump state of one state: the order-0 stack's one row."""
    return float(js.tau_stack_grid(m, y, z, 0)[0])


def _tau_i(m, y, i):
    """The pre-step state of one state."""
    return float(js.tau_i_stack_grid(m, y, i, 0)[0])


def test_solve_tau_constant_shift():
    m = _exp_model(js.constant(1.0))
    # h = e^{-z}, independent of y: tau = y - e^{-z}.
    for y, z in [(0.0, 0.5), (2.0, 1.0), (-1.5, 2.0)]:
        assert _tau(m, y, z) == pytest.approx(y - math.exp(-z), abs=1e-12)


def test_solve_tau_linear_map():
    m = _exp_model(js.Affine(0.0, 0.5))
    # h = 0.5 y e^{-z}: tau = y / (1 + 0.5 e^{-z}).
    for y in [-2.0, 0.3, 4.0]:
        for z in [0.2, 1.0, 3.0]:
            assert _tau(m, y, z) == pytest.approx(
                y / (1.0 + 0.5 * math.exp(-z)), rel=1e-12
            )


def test_solve_tau_tanh_vs_bisection():
    m = _exp_model(js.TanhSigmoid(0.5, 1.0), amp_eta=0.5)
    for y in np.linspace(-3, 3, 7):
        for z in [0.1, 1.0, 2.5]:
            tau = _tau(m, float(y), float(z))
            assert abs(tau + 0.5 * math.tanh(tau) * math.exp(-z) - y) <= 1e-12
            oracle = brentq(
                lambda x: x + 0.5 * math.tanh(x) * math.exp(-z) - y,
                y - 1.0, y + 1.0, xtol=1e-14,
            )
            assert tau == pytest.approx(oracle, abs=1e-10)


def test_solve_tau_grid_matches_scalar():
    # the bracketed Newton at one (0-d) state lands on the bytes of that
    # state's entry in an array of states
    m = _exp_model(js.Sinusoidal(0.4, 1.0))
    ys = np.linspace(-2, 2, 11)
    grid = js.tau_stack_grid(m, ys, 0.7, 0)[0]
    for y, t in zip(ys, grid):
        one = js.tau_stack_grid(m, y, 0.7, 0)
        assert one.shape == (1,)
        assert one[0].tobytes() == t.tobytes()


def test_solve_tau_i_exact_cases():
    m0 = _exp_model(js.constant(1.0))
    assert _tau_i(m0, 1.3, 5) == pytest.approx(1.3, abs=1e-14)
    mb = _exp_model(js.constant(1.0), b=js.constant(0.7))
    assert _tau_i(mb, 1.3, 4) == pytest.approx(1.3 - 0.7 / 4.0, abs=1e-13)


def test_solve_tau_i_sin_vs_bisection():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(1.0, 1.0))
    for y in np.linspace(-3, 3, 9):
        tau = _tau_i(m, float(y), 10)
        assert abs(tau + math.sin(tau) / 10.0 - y) <= 1e-12
        assert abs(tau - y) <= 0.1
        oracle = brentq(lambda x: x + math.sin(x) / 10.0 - y, y - 0.2, y + 0.2, xtol=1e-14)
        assert tau == pytest.approx(oracle, abs=1e-10)


def test_solve_tau_i_below_index_floor():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(3.0, 1.0))
    with pytest.raises(js.ContractError, match="i0=6"):
        js.tau_i_stack_grid(m, 0.0, 2, 0)


# ---------------------------------------------------------------------------
# transfer coefficients
# ---------------------------------------------------------------------------


def test_transfer_alpha_shift_model_vanishes():
    m = _exp_model(js.constant(1.0))
    alpha, _ = js.transfer_alpha_grid(m, 0.7, 1.2, 3)
    assert alpha.shape == (4, 4)
    assert np.allclose(alpha, 0.0, atol=1e-12)


def test_transfer_alpha_hand_values():
    m = _exp_model(js.Sinusoidal(0.3, 1.0), amp_eta=0.3)
    y, z = 1.0, 0.4
    alpha, tau = js.transfer_alpha_grid(m, y, z, 2)
    assert alpha[0, 0] == pytest.approx(tau[1] - 1.0, rel=1e-12)
    assert alpha[1, 0] == pytest.approx(tau[2], rel=1e-10)
    assert alpha[1, 1] == pytest.approx(tau[1] ** 2 - 1.0, rel=1e-10)
    assert alpha[2, 0] == pytest.approx(tau[3], rel=1e-8)
    assert alpha[2, 1] == pytest.approx(3.0 * tau[1] * tau[2], rel=1e-10)
    assert alpha[2, 2] == pytest.approx(tau[1] ** 3 - 1.0, rel=1e-10)


def _phi_rhs(table, tau0, phi_coef, l):
    """phi^{(l)}(tau) + sum_r table[l, r] phi^{(r)}(tau) for polynomial phi."""
    stack = poly_taylor(phi_coef, tau0, table.shape[0] - 1)
    return stack[l] + float(np.dot(table[l], stack))


def test_transfer_alpha_identity_vs_fd():
    # Pinned case: h = 0.3 sin(y) e^{-z} at y=1, l up to 2, phi(u) = u^3.
    m = _exp_model(js.Sinusoidal(0.3, 1.0), amp_eta=0.3)
    y0, z0 = 1.0, 0.0
    phi = np.array([0.0, 0.0, 0.0, 1.0])
    Phi = np.array([0.0, 0.0, 0.0, 0.0, 0.25])
    alpha, tau = js.transfer_alpha_grid(m, y0, z0, 2)
    PhiP = np.polynomial.Polynomial(Phi)

    def big(y):
        return PhiP(_tau(m, float(y), z0))

    for l in range(3):
        lhs = fd_derivative(big, y0, l + 1, h=0.02)
        rhs = _phi_rhs(alpha, tau[0], phi, l)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_transfer_alpha_randomized_fd_sweep():
    rng = np.random.default_rng(20240813)
    for _ in range(50):
        a = float(rng.uniform(0.1, 0.45))
        w = float(rng.uniform(0.5, 1.5))
        m = _exp_model(js.Sinusoidal(a, w), amp_eta=a * max(1.0, w) ** 3)
        y0 = float(rng.uniform(-2, 2))
        z0 = float(rng.uniform(0.1, 2.0))
        # FD order l+1; l <= 2 keeps the solver noise amplified by h^-(l+1)
        # well under the 1e-6 gate
        l = int(rng.integers(1, 3))
        phi = rng.uniform(-1, 1, size=5)
        Phi = np.polynomial.Polynomial(phi).integ().coef
        alpha, tau = js.transfer_alpha_grid(m, y0, z0, l)
        PhiP = np.polynomial.Polynomial(Phi)

        def big(y):
            # the pre-image to 1e-14, from an independent solver
            return PhiP(brentq(lambda x: x + a * math.sin(w * x) * math.exp(-z0) - y,
                               y - 1.0, y + 1.0, xtol=1e-14))

        lhs = fd_derivative(big, y0, l + 1, h=0.02)
        rhs = _phi_rhs(alpha, tau[0], phi, l)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_transfer_alpha_cubic_exact_for_linear_state():
    # h = 0.4 y e^{-z}: tau(y) = y/s with s = 1 + 0.4 e^{-z}, so the identity
    # is exact at every order: [phi(y/s)/s]^(l) = phi^(l)(y/s) / s^(l+1).
    m = _exp_model(js.Affine(0.0, 0.4), amp_eta=0.4)
    y0, z0 = 1.7, 0.6
    s = 1.0 + 0.4 * math.exp(-z0)
    phi = np.array([0.3, -1.0, 0.5, 2.0, -0.7])
    alpha, tau = js.transfer_alpha_grid(m, y0, z0, 3)
    tau0 = tau[0]
    assert tau0 == pytest.approx(y0 / s, rel=1e-13)
    stack = poly_taylor(phi, tau0, 3)
    for l in range(4):
        lhs = stack[l] / s ** (l + 1)
        rhs = _phi_rhs(alpha, tau0, phi, l)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_transfer_beta_zero_and_constant_drift():
    m0 = _exp_model(js.constant(1.0))
    beta, _ = js.transfer_beta_grid(m0, 0.3, 20, 3)
    assert beta.shape == (4, 4)
    assert np.allclose(beta, 0.0, atol=1e-13)
    mc = _exp_model(js.constant(1.0), b=js.constant(2.0))
    beta, tau = js.transfer_beta_grid(mc, 0.3, 20, 3)
    assert np.allclose(beta, 0.0, atol=1e-12)
    assert tau[0] == pytest.approx(0.3 - 2.0 / 20.0, abs=1e-12)


def test_transfer_beta_identity_vs_fd():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(1.0, 1.0))
    y0 = 0.8
    phi = np.array([0.0, -1.0, 0.5, 1.0])
    Phi = np.polynomial.Polynomial(phi).integ().coef
    PhiP = np.polynomial.Polynomial(Phi)
    for i in (20, 40, 80):
        beta, tau = js.transfer_beta_grid(m, y0, i, 2)

        def big(y):
            return PhiP(_tau_i(m, float(y), i))

        for l in range(3):
            lhs = fd_derivative(big, y0, l + 1, h=0.02)
            rhs = _phi_rhs(beta, tau[0], phi, l)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_transfer_beta_scaled_sum_bounded_as_i_doubles():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(1.0, 1.0))
    sums = {}
    for i in (20, 40, 80):
        worst = 0.0
        for y in np.linspace(-3, 3, 13):
            beta, _ = js.transfer_beta_grid(m, float(y), i, 3)
            worst = max(worst, i * float(np.sum(np.abs(beta))))
        sums[i] = worst
    assert sums[80] <= 1.25 * sums[20]
    assert all(v <= 50.0 for v in sums.values())


def test_transfer_beta_randomized_fd_sweep():
    rng = np.random.default_rng(20240814)
    for _ in range(50):
        a = float(rng.uniform(0.2, 1.5))
        w = float(rng.uniform(0.5, 1.5))
        m = _exp_model(js.constant(1.0), b=js.Sinusoidal(a, w))
        i = int(rng.choice([20, 40, 80]))
        y0 = float(rng.uniform(-2, 2))
        l = int(rng.integers(1, 3))
        phi = rng.uniform(-1, 1, size=5)
        PhiP = np.polynomial.Polynomial(np.polynomial.Polynomial(phi).integ().coef)
        beta, tau = js.transfer_beta_grid(m, y0, i, l)

        def big(y):
            # the pre-image to 1e-14, from an independent solver
            return PhiP(brentq(lambda x: x + a * math.sin(w * x) / i - y,
                               y - 0.2, y + 0.2, xtol=1e-14))

        lhs = fd_derivative(big, y0, l + 1, h=0.02)
        rhs = _phi_rhs(beta, tau[0], phi, l)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_tau_stack_grid_consistency():
    m = _exp_model(js.Sinusoidal(0.3, 1.0), amp_eta=0.3)
    ys = np.linspace(-2, 2, 9)
    stacks = js.tau_stack_grid(m, ys, 0.5, 3)
    assert stacks.shape == (4, ys.size)
    for j, y in enumerate(ys):
        assert stacks[0, j] == pytest.approx(_tau(m, float(y), 0.5), abs=1e-12)
        fd = fd_derivative(lambda t: _tau(m, float(t), 0.5), float(y), 2, h=0.02)
        assert stacks[2, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    stacks_i = js.tau_i_stack_grid(m, ys, 25, 3)
    assert np.allclose(stacks_i[0], ys, atol=0.05)


def test_transfer_alpha_grid_over_marks_matches_scalar_marks(wobble_model, power_model):
    # one solve over (node, mark) pairs: exactly the scalar-mark columns on
    # wobble, within 1e-15 of each table's largest entry through array pow
    z = np.linspace(0.01, 3.0, 7)
    for m, exact in ((wobble_model, True), (power_model, False)):
        y = np.linspace(m.y_window[0], m.y_window[1], 33)
        alpha, tau = js.transfer_alpha_grid(m, y, z, m.k)
        assert alpha.shape == (m.k + 1, m.k + 1, y.size, z.size)
        assert tau.shape == (m.k + 2, y.size, z.size)
        for j, zj in enumerate(z):
            a1, t1 = js.transfer_alpha_grid(m, y, float(zj), m.k)
            for got, want in ((alpha[..., j], a1), (tau[..., j], t1)):
                if exact:
                    np.testing.assert_array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    with pytest.raises(js.ContractError, match="1-d array"):
        js.transfer_alpha_grid(wobble_model, y, z[None, :], 2)


def _power_law_state_model():
    """Power laws in the state, in the jump amplitude and the drift: numpy
    rounds a scalar's `pow` apart from an array's."""
    h = js.JumpAmplitude(((js.IsoPower(0.1, 1.5), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (4.0,))
    return js.CoefficientSet(b=js.FunctionSum(js.IsoPower(0.3, 1.5)), gamma=js.constant(1.0),
                             h=h, eta=js.ExpDecay(2.0, 1.0), q=q, k=2, y_window=(-7.0, 7.0))


@pytest.mark.parametrize("name", ["wobble", "ripple", "power_law_state"])
def test_one_state_is_its_column_in_an_array_of_states(name, request):
    # a 0-d state on the closed form (wobble's jump map) and on the bracketed
    # Newton (every other map): the bytes of a one-state array's column, at
    # every order, and order 0 is row 0 of a deeper stack
    if name == "power_law_state":
        m = _power_law_state_model()
    else:
        m = request.getfixturevalue(f"{name}_model")
    z, marks = 0.7, np.linspace(0.05, 2.5, 4)
    for y in np.linspace(-6.375, 6.375, 5):
        for stack, arg in ((js.tau_stack_grid, z), (js.tau_stack_grid, marks),
                           (js.tau_i_stack_grid, 8)):
            for order in (0, 2):
                one = stack(m, y, arg, order)
                assert one.shape == (order + 1,) + np.shape(arg if stack is js.tau_stack_grid else 0)
                assert one.tobytes() == stack(m, np.array([y]), arg, order)[:, 0].tobytes()
            assert stack(m, y, arg, 0).tobytes() == stack(m, y, arg, 3)[:1].tobytes()
        for table, arg in ((js.transfer_alpha_grid, z), (js.transfer_beta_grid, 8)):
            one, tau = table(m, y, arg, 2)
            many, taus = table(m, np.array([y]), arg, 2)
            assert one.shape == (3, 3) and tau.shape == (4,)
            assert one.tobytes() == many[..., 0].tobytes()
            assert tau.tobytes() == taus[:, 0].tobytes()


@pytest.mark.parametrize("order", [-1, 1.5])
def test_a_stack_order_must_be_an_integer_from_zero(wobble_model, ripple_model, order):
    message = rf"^derivative order {order} outside \[0, 16\]$"
    for m in (wobble_model, ripple_model):
        with pytest.raises(js.ContractError, match=message):
            js.tau_stack_grid(m, 0.3, 0.7, order)
        with pytest.raises(js.ContractError, match=message):
            js.tau_i_stack_grid(m, 0.3, 8, order)
        # a table reads the stack one order deeper
        with pytest.raises(js.ContractError):
            js.transfer_alpha_grid(m, 0.3, 0.7, order)
        with pytest.raises(js.ContractError):
            js.transfer_beta_grid(m, 0.3, 8, order)


def test_a_stack_past_order_seven_is_taken_on_every_path(wobble_model, ripple_model):
    # order 8 returned 9 rows on wobble's closed form and raised "composition
    # order 8 exceeds supported maximum 7" on ripple's Newton path
    message = r"^derivative order 17 outside \[0, 16\]$"
    for m in (wobble_model, ripple_model):
        jump = js.tau_stack_grid(m, 0.3, 0.7, 7)
        drift = js.tau_i_stack_grid(m, 0.3, 8, 7)
        for order in range(8, 17):
            st = js.tau_stack_grid(m, 0.3, 0.7, order)
            assert st.shape == (order + 1,) and np.all(np.isfinite(st))
            assert st[:8].tobytes() == jump.tobytes()
            assert js.tau_i_stack_grid(m, 0.3, 8, order)[:8].tobytes() == drift.tobytes()
        alpha, tau = js.transfer_alpha_grid(m, 0.3, 0.7, 6)
        deep, deep_tau = js.transfer_alpha_grid(m, 0.3, 0.7, 15)
        assert deep[:7, :7].tobytes() == alpha.tobytes()
        assert deep_tau[:8].tobytes() == tau.tobytes()
        with pytest.raises(js.ContractError, match=message):
            js.tau_stack_grid(m, 0.3, 0.7, 17)
        with pytest.raises(js.ContractError, match=message):
            js.tau_i_stack_grid(m, 0.3, 8, 17)
        # a table reads the stack one order deeper
        with pytest.raises(js.ContractError, match=message):
            js.transfer_alpha_grid(m, 0.3, 0.7, 16)
        with pytest.raises(js.ContractError, match=message):
            js.transfer_beta_grid(m, 0.3, 8, 16)
        for bad in (-1, 1.5):  # named as given, as `transfer_alpha_grid` names it
            with pytest.raises(js.ContractError, match=rf"^derivative order {bad} outside \[0, 16\]$"):
                js.transfer_beta_grid(m, 0.3, 8, bad)


# ---------------------------------------------------------------------------
# closed-form pre-images of amplitudes affine in the state
# ---------------------------------------------------------------------------


def _affine_model(newton=False):
    """h(y, z) = (0.1 + 0.3 y) e^{-z} + 0.2 (1 + z)^-2: affine in y with a
    state-dependent term.  With `newton` the affine factor is wrapped in a
    one-part sum, which is not `Affine`, so the same map is solved by the
    bracketed Newton."""
    fy = js.Affine(0.1, 0.3)
    h = js.JumpAmplitude((
        (js.FunctionSum(fy) if newton else fy, js.ExpDecay(1.0, 1.0)),
        (js.constant(0.2), js.InversePower(1.0, 2.0)),
    ))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (4.0,))
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.FunctionSum(js.ExpDecay(1.9, 1.0), js.InversePower(0.2, 2.0)), q=q,
        k=2, y_window=(-6.0, 6.0),
    )


def test_closed_form_tau_stack_matches_the_bracketed_newton():
    closed, newton = _affine_model(), _affine_model(newton=True)
    assert closed.h.affine(0.7) is not None and newton.h.affine(0.7) is None
    y = np.linspace(-6.0, 6.0, 49)
    atol = js.calculus.PREIMAGE_TOL * np.max(np.abs(y))
    for z in (0.05, 0.7, np.linspace(0.01, 4.0, 9)):
        got = js.tau_stack_grid(closed, y, z, 3)
        want = js.tau_stack_grid(newton, y, z, 3)
        assert got.shape == want.shape
        np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=atol)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(got[2:], want[2:], rtol=0.0, atol=1e-15)
        # the closed form: tau = (y - A) / (1 + B), higher rows exactly 0
        assert not np.any(got[2:])
        shift, scale = closed.h.affine(z)
        states = y[:, None] if np.ndim(z) else y
        np.testing.assert_array_equal(got[0], (states - shift) / (1.0 + scale))
        np.testing.assert_array_equal(got[1], np.broadcast_to(1.0 / (1.0 + scale), got[1].shape))
        # order 0: the pre-image row alone, to the byte, one mark or many
        np.testing.assert_array_equal(js.tau_stack_grid(closed, y, z, 0), got[:1])
        np.testing.assert_array_equal(js.tau_stack_grid(newton, y, z, 0), want[:1])


def test_closed_form_transfer_table_is_diagonal(monkeypatch):
    closed, newton = _affine_model(), _affine_model(newton=True)
    y = np.linspace(-6.0, 6.0, 33)
    z = np.linspace(0.01, 4.0, 7)
    decisions = []
    affine = js.JumpAmplitude.affine
    monkeypatch.setattr(js.JumpAmplitude, "affine",
                        lambda self, zz: decisions.append(zz) or affine(self, zz))
    alpha, tau = js.transfer_alpha_grid(closed, y, z, 3)
    assert alpha.shape == (4, 4, y.size, z.size)
    # one affine decision per call; one table per mark, a read-only view
    # broadcast over the nodes
    assert len(decisions) == 1
    assert not alpha.flags.writeable and alpha.strides[2] == 0
    for l in range(4):
        for r in range(4):
            if r != l:
                assert not np.any(alpha[l, r]), (l, r)
        np.testing.assert_array_equal(alpha[l, l], tau[1] ** (l + 1) - 1.0)
    want = js.transfer_alpha_grid(newton, y, z, 3)[0]
    np.testing.assert_allclose(alpha, want, rtol=0.0, atol=1e-14)
    one, one_tau = js.transfer_alpha_grid(closed, 1.3, 0.7, 3)
    assert one.shape == (4, 4)
    assert not np.any(one - np.diag(np.diag(one)))
    assert not np.any(one_tau[2:])


@pytest.mark.parametrize("order", [3, 6])
def test_closed_form_table_is_plus_zero_off_the_diagonal(order):
    # the one table path on an affine stack: every off-diagonal entry is a
    # sum of products that hold a +0.0 row, for slopes 1 + B above and below 1
    y = np.linspace(-6.0, 6.0, 17)
    z = np.linspace(0.01, 4.0, 5)
    for scale in (0.3, -0.3):
        h = js.JumpAmplitude(((js.Affine(0.1, scale), js.ExpDecay(1.0, 1.0)),))
        alpha, tau = js.transfer_alpha_grid(dataclasses.replace(_affine_model(), h=h), y, z, order)
        assert not np.any(tau[2:])
        for l in range(order + 1):
            for r in range(order + 1):
                if r != l:
                    assert not np.any(alpha[l, r]), (l, r)
                    assert not np.any(np.signbit(alpha[l, r])), (l, r)
            np.testing.assert_array_equal(alpha[l, l], tau[1] ** (l + 1) - 1.0)


@pytest.mark.parametrize("slope", [0.5 * SINGULAR_SLOPE, 0.0, -0.5, math.nan])
def test_closed_form_refuses_a_flat_slope_before_evaluating_the_map(monkeypatch, slope):
    # h = (slope - 1) y on the marks [1, 2): 1 + B = slope there, 1 elsewhere
    def model(fy):
        return dataclasses.replace(_affine_model(), h=js.JumpAmplitude(((fy, js.Indicator(1.0, 2.0)),)))

    fy = js.Affine(0.0, slope - 1.0)
    m, newton = model(fy), model(js.FunctionSum(fy))
    assert not 1.0 + (slope - 1.0) > SINGULAR_SLOPE
    y = np.linspace(-2.0, 2.0, 9)
    calls = [
        lambda m: js.tau_stack_grid(m, y, np.array([0.5, 1.5]), 2),
        lambda m: js.transfer_alpha_grid(m, y, 1.5, 2),
        lambda m: js.transfer_alpha_grid(m, 0.3, 1.5, 2),
        lambda m: js.tau_stack_grid(m, 0.3, 1.5, 0),
    ]
    # the bracketed Newton's failure on the same map, class and message
    want = []
    for call in calls:
        with pytest.raises(js.NumericalError) as err:
            call(newton)
        want.append((type(err.value), str(err.value)))
    if slope > 0.0:
        # the C-order flat index of the first flat (node, mark) component:
        # the second mark of node 0 in the two-mark call
        assert want == [(js.NearSingularError, f"map slope below 1e-10 at component {c}")
                        for c in (1, 0, 0, 0)]
    else:
        assert set(want) == {(js.DomainEscapeError, (
            "could not bracket the pre-image: monotonicity or the jump size bound "
            "is violated on this model"))}
    evaluated = []
    for name in ("dy", "y_stack"):
        inner = getattr(js.JumpAmplitude, name)
        monkeypatch.setattr(js.JumpAmplitude, name,
                            lambda self, *a, _n=name, _f=inner: evaluated.append(_n) or _f(self, *a))
    for call, (kind, message) in zip(calls, want):
        with pytest.raises(kind) as err:
            call(m)
        assert str(err.value) == message
    assert evaluated == []
    if not math.isnan(slope):  # (a nan B is nan at every mark)
        # the marks where 1 + B = 1 pass
        assert not np.any(js.transfer_alpha_grid(m, y, np.array([0.5, 2.5]), 2)[0])


def test_grown_brackets_over_marks_match_the_one_mark_solves():
    # a Newton amplitude whose jump size bound is far too small: every
    # (node, mark) pair's bracket grows, and each pair must still land on
    # the one-mark solve of its own mark
    m = dataclasses.replace(_exp_model(js.Sinusoidal(0.5, 1.0)), eta=js.ExpDecay(1e-6, 1.0))
    y = np.linspace(-3.0, 3.0, 17)
    z = np.linspace(0.0, 3.0, 5)
    both = js.tau_stack_grid(m, y, z, 2)
    for j, zj in enumerate(z):
        np.testing.assert_array_equal(both[..., j], js.tau_stack_grid(m, y, float(zj), 2))


def test_calculus_doctests_pass():
    result = doctest.testmod(js.calculus)
    assert result.attempted >= 8
    assert result.failed == 0


# ---------------------------------------------------------------------------
# pinned inverse maps and transfer tables
# ---------------------------------------------------------------------------

# sha256 of the raw float64 bytes of every inverse-map and transfer-table
# output, recorded from the separate jump and drift pipelines that preceded
# the shared one; the arithmetic is unchanged, so every digest must repeat.
# The jump-map keys of wobble and power (amplitudes affine in the state)
# were re-recorded from the closed form: their values moved by at most
# 6.1e-17 of each array's largest entry, and signed zeros became +0.  The
# pre-image keys (`solve_tau*_grid`) are read from order-0 stacks and the
# one-point keys (`transfer_alpha`, `transfer_beta`) from one-state table
# calls, whose (table, stack) pairs are those of the scalar spellings they
# replaced, to the byte.
TRANSFER_PINS = Path(__file__).parent / "data" / "transfer_tables.json"
PIN_MARKS = (0.05, 0.7, 2.5)
PIN_DRIFT_INDEX = 8


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _transfer_tables(models) -> dict:
    out = {}
    for name, m in models:
        y = np.linspace(m.y_window[0] + 0.5, m.y_window[1] - 0.5, 41)
        points = (float(y[3]), float(y[20]), float(y[37]))
        k = m.k
        for z in PIN_MARKS:
            tag = f"{name}/z={z}"
            out[f"{tag}/solve_tau_grid"] = _digest(js.tau_stack_grid(m, y, z, 0)[0])
            out[f"{tag}/tau_stack_grid"] = _digest(js.tau_stack_grid(m, y, z, k + 1))
            out[f"{tag}/transfer_alpha_grid"] = _digest(*js.transfer_alpha_grid(m, y, z, k))
            tables = [js.transfer_alpha_grid(m, p, z, k) for p in points]
            out[f"{tag}/transfer_alpha"] = _digest(*(a for t in tables for a in t))
        i = PIN_DRIFT_INDEX
        tag = f"{name}/i={i}"
        out[f"{tag}/solve_tau_i_grid"] = _digest(js.tau_i_stack_grid(m, y, i, 0)[0])
        out[f"{tag}/tau_i_stack_grid"] = _digest(js.tau_i_stack_grid(m, y, i, k + 1))
        out[f"{tag}/transfer_beta_grid"] = _digest(*js.transfer_beta_grid(m, y, i, k))
        tables = [js.transfer_beta_grid(m, p, i, k) for p in points]
        out[f"{tag}/transfer_beta"] = _digest(*(a for t in tables for a in t))
    return out


def test_transfer_tables_pinned(wobble_model, ripple_model, power_model):
    want = json.loads(TRANSFER_PINS.read_text())
    models = (("wobble", wobble_model), ("ripple", ripple_model), ("power", power_model))
    got = _transfer_tables(models)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
