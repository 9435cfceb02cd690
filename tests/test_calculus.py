"""Composition, inversion, and transfer-coefficient oracles.

Frozen reference values come from symbolic expansion or classical series
(Bell numbers, log derivatives, Lagrange reversion); randomized sweeps check
against an independent polynomial-arithmetic oracle.
"""

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
# solve_tau / solve_tau_i
# ---------------------------------------------------------------------------


def test_solve_tau_constant_shift():
    m = _exp_model(js.constant(1.0))
    # h = e^{-z}, independent of y: tau = y - e^{-z}.
    for y, z in [(0.0, 0.5), (2.0, 1.0), (-1.5, 2.0)]:
        assert js.solve_tau(m, y, z) == pytest.approx(y - math.exp(-z), abs=1e-12)


def test_solve_tau_linear_map():
    m = _exp_model(js.Affine(0.0, 0.5))
    # h = 0.5 y e^{-z}: tau = y / (1 + 0.5 e^{-z}).
    for y in [-2.0, 0.3, 4.0]:
        for z in [0.2, 1.0, 3.0]:
            assert js.solve_tau(m, y, z) == pytest.approx(
                y / (1.0 + 0.5 * math.exp(-z)), rel=1e-12
            )


def test_solve_tau_tanh_vs_bisection():
    m = _exp_model(js.TanhSigmoid(0.5, 1.0), amp_eta=0.5)
    for y in np.linspace(-3, 3, 7):
        for z in [0.1, 1.0, 2.5]:
            tau = js.solve_tau(m, float(y), float(z))
            assert abs(tau + 0.5 * math.tanh(tau) * math.exp(-z) - y) <= 1e-12
            oracle = brentq(
                lambda x: x + 0.5 * math.tanh(x) * math.exp(-z) - y,
                y - 1.0, y + 1.0, xtol=1e-14,
            )
            assert tau == pytest.approx(oracle, abs=1e-10)


def test_solve_tau_grid_matches_scalar():
    m = _exp_model(js.Sinusoidal(0.4, 1.0))
    ys = np.linspace(-2, 2, 11)
    grid = js.solve_tau_grid(m, ys, 0.7)
    for y, t in zip(ys, grid):
        assert t == pytest.approx(js.solve_tau(m, float(y), 0.7), abs=1e-12)


def test_solve_tau_i_exact_cases():
    m0 = _exp_model(js.constant(1.0))
    assert js.solve_tau_i(m0, 1.3, 5) == pytest.approx(1.3, abs=1e-14)
    mb = _exp_model(js.constant(1.0), b=js.constant(0.7))
    assert js.solve_tau_i(mb, 1.3, 4) == pytest.approx(1.3 - 0.7 / 4.0, abs=1e-13)


def test_solve_tau_i_sin_vs_bisection():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(1.0, 1.0))
    for y in np.linspace(-3, 3, 9):
        tau = js.solve_tau_i(m, float(y), 10)
        assert abs(tau + math.sin(tau) / 10.0 - y) <= 1e-12
        assert abs(tau - y) <= 0.1
        oracle = brentq(lambda x: x + math.sin(x) / 10.0 - y, y - 0.2, y + 0.2, xtol=1e-14)
        assert tau == pytest.approx(oracle, abs=1e-10)


def test_solve_tau_i_below_index_floor():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(3.0, 1.0))
    with pytest.raises(js.ContractError, match="i0=6"):
        js.solve_tau_i(m, 0.0, 2)


# ---------------------------------------------------------------------------
# transfer coefficients
# ---------------------------------------------------------------------------


def test_transfer_alpha_shift_model_vanishes():
    m = _exp_model(js.constant(1.0))
    tc = js.transfer_alpha(m, 0.7, 1.2, 3)
    assert np.allclose(tc.table, 0.0, atol=1e-12)


def test_transfer_alpha_hand_values():
    m = _exp_model(js.Sinusoidal(0.3, 1.0), amp_eta=0.3)
    y, z = 1.0, 0.4
    tc = js.transfer_alpha(m, y, z, 2)
    tau = tc.tau_stack.values
    assert tc.table[0, 0] == pytest.approx(tau[1] - 1.0, rel=1e-12)
    assert tc.table[1, 0] == pytest.approx(tau[2], rel=1e-10)
    assert tc.table[1, 1] == pytest.approx(tau[1] ** 2 - 1.0, rel=1e-10)
    assert tc.table[2, 0] == pytest.approx(tau[3], rel=1e-8)
    assert tc.table[2, 1] == pytest.approx(3.0 * tau[1] * tau[2], rel=1e-10)
    assert tc.table[2, 2] == pytest.approx(tau[1] ** 3 - 1.0, rel=1e-10)


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
    tc = js.transfer_alpha(m, y0, z0, 2)
    tau0 = tc.tau_stack.values[0]
    PhiP = np.polynomial.Polynomial(Phi)

    def big(y):
        return PhiP(js.solve_tau(m, float(y), z0))

    for l in range(3):
        lhs = fd_derivative(big, y0, l + 1, h=0.02)
        rhs = _phi_rhs(tc.table, tau0, phi, l)
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
        tc = js.transfer_alpha(m, y0, z0, l)
        tau0 = tc.tau_stack.values[0]
        PhiP = np.polynomial.Polynomial(Phi)

        def big(y):
            return PhiP(js.solve_tau(m, float(y), z0, 1e-14))

        lhs = fd_derivative(big, y0, l + 1, h=0.02)
        rhs = _phi_rhs(tc.table, tau0, phi, l)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_transfer_alpha_cubic_exact_for_linear_state():
    # h = 0.4 y e^{-z}: tau(y) = y/s with s = 1 + 0.4 e^{-z}, so the identity
    # is exact at every order: [phi(y/s)/s]^(l) = phi^(l)(y/s) / s^(l+1).
    m = _exp_model(js.Affine(0.0, 0.4), amp_eta=0.4)
    y0, z0 = 1.7, 0.6
    s = 1.0 + 0.4 * math.exp(-z0)
    phi = np.array([0.3, -1.0, 0.5, 2.0, -0.7])
    tc = js.transfer_alpha(m, y0, z0, 3)
    tau0 = tc.tau_stack.values[0]
    assert tau0 == pytest.approx(y0 / s, rel=1e-13)
    stack = poly_taylor(phi, tau0, 3)
    for l in range(4):
        lhs = stack[l] / s ** (l + 1)
        rhs = _phi_rhs(tc.table, tau0, phi, l)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_transfer_beta_zero_and_constant_drift():
    m0 = _exp_model(js.constant(1.0))
    tc = js.transfer_beta(m0, 0.3, 20, 3)
    assert np.allclose(tc.table, 0.0, atol=1e-13)
    mc = _exp_model(js.constant(1.0), b=js.constant(2.0))
    tc = js.transfer_beta(mc, 0.3, 20, 3)
    assert np.allclose(tc.table, 0.0, atol=1e-12)
    assert tc.tau_stack.values[0] == pytest.approx(0.3 - 2.0 / 20.0, abs=1e-12)


def test_transfer_beta_identity_vs_fd():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(1.0, 1.0))
    y0 = 0.8
    phi = np.array([0.0, -1.0, 0.5, 1.0])
    Phi = np.polynomial.Polynomial(phi).integ().coef
    PhiP = np.polynomial.Polynomial(Phi)
    for i in (20, 40, 80):
        tc = js.transfer_beta(m, y0, i, 2)
        tau0 = tc.tau_stack.values[0]

        def big(y):
            return PhiP(js.solve_tau_i(m, float(y), i))

        for l in range(3):
            lhs = fd_derivative(big, y0, l + 1, h=0.02)
            rhs = _phi_rhs(tc.table, tau0, phi, l)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_transfer_beta_scaled_sum_bounded_as_i_doubles():
    m = _exp_model(js.constant(1.0), b=js.Sinusoidal(1.0, 1.0))
    sums = {}
    for i in (20, 40, 80):
        worst = 0.0
        for y in np.linspace(-3, 3, 13):
            tc = js.transfer_beta(m, float(y), i, 3)
            worst = max(worst, i * float(np.sum(np.abs(tc.table))))
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
        tc = js.transfer_beta(m, y0, i, l)
        tau0 = tc.tau_stack.values[0]

        def big(y):
            return PhiP(js.solve_tau_i(m, float(y), i, 1e-14))

        lhs = fd_derivative(big, y0, l + 1, h=0.02)
        rhs = _phi_rhs(tc.table, tau0, phi, l)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))


def test_tau_stack_grid_consistency():
    m = _exp_model(js.Sinusoidal(0.3, 1.0), amp_eta=0.3)
    ys = np.linspace(-2, 2, 9)
    stacks = js.tau_stack_grid(m, ys, 0.5, 3)
    assert stacks.shape == (4, ys.size)
    for j, y in enumerate(ys):
        tau = js.solve_tau(m, float(y), 0.5)
        assert stacks[0, j] == pytest.approx(tau, abs=1e-12)
        fd = fd_derivative(lambda t: js.solve_tau(m, float(t), 0.5), float(y), 2, h=0.02)
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


def test_calculus_doctests_pass():
    result = doctest.testmod(js.calculus)
    assert result.attempted >= 8
    assert result.failed == 0


# ---------------------------------------------------------------------------
# pinned inverse maps and transfer tables
# ---------------------------------------------------------------------------

# sha256 of the raw float64 bytes of every inverse-map and transfer-table
# output, recorded from the separate jump and drift pipelines that preceded
# the shared one; the arithmetic is unchanged, so every digest must repeat
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
            out[f"{tag}/solve_tau_grid"] = _digest(js.solve_tau_grid(m, y, z))
            out[f"{tag}/tau_stack_grid"] = _digest(js.tau_stack_grid(m, y, z, k + 1))
            out[f"{tag}/transfer_alpha_grid"] = _digest(*js.transfer_alpha_grid(m, y, z, k))
            tables = [js.transfer_alpha(m, p, z, k) for p in points]
            out[f"{tag}/transfer_alpha"] = _digest(
                *(a for t in tables for a in (t.table, t.tau_stack.values))
            )
        i = PIN_DRIFT_INDEX
        tag = f"{name}/i={i}"
        out[f"{tag}/solve_tau_i_grid"] = _digest(js.solve_tau_i_grid(m, y, i))
        out[f"{tag}/tau_i_stack_grid"] = _digest(js.tau_i_stack_grid(m, y, i, k + 1))
        out[f"{tag}/transfer_beta_grid"] = _digest(*js.transfer_beta_grid(m, y, i, k))
        tables = [js.transfer_beta(m, p, i, k) for p in points]
        out[f"{tag}/transfer_beta"] = _digest(
            *(a for t in tables for a in (t.table, t.tau_stack.values))
        )
    return out


def test_transfer_tables_pinned(wobble_model, ripple_model, power_model):
    want = json.loads(TRANSFER_PINS.read_text())
    models = (("wobble", wobble_model), ("ripple", ripple_model), ("power", power_model))
    got = _transfer_tables(models)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
