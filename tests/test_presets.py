"""Analytic derivative stacks of the coefficient families.

Every family's `derivative` is checked against central finite differences of
its own value; closed forms (smoothstep polynomials, Gaussian Hermite
recursion) get exact oracles on top.
"""

import doctest
import math

import numpy as np
import pytest
import yaml

import jumpsmooth as js
from jumpsmooth.config import _FAMILIES, build_function

from conftest import fd_derivative

SMOOTH_FAMILIES = [
    (js.Affine(0.7, -1.3), 4, 0.05),
    (js.Sinusoidal(0.8, 1.7, phase=0.3), 5, 0.03),
    (js.ExpDecay(1.2, 0.9), 5, 0.03),
    (js.InversePower(2.0, 2.5), 4, 0.02),
    (js.IsoPower(1.5, 2.0), 4, 0.03),
    (js.GaussBump(1.1, 0.4, 0.8), 5, 0.03),
    (js.TanhSigmoid(0.9, 1.3), 5, 0.03),
    (js.StretchedExp(1.0, 0.7, 0.5, 2.0), 4, 0.02),
]


# one preset of every family
EVERY_FAMILY = [fn for fn, _, _ in SMOOTH_FAMILIES] + [
    js.Indicator(1.0, 2.0, 0.7),
    js.SmoothstepBump(0.0, 4.0, 1.0, 3, 0.2),
    js.Tabulated(np.linspace(0.0, 3.0, 7), np.sin(np.linspace(0.0, 3.0, 7))),
    js.FunctionSum(js.constant(0.6), js.Sinusoidal(0.3, 1.0), js.IsoPower(0.8, 1.0)),
    js.FunctionProduct(js.Affine(0.0, 1.0), js.ExpDecay(1.0, 0.7)),
]

# signed zeros, the Indicator and SmoothstepBump edges, the Tabulated knots
# and points between them
STACK_POINTS = np.concatenate([[0.0, -0.0, 1.0, 2.0, 3.0, 4.0], np.linspace(0.0, 3.0, 7),
                               np.linspace(-0.9, 4.7, 29)])


def _family_id(fn):
    return type(fn).__name__


@pytest.mark.parametrize("fn,order,h", SMOOTH_FAMILIES, ids=lambda f: type(f).__name__ if isinstance(f, js.Function1D) else None)
def test_family_derivatives_match_fd(fn, order, h):
    xs = np.array([0.15, 0.6, 1.4, 2.3])
    # low orders against FD of the value, the rest up the ladder: the l-th
    # analytic derivative must be the FD derivative of the (l-1)-th
    for l in range(1, order + 1):
        got = fn.derivative(xs, l)
        want = np.array([fd_derivative(lambda t: fn.value(t), x, l, h=h) for x in xs])
        scale = np.maximum(np.abs(want), 1.0)
        if l <= 2:
            assert np.all(np.abs(got - want) <= 2e-6 * scale), (type(fn).__name__, l)
        rung = np.array(
            [fd_derivative(lambda t: fn.derivative(t, l - 1), x, 1, h=2e-3) for x in xs]
        )
        assert np.all(np.abs(got - rung) <= 1e-7 * np.maximum(np.abs(rung), 1.0)), (
            type(fn).__name__, l,
        )


def test_stack_layout():
    fn = js.Sinusoidal(1.0, 2.0)
    xs = np.linspace(-1, 1, 5)
    st = fn.stack(xs, 3)
    assert st.shape == (4, 5)
    for l in range(4):
        assert np.allclose(st[l], fn.derivative(xs, l))


def test_affine_and_constant():
    f = js.Affine(2.0, -3.0)
    assert np.allclose(f.value(np.array([0.0, 1.0])), [2.0, -1.0])
    assert np.allclose(f.derivative(np.array([5.0]), 1), [-3.0])
    assert np.allclose(f.derivative(np.array([5.0]), 2), [0.0])
    c = js.constant(4.2)
    assert c.value(np.array([9.0]))[0] == 4.2
    assert not c.is_zero
    assert js.constant(0.0).is_zero


def test_function_sum_is_zero_when_every_part_is():
    assert js.FunctionSum(js.constant(0.0), js.Affine(0.0, 0.0)).is_zero
    assert not js.FunctionSum(js.constant(0.0), js.Sinusoidal(0.2, 1.0)).is_zero
    assert not js.FunctionSum(js.constant(0.0), js.constant(1e-300)).is_zero

def test_gauss_bump_hermite_oracle():
    # amp e^{-((x-c)/w)^2}: second derivative amp (4u^2 - 2)/w^2 e^{-u^2}.
    fn = js.GaussBump(2.0, 0.5, 1.5)
    x = np.array([1.1])
    u = (1.1 - 0.5) / 1.5
    want = 2.0 * (4 * u * u - 2) / 1.5**2 * math.exp(-u * u)
    assert fn.derivative(x, 2)[0] == pytest.approx(want, rel=1e-13)


def test_smoothstep_coefficients_classical():
    assert js.smoothstep_coefficients(1) == (0.0, 0.0, 3.0, -2.0)
    assert js.smoothstep_coefficients(2) == (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_smoothstep_endpoint_and_symmetry(order):
    coefs = js.smoothstep_coefficients(order)
    p = np.polynomial.Polynomial(coefs)
    assert p(0.0) == pytest.approx(0.0, abs=1e-12)
    assert p(1.0) == pytest.approx(1.0, rel=1e-12)
    for l in range(1, order + 1):
        assert p.deriv(l)(0.0) == pytest.approx(0.0, abs=1e-9)
        assert p.deriv(l)(1.0) == pytest.approx(0.0, abs=1e-9)
    xs = np.linspace(0, 1, 41)
    assert np.allclose(p(1.0 - xs), 1.0 - p(xs), atol=1e-10)
    # symmetry gives each ramp of the bump exactly half its width in mass
    assert p.integ()(1.0) - p.integ()(0.0) == pytest.approx(0.5, rel=1e-12)


def test_smoothstep_bump_plateau_and_support():
    bump = js.SmoothstepBump(1.0, 6.0, 1.0, 2, 1.0)
    xs = np.array([0.5, 1.0, 2.0, 3.7, 5.0, 6.0, 6.5])
    vals = bump.value(xs)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert np.allclose(vals[2:5], 1.0)
    assert bump.value(np.array([1.5]))[0] == pytest.approx(0.5, rel=1e-12)
    mid = bump.derivative(np.array([1.5]), 1)[0]
    assert mid == pytest.approx(15.0 / 8.0, rel=1e-12)  # max slope of order-2 step
    for l in range(1, 4):
        want = fd_derivative(lambda t: bump.value(t), 1.4, l, h=0.01)
        assert bump.derivative(np.array([1.4]), l)[0] == pytest.approx(
            want, rel=1e-5, abs=1e-5
        )
    assert bump.smooth_order == 2


def test_smoothstep_bump_needs_room_for_ramps():
    with pytest.raises(js.ContractError):
        js.SmoothstepBump(0.0, 1.5, 1.0, 2, 1.0)


def test_indicator():
    ind = js.Indicator(1.0, 2.0, 0.7)
    assert np.allclose(ind.value(np.array([0.9, 1.0, 1.5, 2.0])), [0, 0.7, 0.7, 0])
    assert np.allclose(ind.derivative(np.array([1.5]), 1), [0.0])
    assert ind.smooth_order == -1  # not even continuous


def test_tabulated_interpolates_nodes():
    xs = np.linspace(0, 3, 31)
    ys = np.sin(xs)
    tab = js.Tabulated(xs, ys)
    assert np.allclose(tab.value(xs), ys, atol=1e-12)
    assert tab.value(np.array([1.55]))[0] == pytest.approx(math.sin(1.55), abs=2e-3)


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        ([0.0, 1.0, math.nan, 3.0], [0.0, 1.0, 2.0, 3.0], "finite nodes and values"),
        ([0.0, 1.0, 2.0, math.inf], [0.0, 1.0, 2.0, 3.0], "finite nodes and values"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 2.0, 3.0], "finite nodes and values"),
        ([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0], "strictly increasing nodes"),
        ([3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0], "strictly increasing nodes"),
    ],
)
def test_tabulated_refuses_bad_nodes(xs, ys, message):
    # scipy's ValueError used to escape the library
    with pytest.raises(js.ContractError, match=f"^tabulated preset needs {message}$"):
        js.Tabulated(xs, ys)


def test_sum_and_product_stacks():
    f = js.FunctionSum(js.Sinusoidal(0.5, 1.0), js.constant(2.0))
    xs = np.array([0.3, 1.1])
    assert np.allclose(f.value(xs), 0.5 * np.sin(xs) + 2.0)
    assert np.allclose(f.derivative(xs, 2), -0.5 * np.sin(xs))

    g = js.FunctionProduct(js.Affine(0.0, 1.0), js.Affine(0.0, 1.0))  # x^2
    assert np.allclose(g.value(xs), xs**2)
    assert np.allclose(g.derivative(xs, 1), 2 * xs)
    assert np.allclose(g.derivative(xs, 2), 2.0)
    assert np.allclose(g.derivative(xs, 3), 0.0)

    # product rule against FD for a non-polynomial pair
    gp = js.FunctionProduct(js.Sinusoidal(1.0, 1.3), js.ExpDecay(1.0, 0.7))
    for l in range(1, 4):
        want = fd_derivative(lambda t: gp.value(t), 0.8, l, h=0.03)
        assert gp.derivative(np.array([0.8]), l)[0] == pytest.approx(want, rel=1e-6)


def test_jump_amplitude_stacks_and_bounds():
    h = js.JumpAmplitude(
        (
            (js.Sinusoidal(0.3, 1.0), js.ExpDecay(1.0, 1.0)),
            (js.constant(0.1), js.InversePower(1.0, 2.0)),
        )
    )
    y = np.array([0.4, 1.2])
    z = np.array([0.5, 2.0])
    want = 0.3 * np.sin(y) * np.exp(-z) + 0.1 * (1 + z) ** (-2)
    assert np.allclose(h.value(y, z), want)
    assert np.allclose(h.dy(y, z, 1), 0.3 * np.cos(y) * np.exp(-z))
    assert np.allclose(h.dz(y, z, 1), -0.3 * np.sin(y) * np.exp(-z) - 0.2 * (1 + z) ** (-3))
    ys = h.y_stack(y, z, 3)
    zs = h.z_stack(y, z, 3)
    assert ys.shape == (4, 2) and zs.shape == (4, 2)
    assert np.allclose(ys[0], want) and np.allclose(zs[0], want)
    assert h.smooth_order_y is None  # all terms smooth
    with pytest.raises(js.ContractError):
        js.JumpAmplitude(())


def test_describe_round_trip_labels():
    # every exported Function1D subclass is a config family, and each one's
    # describe() is a node build_function rebuilds it from, bit for bit
    cases = EVERY_FAMILY
    exported = {
        obj for obj in vars(js).values()
        if isinstance(obj, type) and issubclass(obj, js.Function1D) and obj is not js.Function1D
    }
    assert exported == set(_FAMILIES.values()) == {type(fn) for fn in cases}
    xs = np.linspace(-0.9, 3.7, 23)
    for fn in cases:
        d = fn.describe()
        assert isinstance(d, dict) and _FAMILIES[d["family"]] is type(fn)
        rebuilt = build_function(yaml.safe_load(yaml.safe_dump(d)))
        assert rebuilt == fn and rebuilt.describe() == d
        for l in range(4):
            assert np.array_equal(rebuilt.derivative(xs, l), fn.derivative(xs, l))


def test_describe_takes_numpy_scalars():
    # parameters given as numpy scalars are described as Python ones, so a
    # YAML safe dumper takes the node and build_function rebuilds the preset
    cases = [
        js.GaussBump(np.float64(1.0)),
        js.SmoothstepBump(0.0, 4.0, np.float64(1.0), np.int64(3), 0.2),
        js.FunctionSum(js.Affine(np.float64(0.6), np.float64(-0.1)), js.Sinusoidal(np.float64(0.3))),
    ]
    for fn in cases:
        rebuilt = build_function(yaml.safe_load(yaml.safe_dump(fn.describe())))
        assert rebuilt == fn and rebuilt.describe() == fn.describe()


@pytest.mark.parametrize("fn", EVERY_FAMILY, ids=_family_id)
def test_stack_rows_are_the_derivatives_to_the_byte(fn):
    # a family implements one primitive and the base class derives the
    # other: both paths give the same bytes, signed zeros included
    for shape in [STACK_POINTS.shape, (6, 7)]:
        x = STACK_POINTS[: math.prod(shape)].reshape(shape)
        for k in range(5):
            st = fn.stack(x, k)
            assert st.shape == (k + 1,) + shape
            for l in range(k + 1):
                assert st[l].tobytes() == np.asarray(fn.derivative(x, l)).tobytes(), (k, l)
        assert np.asarray(fn.value(x)).tobytes() == fn.stack(x, 0)[0].tobytes()


def test_jump_amplitude_stacks_are_the_partials_to_the_byte():
    h = js.JumpAmplitude((
        (js.Sinusoidal(0.3, 1.0), js.ExpDecay(1.0, 1.0)),
        (js.constant(0.1), js.InversePower(1.0, 2.0)),
        (js.IsoPower(0.5, 1.0), js.SmoothstepBump(0.0, 4.0, 1.0, 3, 0.2)),
    ))
    y = STACK_POINTS
    z = np.abs(STACK_POINTS[:7])
    # one mark, marks against states, and states against marks
    for yy, zz in [(y, 1.5), (y[:, None], z), (y[:7], z[:, None, None])]:
        for k in range(5):
            ys, zs = h.y_stack(yy, zz, k), h.z_stack(yy, zz, k)
            shape = np.broadcast_shapes(np.shape(yy), np.shape(zz))
            assert ys.shape == zs.shape == (k + 1,) + shape
            for l in range(k + 1):
                assert ys[l].tobytes() == h.dy(yy, zz, l).tobytes(), (k, l)
                assert zs[l].tobytes() == h.dz(yy, zz, l).tobytes(), (k, l)


def test_jump_amplitude_affine_parts():
    h = js.JumpAmplitude((
        (js.Affine(0.1, 0.3), js.ExpDecay(1.0, 1.0)),
        (js.constant(0.2), js.InversePower(1.0, 2.0)),
        (js.Affine(0.0, -0.05), js.SmoothstepBump(0.0, 4.0, 1.0, 3, 0.2)),
    ))
    y = STACK_POINTS[:, None]
    z = np.abs(STACK_POINTS[:7])
    shift, scale = h.affine(z)
    assert shift.shape == scale.shape == z.shape
    np.testing.assert_allclose(h.value(y, z), shift + scale * y, rtol=1e-14, atol=1e-15)
    # B is row 1 of the y-stack, to the byte
    assert np.broadcast_to(scale, (y.size, z.size)).tobytes() == h.y_stack(y, z, 1)[1].tobytes()
    for fy in (js.Sinusoidal(0.3, 1.0), js.FunctionSum(js.Affine(0.1, 0.3))):
        other = js.JumpAmplitude(h.terms + ((fy, js.ExpDecay(1.0, 1.0)),))
        assert other.affine(z) is None


def test_exp_decay_computes_only_the_order_asked_for(monkeypatch):
    # one exp for one order: `check_B` and the kernels ask for dz at order 1
    f = js.ExpDecay(2.0, 0.7)
    x = STACK_POINTS
    want = [f.stack(x, 4)[l].tobytes() for l in range(5)]
    monkeypatch.setattr(js.ExpDecay, "_stack", lambda self, x, order: pytest.fail("stacked"))
    for l in range(5):
        assert f.derivative(x, l).tobytes() == want[l]


@pytest.mark.parametrize("fn", EVERY_FAMILY, ids=_family_id)
def test_derivative_orders_outside_the_range_are_refused(fn):
    # a negative order used to extrapolate, a fractional one came back
    # complex and a large one failed deep in a composition table
    x = np.array([0.5, 1.0])
    for bad in (-1, 2.5, 17):
        with pytest.raises(js.ContractError, match=r"outside \[0, 16\]"):
            fn.derivative(x, bad)
        with pytest.raises(js.ContractError, match=r"outside \[0, 16\]"):
            fn.stack(x, bad)
    h = js.JumpAmplitude(((js.constant(0.4), fn),))
    for bad in (-1, 2.5, 17):
        for method in (h.dy, h.dz, h.y_stack, h.z_stack):
            with pytest.raises(js.ContractError, match=r"outside \[0, 16\]"):
                method(x, x, bad)


def test_presets_doctests_pass():
    result = doctest.testmod(js.presets)
    assert result.attempted >= 3
    assert result.failed == 0
