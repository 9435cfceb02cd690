"""Assumption audits: slope condition, smoothness budget, inversion budget."""

import dataclasses
import doctest
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import jumpsmooth as js
from jumpsmooth.config import build_model

from conftest import BENCH_WORKLOADS, NaNBeyond


def _model(h_terms, eta, k=2, p=2.0, window=(-10.0, 10.0), gamma=None, b=None,
           truncs=(4.0, 8.0), density=None):
    h = js.JumpAmplitude(h_terms)
    q = js.JumpMeasureSpec(
        (0.0, np.inf), density if density is not None else js.constant(1.0), truncs
    )
    return js.CoefficientSet(
        b=b if b is not None else js.constant(0.0),
        gamma=gamma if gamma is not None else js.constant(1.0),
        h=h, eta=eta, q=q, k=k, p=p, y_window=window,
    )


# ---------------------------------------------------------------------------
# mark measure plumbing
# ---------------------------------------------------------------------------


def test_measure_orientations_and_intervals():
    right = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (1.0, 3.0))
    assert right.orientation == "right"
    assert right.anchor == 0.0
    assert right.trunc_interval(1) == (0.0, 1.0)
    assert right.trunc_interval(2) == (0.0, 3.0)

    left = js.JumpMeasureSpec((-np.inf, 2.0), js.constant(1.0), (1.0, 5.0))
    assert left.orientation == "left"
    assert left.anchor == 2.0
    assert left.trunc_interval(2) == (-3.0, 2.0)

    both = js.JumpMeasureSpec((-np.inf, np.inf), js.GaussBump(1.0, 0.0, 1.0), (2.0, 4.0))
    assert both.orientation == "both"
    assert both.anchor == 0.0 and both.direction == 1.0
    assert both.trunc_interval(1) == (-2.0, 2.0)
    assert both.trunc_interval(2) == (-4.0, 4.0)


def test_measure_masses():
    uniform = js.JumpMeasureSpec((0.0, np.inf), js.Indicator(0.0, 1.0, 1.0), (0.5, 2.0))
    assert uniform.trunc_mass(1) == pytest.approx(0.5, rel=1e-12)
    assert uniform.trunc_mass(2) == pytest.approx(1.0, rel=1e-9)
    expd = js.JumpMeasureSpec((0.0, np.inf), js.ExpDecay(1.0, 1.0), (1.0,))
    assert expd.trunc_mass(1) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)


def test_measure_invalid_specs():
    with pytest.raises(js.ContractError):
        js.JumpMeasureSpec((3.0, 1.0), js.constant(1.0), (1.0,))
    with pytest.raises(js.ContractError):
        js.JumpMeasureSpec((0.0, 5.0), js.constant(1.0), (1.0,))  # bounded support
    with pytest.raises(js.ContractError):
        js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0, 1.0))
    with pytest.raises(js.ContractError):
        js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), ())
    spec = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (1.0,))
    with pytest.raises(js.ContractError):
        spec.trunc_interval(2)
    with pytest.raises(js.InvalidModelError):
        js.JumpMeasureSpec(
            (0.0, np.inf), js.Affine(0.5, -1.0), (2.0,)
        ).interval_mass(0.0, 2.0)  # negative density inside support


def test_coefficient_set_validation():
    good = _model(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.2, 1.0))
    assert good.gamma_sup() == 1.0
    assert good.min_drift_index() == 1
    with pytest.raises(js.ContractError):
        js.CoefficientSet(
            b=good.b, gamma=good.gamma, h=good.h, eta=good.eta, q=good.q, k=0
        )
    # an infinite window, or one whose width overflows, used to load and end
    # every audit in "non-finite at y=nan"
    for window in ((2.0, -2.0), (2.0, 2.0), (-2.0, math.nan), (-math.inf, math.inf),
                   (-1e308, 1e308)):
        with pytest.raises(js.ContractError, match="audit window must be finite with hi > lo"):
            dataclasses.replace(good, y_window=window)


@pytest.mark.parametrize(
    "build, message",
    [
        # k = 2.5 built and ended check_A in a bare TypeError; True audited as k = 1
        (lambda good: dataclasses.replace(good, k=2.5),
         r"^smoothness budget k must be an integer, got 2\.5$"),
        (lambda good: dataclasses.replace(good, k=True),
         r"^smoothness budget k must be an integer, got True$"),
        # p = inf passed every audit on the states in [-1, 1]; nan failed them with NaN constants
        (lambda good: dataclasses.replace(good, p=math.inf),
         r"^weight power p must be finite and >= 1, got inf$"),
        (lambda good: dataclasses.replace(good, p=math.nan),
         r"^weight power p must be finite and >= 1, got nan$"),
        # an infinite or NaN extent blamed the amplitude or the density at z=nan
        (lambda good: dataclasses.replace(good.q, truncations=(2.0, 4.0, math.inf)),
         r"^truncations must be finite, positive and strictly increasing$"),
        (lambda good: dataclasses.replace(good.q, truncations=(2.0, math.nan)),
         r"^truncations must be finite, positive and strictly increasing$"),
        # each of these built and failed, or evaluated outside [0, 1], when first read
        (lambda good: js.SmoothstepBump(0.0, 4.0, 1.0, 2.5), r"^derivative order 2\.5 outside \[0, 16\]$"),
        (lambda good: js.SmoothstepBump(0.0, 4.0, 1.0, -1), r"^derivative order -1 outside \[0, 16\]$"),
        (lambda good: js.SmoothstepBump(0.0, 4.0, 1.0, 17), r"^derivative order 17 outside \[0, 16\]$"),
    ],
    ids=["k-2.5", "k-True", "p-inf", "p-nan", "trunc-inf", "trunc-nan",
         "smoothstep-2.5", "smoothstep--1", "smoothstep-17"],
)
def test_a_setting_is_refused_when_its_object_is_built(build, message):
    good = _model(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.2, 1.0))
    with pytest.raises(js.ContractError, match=message):
        build(good)


def test_min_drift_index_scales_with_slope():
    m = _model(
        ((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.2, 1.0),
        b=js.Sinusoidal(3.0, 1.0),
    )
    assert m.min_drift_index() == 6  # 2 sup|b'| = 6


def test_non_finite_drift_and_rate_name_the_state_as_a_float():
    # y^-2 has a pole at the grid point y = 0; the messages used to read
    # y=np.float64(0.0)
    pole = js.InversePower(1.0, 2.0, offset=0.0)
    m = _model(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.2, 1.0),
               window=(-2.0, 2.0), b=pole, gamma=pole)
    with np.errstate(divide="ignore"):
        with pytest.raises(js.InvalidModelError) as drift:
            m.b_prime_sup()
        with pytest.raises(js.InvalidModelError) as rate:
            m.gamma_sup()
    assert str(drift.value) == "drift derivative 1 non-finite at y=0.0"
    assert str(rate.value) == "jump rate non-finite at y=0.0"


def test_density_at_names_the_first_mark_that_is_not_finite_or_is_negative():
    # 1 - 0.6 z is negative past z = 5/3; NaNBeyond adds NaN past its edge
    def q(density):
        return js.JumpMeasureSpec((0.0, np.inf), density, (3.0,))

    line = js.Affine(1.0, -0.6)
    z = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(q(line).density_at(z[:2]), [1.0, 0.4])
    for edge, message in ((2.5, "negative at z=2.0"), (0.5, "non-finite at z=1.0")):
        bad = q(js.FunctionSum(line, NaNBeyond(0.0, 1.0, edge=edge)))
        with pytest.raises(js.InvalidModelError) as err:
            bad.density_at(z)
        assert str(err.value) == f"mark density {message}"
    # the mass and the sampler read the density through the same rule
    with pytest.raises(js.InvalidModelError, match="^mark density negative at z="):
        q(line).interval_mass(0.0, 3.0)
    with pytest.raises(js.InvalidModelError, match="^mark density negative at z="):
        js.MarkSampler(q(line), (0.0, 3.0))
    assert q(js.constant(0.0)).interval_mass(0.0, 3.0) == 0.0  # a zero density is legal


@pytest.mark.parametrize("audit", ["gamma_sup", "check_A"])
def test_a_negative_rate_on_the_audit_window_is_refused(audit):
    # 0.1 + y on (-1, 1): check_A used to pass it and `gamma_sup` to read |gamma|
    m = _model(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.2, 1.0),
               window=(-1.0, 1.0), gamma=js.Affine(0.1, 1.0))
    run = m.gamma_sup if audit == "gamma_sup" else (lambda: js.check_A(m))
    with pytest.raises(js.InvalidModelError, match=r"^jump rate negative at y=-1\.0$"):
        run()
    assert dataclasses.replace(m, gamma=js.constant(0.0)).gamma_sup() == 0.0  # zero stays legal


def test_check_A_refuses_a_negative_mark_density():
    # 1 - 0.6 z on marks (0, 3): check_A used to pass it
    m = _model(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.2, 1.0),
               window=(-1.0, 1.0), truncs=(3.0,), density=js.Affine(1.0, -0.6))
    with pytest.raises(js.InvalidModelError, match="^mark density negative at z="):
        js.check_A(m)


# ---------------------------------------------------------------------------
# slope condition
# ---------------------------------------------------------------------------


def test_slope_condition_passes_smooth_model(wobble_model):
    rep = js.check_S(wobble_model)
    assert rep.passed
    assert rep.constants["c0"] > 0.5  # |dh/dy| = 0 here
    assert rep.name == "slope"
    d = rep.to_dict()
    assert d["passed"] is True


def test_slope_condition_fails_collapse_model(collapse_model):
    rep = js.check_S(collapse_model)
    assert not rep.passed
    # witness sits where the mark kills the state: z in (1, 2)
    assert 1.0 <= rep.worst["z"] <= 2.0
    assert rep.constants["c0"] <= 1e-8


def test_slope_condition_margin_tracks_amplitude():
    m = _model(((js.Sinusoidal(0.4, 1.0), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.4, 1.0))
    rep = js.check_S(m)
    assert rep.passed
    # min slope = 1 - 0.4 at cos=-1*... e^{-z} maximal at z=0+
    assert rep.constants["c0"] == pytest.approx(0.6, abs=5e-3)


def _pole_model():
    # the state factor y^-2 has a pole at the grid point y = 0
    pole = js.InversePower(1.0, 2.0, offset=0.0)
    return _model(((pole, js.ExpDecay(1.0, 1.0)),), js.ExpDecay(0.2, 1.0), window=(-2.0, 2.0))


def test_non_finite_slope_names_the_grid_pair():
    m = _pole_model()
    z0 = float(m.z_audit_grid()[0])
    with np.errstate(divide="ignore"), pytest.raises(js.InvalidModelError) as err:
        js.check_S(m)
    assert str(err.value) == f"jump amplitude slope non-finite at y=0.0, z={z0!r}"


# ---------------------------------------------------------------------------
# smoothness budget
# ---------------------------------------------------------------------------


def test_budget_passes_sin_exp_model():
    m = _model(((js.Sinusoidal(1.0, 1.0), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(1.0, 1.0))
    rep = js.check_A(m)
    assert rep.passed
    assert rep.constants["eta_L1"] == pytest.approx(1.0, rel=1e-6)
    assert max(rep.details["domination_margins"].values()) <= 1e-12


def test_budget_fails_unbounded_state_factor():
    m = _model(((js.Affine(0.0, 1.0), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(1.0, 1.0))
    rep = js.check_A(m)
    assert not rep.passed
    assert rep.worst["l"] == 0  # value escapes eta, first derivative does not
    assert abs(rep.worst["y"]) == pytest.approx(10.0, abs=1e-9)


def test_budget_integrability_constants_power_law():
    m = _model(
        ((js.IsoPower(1.0, 2.0), js.InversePower(1.0, 2.0)),),
        js.InversePower(1.0, 2.0), k=1, p=3.0,
    )
    rep = js.check_A(m)
    assert rep.passed
    # eta = (1+z)^-2 on [0, H], H = max(40, 4 x the widest truncation 8)
    horizon = rep.details["quad_horizon"]
    assert horizon == 40.0
    assert rep.constants["eta_L1"] == pytest.approx(horizon / (1.0 + horizon), rel=1e-12)
    assert rep.constants["eta_Lp"] == pytest.approx(
        (1.0 - (1.0 + horizon) ** -5) / 5.0, rel=1e-12
    )


def test_non_finite_budget_values_on_the_audit_grid_name_their_point():
    m = _pole_model()
    z0 = float(m.z_audit_grid()[0])
    with np.errstate(divide="ignore"), pytest.raises(js.InvalidModelError) as err:
        js.check_A(m)
    assert str(err.value) == f"jump amplitude derivative 0 non-finite at y=0.0, z={z0!r}"
    # eta is read first, on the marks of the grid alone
    m = _model(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), NaNBeyond(1.0, 1.0, edge=5.0))
    z = m.z_audit_grid()
    with pytest.raises(js.InvalidModelError) as err:
        js.check_A(m)
    assert str(err.value) == f"eta non-finite at z={float(z[z > 5.0][0])!r}"


@pytest.mark.parametrize("name, tag", [("eta", "eta"), ("density", "mark density")])
def test_budget_refuses_a_value_not_finite_at_its_quadrature_nodes(name, tag):
    # NaN only beyond z = 20: the audit grid, out to the widest truncation 8,
    # never reads it, and the quadrature on [0, 40] does.  The audit used to
    # pass it on as a failed verdict with a NaN integral.
    bad = NaNBeyond(1.0, 0.0 if name == "density" else 1.0, edge=20.0)
    m = _model(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),), js.ExpDecay(1.0, 1.0))
    m = dataclasses.replace(m, eta=bad) if name == "eta" else dataclasses.replace(
        m, q=dataclasses.replace(m.q, density=bad)
    )
    z, _ = js.gauss_panels(0.0, 40.0)
    with pytest.raises(js.InvalidModelError) as err:
        js.check_A(m)
    assert str(err.value) == f"{tag} non-finite at z={float(z[z > 20.0][0])!r}"

def test_budget_refuses_drift_less_smooth_than_k():
    xs = np.linspace(-12.0, 12.0, 13)
    drift = js.Tabulated(xs, 0.1 * np.sin(xs))  # cubic spline: smooth_order 2
    terms = ((js.constant(0.4), js.ExpDecay(1.0, 1.0)),)
    assert js.check_A(_model(terms, js.ExpDecay(0.4, 1.0), k=2, b=drift)).passed
    rep = js.check_A(_model(terms, js.ExpDecay(0.4, 1.0), k=5, b=drift))
    assert not rep.passed
    assert rep.details["smooth_order_below_k"] == {"b": 2}


def test_budget_refuses_indicator_state_factor():
    terms = ((js.Indicator(-1.0, 1.0, 0.4), js.ExpDecay(1.0, 1.0)),)
    rep = js.check_A(_model(terms, js.ExpDecay(0.4, 1.0), k=2))
    assert not rep.passed
    assert rep.details["smooth_order_below_k"] == {"h": -1}
    assert max(rep.details["domination_margins"].values()) <= 1e-12  # eta still dominates


def test_budget_second_order_fails_iso_power_state():
    # |d^2/dy^2 (1+y^2)^{-1/2 * 2}| reaches 2 at y=0, above eta amp 1
    m = _model(
        ((js.IsoPower(1.0, 2.0), js.InversePower(1.0, 2.0)),),
        js.InversePower(1.0, 2.0), k=2, p=3.0,
    )
    rep = js.check_A(m)
    assert not rep.passed
    assert rep.worst["l"] == 2
    assert abs(rep.worst["y"]) <= 0.5


# ---------------------------------------------------------------------------
# inversion budget
# ---------------------------------------------------------------------------


def test_inversion_budget_linear_displacement_flat_profile():
    # h = c z: |dh/dz|^{-2k} = c^{-2k} for every window, so the per-n
    # constant is exactly c^{-2k} and any positive theta passes.
    c = 0.7
    m = _model(((js.constant(1.0), js.Affine(0.0, c)),), js.constant(10.0),
               window=(-2.0, 2.0), truncs=(20.0, 60.0))
    rep = js.check_B(m, n_max=10, theta=0.1)
    assert rep.passed
    per_n = np.array(rep.details["per_n_constant"])
    assert np.allclose(per_n, c ** (-4), rtol=1e-8)


def test_inversion_budget_exponential_threshold(exp_unit_model):
    # |h_z| = e^{-z}: integral of e^{2kz} over [0, n] grows like e^{2kn} / 2k,
    # so the budget needs theta >= 2k d = 4; 4.2 passes and 3.5 fails.
    assert js.check_B(exp_unit_model, n_max=12, theta=4.2).passed
    rep = js.check_B(exp_unit_model, n_max=12, theta=3.5)
    assert not rep.passed
    assert rep.details["budget_ok"] is False


def test_inversion_budget_scales_with_rate_floor():
    # gamma_min = 0.5 doubles the window length n / gamma, steepening the
    # exponential budget to 2 k d / gamma_min = 8.
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(0.5),
        h=js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),)),
        eta=js.ExpDecay(1.0, 1.0),
        q=js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (30.0,)),
        k=2, y_window=(-2.0, 2.0),
    )
    assert js.check_B(m, n_max=10, theta=8.4).passed
    assert not js.check_B(m, n_max=10, theta=7.0).passed


def test_inversion_budget_rejects_vanishing_slope(collapse_model):
    # displacement is flat in z across most of the window
    with pytest.raises(js.DegenerateKernelError):
        js.check_B(collapse_model, n_max=4, theta=1.0)


def test_inversion_budget_fails_stretched_exponential():
    # |h_z| ~ z^{1/2} e^{-z^{3/2}}: the budget integral grows like
    # e^{2k n^{3/2}}, strictly faster than the declared e^{theta n} envelope.
    m = _model(
        ((js.constant(1.0), js.StretchedExp(1.0, 1.0, 1.5, 0.0)),),
        js.constant(2.0), window=(-2.0, 2.0), truncs=(12.0,),
    )
    rep = js.check_B(m, n_max=8, theta=6.0)
    assert not rep.passed
    assert rep.details["budget_ok"] is False


def test_inversion_budget_super_gaussian_slope_collapses():
    # |h_z| ~ z e^{-z^2} falls through the resolvable-slope floor inside the
    # audited window: the kernel construction cannot invert there at all.
    m = _model(
        ((js.constant(1.0), js.StretchedExp(1.0, 1.0, 2.0, 0.0)),),
        js.constant(2.0), window=(-2.0, 2.0), truncs=(12.0,),
    )
    with pytest.raises(js.DegenerateKernelError):
        js.check_B(m, n_max=8, theta=20.0)


def test_inversion_budget_flags_sub_lebesgue_density():
    m = _model(
        ((js.constant(1.0), js.Affine(0.0, 1.0)),), js.constant(10.0),
        window=(-2.0, 2.0), truncs=(8.0,), density=js.constant(0.5),
    )
    rep = js.check_B(m, n_max=4, theta=1.0)
    assert not rep.passed
    assert rep.details["lebesgue_ok"] is False
    assert rep.constants["density_floor"] == pytest.approx(0.5, rel=1e-12)


def test_inversion_budget_refuses_nan_density(exp_unit_model):
    # Python's min skips NaN: the audit used to pass with density_floor inf
    q = dataclasses.replace(exp_unit_model.q, density=js.Affine(math.nan, 0.0))
    m = dataclasses.replace(exp_unit_model, q=q)
    with pytest.raises(js.InvalidModelError, match="mark density non-finite at z="):
        js.check_B(m, n_max=6, theta=4.2)


def test_inversion_budget_refuses_a_slope_not_finite_at_its_quadrature_nodes(exp_unit_model):
    # dh/dz NaN beyond z = 20, which the windows of n >= 21 reach: the audit
    # used to report a failed verdict with NaN per_n_constant.  The first
    # state, then the first n, then the first node names it.
    h = js.JumpAmplitude(((js.constant(1.0), NaNBeyond(1.0, 1.0, edge=20.0)),))
    m = dataclasses.replace(exp_unit_model, h=h)
    z, _ = js.gauss_panels(0.0, 21.0)
    with pytest.raises(js.InvalidModelError) as err:
        js.check_B(m, n_max=24, theta=4.2)
    assert str(err.value) == f"dh/dz non-finite at y=-4.0, z={float(z[z > 20.0][0])!r}"

def test_inversion_budget_argument_validation(exp_unit_model):
    with pytest.raises(js.ContractError):
        js.check_B(exp_unit_model, n_max=1, theta=1.0)
    with pytest.raises(js.ContractError):
        js.check_B(exp_unit_model, n_max=4, theta=-0.5)


def test_inversion_budget_refuses_nonpositive_rate():
    # gamma(y) = y is negative on half the audit window: no kernel frame there
    m = _model(((js.constant(1.0), js.Affine(0.0, 1.0)),), js.constant(1.0),
               window=(-2.0, 2.0), gamma=js.Affine(0.0, 1.0))
    with pytest.raises(js.InvalidModelError, match="jump rate must be positive"):
        js.check_B(m, n_max=4, theta=1.0)


def test_audits_mirror_for_left_support(exp_unit_model):
    # h = e^{z} on z < 0 is the mirror image of exp_unit's h = e^{-z} on z > 0
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, -1.0)),))
    q = js.JumpMeasureSpec((-np.inf, 0.0), js.constant(1.0), exp_unit_model.q.truncations)
    left = dataclasses.replace(exp_unit_model, h=h, eta=js.ExpDecay(1.0, -1.0), q=q)
    for check in (lambda m: js.check_A(m), lambda m: js.check_B(m, n_max=6, theta=4.2)):
        got, want = check(left), check(exp_unit_model)
        assert got.passed == want.passed
        for key, value in want.constants.items():
            assert got.constants[key] == pytest.approx(value, rel=1e-12), key


def test_reports_serialize(exp_unit_model):
    rep = js.check_B(exp_unit_model, n_max=6, theta=4.2)
    blob = rep.to_json()
    assert '"inversion_budget"' in blob
    assert '"passed": true' in blob


def test_gauss_panels_computes_each_legendre_rule_once(exp_unit_model, monkeypatch):
    real = np.polynomial.legendre.leggauss
    calls: dict[int, int] = {}

    def counting(n):
        calls[n] = calls.get(n, 0) + 1
        return real(n)

    js.model._legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    first = js.check_B(exp_unit_model, n_max=6, theta=4.2)
    second = js.check_B(exp_unit_model, n_max=6, theta=4.2)
    js.model._legendre.cache_clear()
    assert calls and set(calls.values()) == {1}
    assert first.to_dict() == second.to_dict()


def test_gauss_panels_matches_the_reference_rule():
    z, w = js.gauss_panels(-1.0, 3.0, nodes=24, panels=3)
    x, v = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-1.0, 3.0, 4)
    for p in range(3):
        a, b = edges[p], edges[p + 1]
        half = 0.5 * (b - a)
        assert np.array_equal(z[8 * p: 8 * p + 8], 0.5 * (a + b) + half * x)
        assert np.array_equal(w[8 * p: 8 * p + 8], half * v)
    z[0] = 99.0  # the returned arrays are the caller's own
    assert js.gauss_panels(-1.0, 3.0, nodes=24, panels=3)[0][0] != 99.0
    rule = js.model._legendre(8)
    assert not rule[0].flags.writeable and not rule[1].flags.writeable


@pytest.mark.parametrize("n", [16, 32, 64])
def test_legendre_rule_integrates_polynomials_of_degree_2n_minus_1(n):
    # x^d integrates to 2 / (d + 1) over [-1, 1] for even d and to 0 for odd d.
    # The weights sum to 2 and every |x^d| <= 1, so an error is read in ulps
    # of 2: at most 5 were measured (n = 64), where scipy's rule errs by 10
    x, w = js.model._legendre(n)
    for d in range(2 * n):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(math.fsum(w * x**d) - exact) <= 6 * np.spacing(2.0), d


@pytest.mark.parametrize("n", [16, 32, 64])
def test_legendre_rule_matches_scipy(n):
    # an independent reference, imported here only: the library needs no scipy
    # for its quadrature
    from scipy.special import roots_legendre

    x, w = js.model._legendre(n)
    ref_x, ref_w = roots_legendre(n)
    assert np.max(np.abs(x - ref_x)) <= 4 * np.finfo(float).eps
    assert np.max(np.abs(w - ref_w) / ref_w) <= 4e-12


@pytest.mark.parametrize("nodes, panels", [(0, 8), (-3, 8), (24, 0), (24, -1)])
def test_gauss_panels_refuses_counts_below_one(nodes, panels):
    # these used to be rounded up to 2 nodes per panel and to 1 panel
    with pytest.raises(js.ContractError, match="nodes and panels >= 1"):
        js.gauss_panels(-1.0, 3.0, nodes=nodes, panels=panels)


@pytest.mark.parametrize("nodes, panels, setting", [
    (100.5, 8, "quadrature nodes"), (24.0, 8, "quadrature nodes"),
    (True, 8, "quadrature nodes"), (24, 2.5, "quadrature panels"),
], ids=["nodes-fraction", "nodes-float", "nodes-bool", "panels-fraction"])
def test_gauss_panels_refuses_counts_that_are_not_integers(wobble_model, nodes, panels, setting):
    # 100.5 nodes were rounded up to 104 in 8 panels, also through the
    # operator's quad_nodes; numpy integers pass
    with pytest.raises(js.ContractError, match=f"^{setting} must be an integer, got"):
        js.gauss_panels(-1.0, 3.0, nodes=nodes, panels=panels)
    if setting == "quadrature nodes":
        g = js.gaussian_density((-8.0, 8.0), 64, order=2)
        with pytest.raises(js.ContractError, match=f"^{setting} must be an integer, got"):
            js.AdjointOperator(wobble_model, g, js.EvolutionConfig(i=8, trunc=2, quad_nodes=nodes))
    z, _ = js.gauss_panels(-1.0, 3.0, nodes=np.int64(24), panels=np.int32(3))
    assert z.shape == (24,)


@pytest.mark.parametrize("nodes, panels", [(100, 8), (1, 8), (15, 8), (10, 3), (16, 16)])
def test_gauss_panels_uses_the_node_count_it_is_given_or_refuses_it(wobble_model, nodes, panels):
    # 100 nodes in 8 panels used to give 104 nodes, and 1-15 gave 16
    with pytest.raises(js.ContractError, match=(
            f"^quadrature nodes must split into {panels} panels of at least 2 nodes each, "
            f"got {nodes}$")):
        js.gauss_panels(-1.0, 3.0, nodes=nodes, panels=panels)
    if panels == js.model.QUAD_PANELS:
        g = js.gaussian_density((-8.0, 8.0), 64, order=2)
        with pytest.raises(js.ContractError, match="^quadrature nodes must split into 8 panels"):
            js.AdjointOperator(wobble_model, g, js.EvolutionConfig(i=8, trunc=2, quad_nodes=nodes))
    for nodes, panels in ((16, 8), (104, 8), (6, 3), (64, 2)):
        z, w = js.gauss_panels(-1.0, 3.0, nodes=nodes, panels=panels)
        assert z.shape == w.shape == (nodes,)


@pytest.mark.parametrize("index", [2.5, 2.0, True, "2"])
def test_trunc_interval_refuses_an_index_that_is_not_an_integer(wobble_model, index):
    # a float index raised a bare TypeError from the tuple lookup, through
    # the operator build and the simulator alike
    match = f"^truncation index must be an integer, got {index!r}$"
    g = js.gaussian_density((-8.0, 8.0), 64, order=2)
    for call in (
        lambda: wobble_model.q.trunc_interval(index),
        lambda: wobble_model.q.trunc_mass(index),
        lambda: js.AdjointOperator(wobble_model, g, js.EvolutionConfig(i=8, trunc=index)),
        lambda: js.simulate_batch(wobble_model, 0.0, 0.1, index, js.RngSpec(1), 10),
    ):
        with pytest.raises(js.ContractError, match=match):
            call()
    assert wobble_model.q.trunc_interval(np.int64(2)) == wobble_model.q.trunc_interval(2)


@pytest.mark.parametrize("quad_nodes", [0, -3])
def test_evolution_refuses_quad_nodes_below_one(exp_unit_model, quad_nodes):
    # the operator used to run on 16 mark nodes
    g = js.gaussian_density((-4.0, 9.0), 64, order=2)
    with pytest.raises(js.ContractError, match="nodes and panels >= 1"):
        js.AdjointOperator(exp_unit_model, g, js.EvolutionConfig(i=8, quad_nodes=quad_nodes))


def _steep_drift_model():
    # sup|b'| = 1.5: i0 = 3
    h = js.JumpAmplitude(((js.constant(0.4), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0,))
    return js.CoefficientSet(
        b=js.Sinusoidal(1.5, 1.0), gamma=js.constant(0.5), h=h,
        eta=js.ExpDecay(0.4, 1.0), q=q, k=2, y_window=(-8.0, 8.0),
    )


_BELOW_I0 = {
    "simulate_batch": lambda m, i: js.simulate_batch(m, 0.0, 1.0, 1, js.RngSpec(1), 8, i=i),
    "simulate_poissonized": lambda m, i: js.simulate_poissonized(
        m, 0.0, 1.0, i, 1, js.RngSpec(1).generator()),
    "tau_i_stack_grid": lambda m, i: js.tau_i_stack_grid(m, 0.0, i, 0),
    "transfer_beta_grid": lambda m, i: js.transfer_beta_grid(m, 0.0, i, 2),
    "AdjointOperator": lambda m, i: js.AdjointOperator(
        m, js.gaussian_density((-8.0, 8.0), 64, order=2), js.EvolutionConfig(i=i)),
}


@pytest.mark.parametrize("entry", sorted(_BELOW_I0))
def test_drift_index_below_i0_is_refused_alike(entry):
    # one rule, one message: these used to word it three ways
    m = _steep_drift_model()
    assert m.min_drift_index() == 3
    with pytest.raises(js.ContractError) as err:
        _BELOW_I0[entry](m, 2)
    assert str(err.value) == "drift surrogate index i=2 below i0=3 (2 sup|b'|, at least 1)"


def test_model_doctests_pass():
    result = doctest.testmod(js.model)
    assert result.attempted > 0
    assert result.failed == 0


def test_the_rate_is_read_on_the_audit_grid_once_per_model(wobble_model, monkeypatch):
    model = dataclasses.replace(wobble_model)  # a fresh copy: nothing taken yet
    grid = model.y_audit_grid()
    reads = []
    derivative = js.FunctionSum.derivative
    monkeypatch.setattr(js.FunctionSum, "derivative", lambda self, x, l: reads.append(
        self is model.gamma and l == 0 and np.array_equal(x, grid)) or derivative(self, x, l))
    bound = model.rate_bound()
    assert bound == js.model.RATE_MARGIN * model.gamma_sup()
    model.check_rate(np.linspace(-1.0, 1.0, 5))
    op = js.AdjointOperator(model, js.gaussian_density((-8.0, 8.0), 64, order=2),
                            js.EvolutionConfig(i=8))
    assert op.gamma_sup == model.gamma_sup()
    assert js.simulate_batch(model, 0.0, 0.1, 1, js.RngSpec(1), 64)["rate_bound"] == bound
    assert sum(reads) == 1
    # a copy with another rate takes its own
    assert dataclasses.replace(model, gamma=js.constant(2.0)).gamma_sup() == 2.0


def test_min_drift_index_takes_the_drift_slope_once(exp_unit_model, monkeypatch):
    model = dataclasses.replace(exp_unit_model, b=js.Sinusoidal(1.5, 1.0))
    calls = []
    sup = js.CoefficientSet.b_prime_sup
    monkeypatch.setattr(js.CoefficientSet, "b_prime_sup",
                        lambda self: calls.append(self) or sup(self))
    assert [model.min_drift_index() for _ in range(3)] == [3, 3, 3]
    assert len(calls) == 1
    # a copy with another drift takes its own
    assert dataclasses.replace(model, b=js.Sinusoidal(2.5, 1.0)).min_drift_index() == 5
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# pinned inversion budget: values, messages and the order of failures
# ---------------------------------------------------------------------------

# recorded from the state-by-state audit that preceded the blocked broadcast
# over (state, n, node); the arithmetic of each entry is unchanged, so every
# value and every message must repeat exactly.  The values were re-recorded
# when the Gauss-Legendre rule came from numpy's `leggauss`: they moved by at
# most 1.1e-14 of the largest entry of their audit (the `per_n_constant` of
# stretched-exp), and no message moved
BUDGET_PINS = Path(__file__).parent / "data" / "inversion_budget.json"

# the model stanzas of the wobble and power bench workloads
BENCH_WOBBLE = {
    "k": 2, "window": [-8.0, 8.0],
    "drift": {"family": "sinusoidal", "amp": 0.2, "freq": 1.0},
    "rate": {"family": "sum", "parts": [0.7, {"family": "sinusoidal", "amp": 0.3, "freq": 1.0}]},
    "amplitude": [{"y": {"family": "constant", "c": 0.4},
                   "z": {"family": "exp_decay", "amp": 1.0, "rate": 1.0}}],
    "envelope": {"family": "exp_decay", "amp": 0.4, "rate": 1.0},
    "marks": {"support": [0.0, float("inf")], "truncations": [2.0, 4.0, 6.0]},
}
BENCH_POWER = {
    "k": 2, "window": [-6.0, 8.0], "drift": 0.0,
    "rate": {"family": "sum", "parts": [0.4, {"family": "iso_power", "amp": 0.6, "power": 1.0}]},
    "amplitude": [{"y": {"family": "constant", "c": 0.5},
                   "z": {"family": "inverse_power", "amp": 1.0, "power": 2.0}}],
    "envelope": {"family": "inverse_power", "amp": 0.5, "power": 2.0},
    "marks": {"support": [0.0, float("inf")], "truncations": [10.0, 40.0]},
}


def _config_model_nodes():
    """The model stanzas of the README's exp.yaml and the bench workloads."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text().split("```yaml\n# exp.yaml\n", 1)[1]
    nodes = {"readme": yaml.safe_load(readme.split("```", 1)[0])["model"]}
    for path in sorted(BENCH_WORKLOADS.glob("*.yaml")):
        nodes[path.stem] = yaml.safe_load(path.read_text())["model"]
    return nodes


FIXTURE_MODELS = ["exp_unit_model", "wobble_model", "ripple_model", "power_model",
                  "collapse_model", "uniform_jump_model"]


@pytest.mark.parametrize("name", sorted(_config_model_nodes()) + FIXTURE_MODELS)
def test_model_describe_round_trip(request, name):
    # describe() is a model stanza: written as YAML and built again, it gives
    # the same model, bit for bit on the audit grids
    nodes = _config_model_nodes()
    model = build_model(nodes[name]) if name in nodes else request.getfixturevalue(name)
    node = model.describe()
    rebuilt = build_model(yaml.safe_load(yaml.safe_dump(node)))
    assert rebuilt.describe() == node
    assert rebuilt.q == model.q
    y, z = model.y_audit_grid(), model.z_audit_grid()
    yy, zz = y[:, None], z[None, :]
    for l in range(model.k + 2):
        for fn, x in (("b", y), ("gamma", y), ("eta", z)):
            got, want = getattr(rebuilt, fn).derivative(x, l), getattr(model, fn).derivative(x, l)
            assert np.array_equal(got, want, equal_nan=True), (fn, l)
        assert np.array_equal(rebuilt.h.dy(yy, zz, l), model.h.dy(yy, zz, l), equal_nan=True)
        assert np.array_equal(rebuilt.h.dz(yy, zz, l), model.h.dz(yy, zz, l), equal_nan=True)


def _gauss_slope_model(gamma, window, endpoint=None):
    # |h_z| = 32 z e^{-16 z^2} drops below the resolvable-slope floor past
    # z = 1.40, so a state fails at the first n whose window n / gamma(y)
    # reaches that far
    h = js.JumpAmplitude(((js.constant(1.0), js.GaussBump(1.0, 0.0, 0.25)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (8.0,), endpoint)
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=gamma, h=h, eta=js.constant(2.0), q=q, k=2, y_window=window,
    )


def _budget_cases(exp_unit, collapse):
    """(name, model, n_max, theta) of every pinned audit."""
    rate_floor = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(0.5),
        h=js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),)),
        eta=js.ExpDecay(1.0, 1.0),
        q=js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (30.0,)),
        k=2, y_window=(-2.0, 2.0),
    )
    stretched = _model(((js.constant(1.0), js.StretchedExp(1.0, 1.0, 1.5, 0.0)),),
                       js.constant(2.0), window=(-2.0, 2.0), truncs=(12.0,))
    sub_lebesgue = _model(((js.constant(1.0), js.Affine(0.0, 1.0)),), js.constant(10.0),
                          window=(-2.0, 2.0), truncs=(8.0,), density=js.constant(0.5))
    left = dataclasses.replace(
        exp_unit,
        h=js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, -1.0)),)),
        eta=js.ExpDecay(1.0, -1.0),
        q=js.JumpMeasureSpec((-np.inf, 0.0), js.constant(1.0), exp_unit.q.truncations),
    )
    super_gauss = _model(((js.constant(1.0), js.StretchedExp(1.0, 1.0, 2.0, 0.0)),),
                         js.constant(2.0), window=(-2.0, 2.0), truncs=(12.0,))
    return [
        ("exp-unit/4.2", exp_unit, 12, 4.2),
        ("exp-unit/3.5", exp_unit, 12, 3.5),
        ("rate-floor", rate_floor, 10, 8.4),
        ("stretched-exp", stretched, 8, 6.0),
        ("sub-lebesgue", sub_lebesgue, 4, 1.0),
        ("left-mirror", left, 6, 4.2),
        ("bench-wobble", build_model(BENCH_WOBBLE), 4, 12.0),
        ("bench-power", build_model(BENCH_POWER), 16, 8.4),
        ("collapse", collapse, 4, 1.0),
        ("super-gaussian", super_gauss, 8, 20.0),
    ]


def _error_order_cases():
    """Models whose first failure in state order is not the first one a
    block-at-a-time or rate-first search would meet."""
    step = 2.41 / 240  # y = 0 falls between states 20 and 21
    return [
        # the rate falls from 4 to 1 across states 16..31: state 20 fails
        # at n = 4, later states of its block at n = 3 and n = 2
        ("late-vanishing-slope",
         _gauss_slope_model(js.FunctionSum(js.constant(2.5), js.TanhSigmoid(-1.5, 20.0)),
                            (-20.5 * step, 220.5 * step))),
        # the slope vanishes at state 2, the rate turns negative at state 11
        ("slope-before-bad-rate", _gauss_slope_model(js.Affine(-36.5, -40.0), (-1.0, 1.0))),
        ("bad-rate-first", _gauss_slope_model(js.Affine(0.0, 1.0), (-2.0, 2.0))),
        # from state 1 on, a(y) = 1e20 y swallows the window: lo == hi
        ("slope-before-empty-window",
         _gauss_slope_model(js.constant(0.5), (0.0, 2.4), js.Affine(0.0, 1e20))),
        ("empty-window",
         _gauss_slope_model(js.constant(4.0), (0.0, 2.4), js.Affine(0.0, 1e20))),
    ]


def _outcome(model, n_max, theta):
    try:
        return json.loads(json.dumps(js.check_B(model, n_max=n_max, theta=theta).to_dict()))
    except js.JumpsmoothError as exc:
        return [type(exc).__name__, str(exc)]


def _inversion_budget(exp_unit, collapse) -> dict:
    return {
        "audits": {name: _outcome(m, n_max, theta)
                   for name, m, n_max, theta in _budget_cases(exp_unit, collapse)},
        "error_order": {name: _outcome(m, 4, 1.0) for name, m in _error_order_cases()},
    }


def test_inversion_budget_pinned(exp_unit_model, collapse_model):
    want = json.loads(BUDGET_PINS.read_text())["audits"]
    got = _inversion_budget(exp_unit_model, collapse_model)["audits"]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


def test_inversion_budget_error_order():
    want = json.loads(BUDGET_PINS.read_text())["error_order"]
    got = {name: _outcome(m, 4, 1.0) for name, m in _error_order_cases()}
    assert got == want


class _CountingAmplitude(js.JumpAmplitude):
    def __init__(self, terms):
        super().__init__(terms)
        self.dz_calls = 0

    def dz(self, y, z, l):
        self.dz_calls += 1
        return super().dz(y, z, l)


def test_inversion_budget_evaluates_slopes_once_per_block(exp_unit_model, collapse_model):
    passing = dataclasses.replace(exp_unit_model, h=_CountingAmplitude(exp_unit_model.h.terms))
    assert js.model.AUDIT_POINTS == 241
    assert js.check_B(passing, n_max=6, theta=4.2).passed
    assert passing.h.dz_calls == math.ceil(241 / js.model.AUDIT_BLOCK_STATES)
    # the first block of the collapse model already holds the failure
    collapse = dataclasses.replace(collapse_model, h=_CountingAmplitude(collapse_model.h.terms))
    with pytest.raises(js.DegenerateKernelError):
        js.check_B(collapse, n_max=4, theta=1.0)
    assert collapse.h.dz_calls == 1


def _batch(m, **kw):
    return js.simulate_batch(m, 0.0, 0.1, 1, js.RngSpec(3), kw.pop("runs", 10), **kw)


@pytest.mark.parametrize("model, setting, call", [
    ("wobble_model", "drift surrogate index i",
     lambda m, g: js.AdjointOperator(m, g, js.EvolutionConfig(i=8.5, trunc=1))),
    ("exp_unit_model", "drift surrogate index i",
     lambda m, g: js.AdjointOperator(m, g, js.EvolutionConfig(i=8.5, trunc=1))),
    ("wobble_model", "drift surrogate index i",
     lambda m, g: js.AdjointOperator(m, g, js.EvolutionConfig(i=8, trunc=1))
     .with_drift_index(16.5)),
    ("wobble_model", "drift surrogate index i",
     lambda m, g: js.apply_generator(m, np.cos, g.grid, js.EvolutionConfig(i=8.5, trunc=1))),
    ("wobble_model", "drift surrogate index i", lambda m, g: _batch(m, i=8.5)),
    ("wobble_model", "kernel index", lambda m, g: js.make_kernels(m, (2.5, 4))),
    ("wobble_model", "threads", lambda m, g: _batch(m, threads=1.5)),
    ("wobble_model", "runs", lambda m, g: _batch(m, runs=2.5)),
    ("wobble_model", "threads", lambda m, g: _batch(m, threads=True)),
], ids=["operator", "operator-zero-drift", "with_drift_index", "apply_generator",
        "batch-i", "make_kernels", "batch-threads", "batch-runs", "batch-threads-bool"])
def test_integer_settings_are_refused_not_truncated(request, model, setting, call):
    # i = 8.5 built the operator at 8 while simulate_batch kicked at rate 8.5,
    # kernel index 2.5 audited n = 2, threads = 1.5 ran and runs = 2.5 died
    # with a TypeError; config refuses each such value before it gets here
    m = request.getfixturevalue(model)
    g = js.gaussian_density((-8.0, 8.0), 64, order=m.k)
    with pytest.raises(js.ContractError, match=f"^{setting} must be an integer, got"):
        call(m, g)
