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

    both = js.JumpMeasureSpec((-np.inf, np.inf), js.GaussBump(1.0, 0.0, 1.0), (2.0,))
    assert both.orientation == "both"
    assert both.trunc_interval(1) == (-2.0, 2.0)


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
    assert good.gamma_inf() == 1.0
    assert good.min_drift_index() == 1
    with pytest.raises(js.ContractError):
        js.CoefficientSet(
            b=good.b, gamma=good.gamma, h=good.h, eta=good.eta, q=good.q, k=0
        )
    with pytest.raises(js.ContractError):
        js.CoefficientSet(
            b=good.b, gamma=good.gamma, h=good.h, eta=good.eta, q=good.q,
            y_window=(2.0, -2.0),
        )


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
            m.gamma_inf()
    assert str(drift.value) == "drift derivative 1 non-finite at y=0.0"
    assert str(rate.value) == "jump rate non-finite at y=0.0"


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
    rep = js.check_A(m, quadrature=js.QuadratureSpec(nodes=4096, panels=64, horizon=4000.0))
    assert rep.passed
    assert rep.constants["eta_L1"] == pytest.approx(1.0, rel=1e-3)
    assert rep.constants["eta_Lp"] == pytest.approx(0.2, rel=1e-6)


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
    import scipy.special

    real = scipy.special.roots_legendre
    calls: dict[int, int] = {}

    def counting(n):
        calls[n] = calls.get(n, 0) + 1
        return real(n)

    js.model._legendre.cache_clear()
    monkeypatch.setattr(scipy.special, "roots_legendre", counting)
    first = js.check_B(exp_unit_model, n_max=6, theta=4.2)
    second = js.check_B(exp_unit_model, n_max=6, theta=4.2)
    js.model._legendre.cache_clear()
    assert calls and set(calls.values()) == {1}
    assert first.to_dict() == second.to_dict()


def test_gauss_panels_matches_the_reference_rule():
    from scipy.special import roots_legendre

    z, w = js.gauss_panels(-1.0, 3.0, nodes=24, panels=3)
    x, v = roots_legendre(8)
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


@pytest.mark.parametrize("nodes, panels", [(0, 8), (-3, 8), (24, 0), (24, -1)])
def test_gauss_panels_refuses_counts_below_one(nodes, panels):
    # these used to be rounded up to 2 nodes per panel and to 1 panel
    with pytest.raises(js.ContractError, match="nodes and panels >= 1"):
        js.gauss_panels(-1.0, 3.0, nodes=nodes, panels=panels)


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
    "solve_tau_i": lambda m, i: js.solve_tau_i(m, 0.0, i),
    "transfer_beta": lambda m, i: js.transfer_beta(m, 0.0, i, 2),
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


def test_audit_points_below_one_is_refused(exp_unit_model):
    with pytest.raises(js.ContractError, match="audit_points"):
        dataclasses.replace(exp_unit_model, audit_points=0)
    one = dataclasses.replace(exp_unit_model, audit_points=1)
    assert one.y_audit_grid().tolist() == [-4.0]
    assert js.check_B(one, n_max=4, theta=4.2).worst["y"] == -4.0


# ---------------------------------------------------------------------------
# pinned inversion budget: values, messages and the order of failures
# ---------------------------------------------------------------------------

# recorded from the state-by-state audit that preceded the blocked broadcast
# over (state, n, node); the arithmetic of each entry is unchanged, so every
# value and every message must repeat exactly
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
    for path in sorted((root / "bench" / "workloads").glob("*.yaml")):
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
    assert passing.audit_points == 241
    assert js.check_B(passing, n_max=6, theta=4.2).passed
    assert passing.h.dz_calls == math.ceil(241 / js.model.AUDIT_BLOCK_STATES)
    # the first block of the collapse model already holds the failure
    collapse = dataclasses.replace(collapse_model, h=_CountingAmplitude(collapse_model.h.terms))
    with pytest.raises(js.DegenerateKernelError):
        js.check_B(collapse, n_max=4, theta=1.0)
    assert collapse.h.dz_calls == 1
