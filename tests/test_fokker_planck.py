"""Density evolution: adjoint action, duality, mass, norm propagation."""

import math

import numpy as np
import pytest

import jumpsmooth as js


def _translate_model(beta=0.25):
    h = js.JumpAmplitude(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0,))
    return js.CoefficientSet(
        b=js.constant(beta), gamma=js.constant(0.0), h=h,
        eta=js.ExpDecay(0.1, 1.0), q=q, k=2, y_window=(-4.0, 4.0),
    )


# ---------------------------------------------------------------------------
# grid densities
# ---------------------------------------------------------------------------


def test_gaussian_density_mass_and_shape():
    g = js.gaussian_density((-8.0, 8.0), 2001, order=2, mean=0.5, sigma=1.0)
    assert g.mass() == pytest.approx(1.0, abs=1e-9)
    assert g.values.shape == (3, 2001)
    peak = g.grid[np.argmax(g.values[0])]
    assert peak == pytest.approx(0.5, abs=0.01)


def test_sobolev_norm_normal_oracle():
    # W^{1,1} of a standard normal: 1 + 2 phi(0) = 1 + 2/sqrt(2 pi)
    g = js.gaussian_density((-8.0, 8.0), 4001, order=1)
    want = 1.0 + 2.0 / math.sqrt(2.0 * math.pi)
    assert js.sobolev_norm(g) == pytest.approx(want, rel=1e-4)
    assert js.sobolev_norm(g, order=0) == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(js.ContractError):
        js.sobolev_norm(g, order=3)


def test_grid_density_validation():
    with pytest.raises(js.ContractError):
        js.GridDensity(0.0, 1.0, np.ones((1, 4)), 0.0)  # too few nodes
    with pytest.raises(js.ContractError):
        js.GridDensity(1.0, 1.0, np.ones((1, 32)), 0.0)  # empty window


# ---------------------------------------------------------------------------
# adjoint operator
# ---------------------------------------------------------------------------


def test_adjoint_vanishes_without_dynamics():
    m = _translate_model(0.0)
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(0.0), h=m.h, eta=m.eta, q=m.q,
        k=2, y_window=(-4.0, 4.0),
    )
    g = js.gaussian_density((-6.0, 6.0), 512, order=2)
    out = js.apply_adjoint(m, g, js.EvolutionConfig(i=8))
    assert np.max(np.abs(out.values)) <= 1e-10


def test_adjoint_mass_neutral(wobble_model):
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    out = js.apply_adjoint(wobble_model, g, js.EvolutionConfig(i=8, trunc=3))
    assert abs(np.trapezoid(out.values[0], dx=g.spacing)) <= 1e-8


@pytest.mark.parametrize("phi", [
    js.Affine(1.0, 0.0),
    js.Affine(0.0, 1.0),
    js.FunctionProduct(js.Affine(0.0, 1.0), js.Affine(0.0, 1.0)),  # y^2
    js.Sinusoidal(1.0, 1.0),
    js.GaussBump(1.0, 0.3, 1.2),
])
def test_duality_residual_small(wobble_model, phi):
    g = js.gaussian_density((-8.0, 8.0), 2048, order=2)
    out = js.duality_residual(wobble_model, g, phi, js.EvolutionConfig(i=8, trunc=3))
    assert out["residual"] <= 1e-6


def test_duality_accepts_plain_callable(wobble_model):
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    out = js.duality_residual(
        wobble_model, g, lambda y: np.cos(y), js.EvolutionConfig(i=8, trunc=3)
    )
    assert out["residual"] <= 1e-6


def test_generator_constant_test_function_is_null(wobble_model):
    y = np.linspace(-6, 6, 257)
    vals = js.apply_generator(wobble_model, js.constant(3.0), y, js.EvolutionConfig(i=8, trunc=3))
    assert np.max(np.abs(vals)) <= 1e-10


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_translation_oracle():
    m = _translate_model(0.25)
    init = js.gaussian_density((-4.0, 5.0), 1024, order=2, mean=0.0, sigma=0.5)
    cfg = js.EvolutionConfig(i=2000, trunc=1)
    res = js.evolve(m, init, 0.5, cfg)
    assert res.mass_drift <= 1e-4
    want = js.gaussian_density((-4.0, 5.0), 1024, order=0, mean=0.125, sigma=0.5)
    l1 = np.trapezoid(np.abs(res.final.values[0] - want.values[0]), dx=init.spacing)
    assert l1 <= 0.02


def test_evolve_compound_poisson_cf_oracle(uniform_jump_model):
    # b = 0: kicks are null, jumps add uniform marks at unit rate, so
    # p_t(xi) = p_0(xi) exp(t ((e^{i xi} - 1)/(i xi) - 1))
    init = js.gaussian_density((-3.0, 5.0), 1024, order=1, mean=0.0, sigma=0.4)
    # explicit dt well under the stability cap: the Euler bias is O(dt)
    res = js.evolve(uniform_jump_model, init, 0.5, js.EvolutionConfig(i=8, trunc=1, dt=0.004))
    xi = np.array([0.5, 1.0, 2.0, 4.0])
    grid = res.final.grid
    cf_evolved = np.trapezoid(
        res.final.values[0][None, :] * np.exp(1j * xi[:, None] * grid[None, :]),
        dx=res.final.spacing, axis=1,
    )
    cf0 = np.exp(1j * xi * 0.0 - 0.5 * (0.4 * xi) ** 2)
    jump_sym = (np.exp(1j * xi) - 1.0) / (1j * xi)
    want = cf0 * np.exp(0.5 * (jump_sym - 1.0))
    assert np.max(np.abs(cf_evolved - want)) <= 2e-3


def test_evolve_snapshots_and_mass_track(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 768, order=2, sigma=0.8)
    res = js.evolve(
        wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3),
        snapshot_times=(0.0, 0.3, 0.6),
    )
    assert len(res.snapshots) == 3
    assert res.snapshots[0].time == pytest.approx(0.0)
    assert res.snapshots[1].time == pytest.approx(0.3, abs=1e-9)
    assert res.mass_drift <= 1e-4
    assert res.steps == len(res.times) - 1
    # derivative row consistency after evolution
    d = res.final
    num = np.gradient(d.values[0], d.grid)
    tame = np.abs(d.values[0]) > 1e-3
    err = np.abs(num - d.values[1])[tame]
    assert np.median(err / np.maximum(np.abs(d.values[1][tame]), 0.1)) < 0.05


def test_evolve_rejects_unstable_step(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 512, order=2)
    with pytest.raises(js.StabilityError):
        js.evolve(wobble_model, init, 0.5, js.EvolutionConfig(i=8, trunc=3, dt=0.5))


def test_evolve_window_escape_raises():
    m = _translate_model(2.0)
    init = js.gaussian_density((-2.0, 2.0), 256, order=2, sigma=0.5)
    cfg = js.EvolutionConfig(i=50, trunc=1, escape_tol=1e-3)
    with pytest.raises((js.WindowTooSmallError, js.MassConservationError)):
        js.evolve(m, init, 2.0, cfg)


def test_evolve_argument_validation(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 256, order=2)
    with pytest.raises(js.ContractError):
        js.evolve(wobble_model, init, -1.0, js.EvolutionConfig(i=8, trunc=3))
    with pytest.raises(js.ContractError):
        js.evolve(
            wobble_model, init, 0.5, js.EvolutionConfig(i=8, trunc=3),
            snapshot_times=(0.9,),
        )
    with pytest.raises(js.ContractError):
        js.evolve(wobble_model, init, 0.5, js.EvolutionConfig(i=0, trunc=3))


def test_picard_short_horizon_agreement(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 512, order=2, sigma=0.8)
    out = js.picard_validate(wobble_model, init, 0.05, js.EvolutionConfig(i=8, trunc=3))
    assert out["l1_gap"] <= 5e-4


def test_norm_growth_audit_smooth_model(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 640, order=2, sigma=0.8)
    rep = js.norm_growth_audit(wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3))
    assert rep["status"] == "ok"
    assert rep["passed"]
    assert rep["envelope_ok_i"] and rep["envelope_ok_2i"]
    assert rep["rate_stable"]


def test_norm_growth_audit_reports_numerical_failure():
    m = _translate_model(2.0)
    init = js.gaussian_density((-2.0, 2.0), 256, order=2, sigma=0.5)
    rep = js.norm_growth_audit(m, init, 2.0, js.EvolutionConfig(i=50, trunc=1, escape_tol=1e-3))
    assert rep["status"] == "numerical_failure"
    assert not rep["passed"]


def test_norm_growth_audit_propagates_programming_errors(wobble_model, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(js.fokker_planck, "evolve", broken)
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    with pytest.raises(TypeError, match="not a numerical failure"):
        js.norm_growth_audit(wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3))
