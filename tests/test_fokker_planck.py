"""Density evolution: adjoint action, duality, mass, norm propagation."""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import jumpsmooth as js
from jumpsmooth.config import load_config


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


# apply() at nine nodes per order, recorded with the per-step
# gather-and-contract operator that the assembled one replaced.  Wobble jumps
# translate the state (the jump transfer table vanishes); ripple jumps depend
# on the state, so its rates also pin the jump transfer terms.
_RECORDED_RATES = {
    "wobble_model": (
        dict(window=(-8.0, 8.0), size=1024, sigma=1.0, trunc=3),
        np.linspace(320, 703, 9).round().astype(int),
        [[-0.0006991156268270383, 0.008694135708380318, 0.015229059569147801,
          -0.07269327901433731, -0.13273344828528222, 0.018096688341363798,
          0.1078718057362249, 0.04776721879975085, 0.00688424764510762],
         [0.002290473513445926, 0.023925266883381494, -0.03647160625407092,
          -0.17097354620908878, 0.07864113609839274, 0.24251944583062013,
          -0.0197594379734769, -0.08944729407938601, -0.022630799003535366],
         [0.01650872564244571, 0.01923258774610831, -0.2063948110942364,
          0.012130872839301587, 0.5070427103385526, -0.17242668525523785,
          -0.31204675433770945, 0.07545928397049728, 0.06118190941335089]],
    ),
    "ripple_model": (
        dict(window=(-6.0, 6.0), size=512, sigma=0.8, trunc=1),
        np.linspace(160, 351, 9).round().astype(int),
        [[0.0018035183166142353, -0.016793528843685623, -0.10392628123592962,
          -0.19282736049460003, -0.04592341327876581, 0.17602560029086867,
          0.14562016083030915, 0.03724975510924161, 0.002261085575899279],
         [-0.003552408750014696, -0.08161472685142335, -0.21428603396851642,
          -0.008357598591160587, 0.4860390092490207, 0.19691382483225728,
          -0.2133812700344404, -0.12706195369374945, -0.017478044629180026],
         [-0.04690387238989158, -0.24289709602216236, -0.08600472216911381,
          0.8613612809303982, 0.3699409546679009, -1.0815374506308628,
          -0.18738988104423715, 0.2890295550649039, 0.08748365998100988]],
    ),
}


@pytest.mark.parametrize("model_name", sorted(_RECORDED_RATES))
def test_adjoint_matches_recorded_rates(request, model_name):
    setup, nodes, want = _RECORDED_RATES[model_name]
    model = request.getfixturevalue(model_name)
    g = js.gaussian_density(setup["window"], setup["size"], order=2, sigma=setup["sigma"])
    op = js.AdjointOperator(model, g, js.EvolutionConfig(i=8, trunc=setup["trunc"]))
    rate = op.apply(g.values)
    np.testing.assert_allclose(rate[:, nodes], want, rtol=1e-12, atol=0.0)
    with pytest.raises(js.ContractError):
        op.apply(g.values[:, :-1])


# (model fixture, window, trunc) of the operator-build tests
_BUILDS = {
    "wobble_model": ((-8.0, 8.0), 3),
    "ripple_model": ((-6.0, 6.0), 1),
    "power_model": ((-6.0, 8.0), 1),
}


def _build(request, model_name, size=512, **cfg):
    window, trunc = _BUILDS[model_name]
    model = request.getfixturevalue(model_name)
    g = js.gaussian_density(window, size, order=2, sigma=0.8)
    return model, g, js.EvolutionConfig(i=8, trunc=trunc, **cfg)


def _counting(monkeypatch, name, fn=None):
    """Count the calls of fokker_planck's `name`, optionally replaced by fn."""
    calls = []
    inner = fn or getattr(js.fokker_planck, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(js.fokker_planck, name, counted)
    return calls


@pytest.mark.parametrize("model_name", sorted(_BUILDS))
def test_blocked_jump_build_matches_per_mark_reference(request, monkeypatch, model_name):
    # the reference solves the pre-images one scalar mark at a time; the
    # blocked build must give the same triples: exactly where the
    # coefficients' array arithmetic rounds as their scalar calls do
    # (wobble), within 1e-15 of the largest entry through power laws
    model, g, cfg = _build(request, model_name)
    blocked = _counting(monkeypatch, "transfer_alpha_grid")
    got = js.AdjointOperator(model, g, cfg).jump
    assert len(blocked) == math.ceil(cfg.quad_nodes / js.fokker_planck.JUMP_BLOCK_MARKS)

    def per_mark(coeffs, y, z, k):
        tables = [js.calculus.transfer_alpha_grid(coeffs, y, float(zm), k) for zm in z]
        return tuple(np.stack([t[c] for t in tables], axis=-1) for c in range(2))

    _counting(monkeypatch, "transfer_alpha_grid", per_mark)
    want = js.AdjointOperator(model, g, cfg).jump
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    if model_name == "wobble_model":
        np.testing.assert_array_equal(got.data, want.data)
    else:
        assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))


@pytest.mark.parametrize("model_name", sorted(_BUILDS))
def test_reduceat_apply_matches_bincount(request, model_name):
    model, g, cfg = _build(request, model_name)
    op = js.AdjointOperator(model, g, cfg)
    parts = (op.drift, op.jump)
    rows = np.concatenate([np.repeat(np.arange(p.shape[0]), np.diff(p.indptr)) for p in parts])
    cols, data = (np.concatenate([getattr(p, a) for p in parts]) for a in ("indices", "data"))
    rng = np.random.default_rng(5)
    for vals in (g.values, rng.normal(size=g.values.shape)):
        want = np.bincount(rows, weights=vals.ravel()[cols] * data, minlength=vals.size)
        got = op.apply(vals).ravel()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_collapse_build_raises_after_one_failing_block(collapse_model, monkeypatch):
    # marks in (1, 2) send every state to 0, so no pre-image can be
    # bracketed; the build stops in the second block of marks, the first
    # that holds such a mark, with the message of the per-mark build
    calls = _counting(monkeypatch, "transfer_alpha_grid")
    g = js.gaussian_density((-3.0, 3.0), 512, order=1)
    with pytest.raises(js.DomainEscapeError) as err:
        js.AdjointOperator(collapse_model, g, js.EvolutionConfig(i=8))
    assert str(err.value) == (
        "could not bracket the pre-image: monotonicity or the jump size bound "
        "is violated on this model"
    )
    assert len(calls) == 2 and all(len(c[2]) == js.fokker_planck.JUMP_BLOCK_MARKS for c in calls)


def test_operator_build_memory_peak(wobble_model):
    # the per-mark build of the parent commit peaked at 76.6 MB here
    # (numpy 2.4): it held the whole 19 MB transfer table and a nodes**2 slot
    # map; the blocked build keeps one coefficient array per block (l, r)
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    cfg = js.EvolutionConfig(i=8, trunc=2)
    js.AdjointOperator(wobble_model, g, cfg)
    tracemalloc.start()
    try:
        js.AdjointOperator(wobble_model, g, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 78.6e6


def test_with_drift_index_shares_the_jump_part(wobble_model, monkeypatch):
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    op = js.AdjointOperator(wobble_model, init, cfg)
    jump_builds = _counting(monkeypatch, "transfer_alpha_grid")
    derived = op.with_drift_index(16)
    assert not jump_builds and derived.jump is op.jump
    fresh = js.AdjointOperator(wobble_model, init, dataclasses.replace(cfg, i=16))
    assert derived.cfg == fresh.cfg and derived.stable_dt() == fresh.stable_dt()
    np.testing.assert_array_equal(derived.apply(init.values), fresh.apply(init.values))
    assert op.i == 8 and op.cfg == cfg
    with pytest.raises(js.ContractError, match="below i0"):
        op.with_drift_index(0)


def test_norm_growth_audit_builds_the_jump_part_once(wobble_model, monkeypatch):
    jump_parts = _counting(monkeypatch, "transfer_alpha_grid")
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    report = js.norm_growth_audit(wobble_model, init, 0.3, cfg, checkpoints=6)
    assert report["status"] == "ok"
    # one jump part: one pass over the marks in blocks, shared by i and 2 i
    assert len(jump_parts) == math.ceil(cfg.quad_nodes / js.fokker_planck.JUMP_BLOCK_MARKS)
    assert sum(len(c[2]) for c in jump_parts) == cfg.quad_nodes


def test_gate5_fitted_rates_pinned(wobble_model, ripple_model):
    # the gate-5 audits' fitted rates, recorded with one operator build per index
    cases = (
        (wobble_model, (-8.0, 8.0), 640, 3, -0.38681454770244295, -0.38809697704282964),
        (ripple_model, (-6.0, 6.0), 512, 1, -0.07826913856202107, -0.07371635338527573),
    )
    for model, window, size, trunc, rate_i, rate_2i in cases:
        init = js.gaussian_density(window, size, order=2, sigma=0.8)
        rep = js.norm_growth_audit(model, init, 0.6, js.EvolutionConfig(i=8, trunc=trunc))
        assert rep["passed"]
        assert rep["fitted_rate_i"] == pytest.approx(rate_i, rel=1e-12, abs=0.0)
        assert rep["fitted_rate_2i"] == pytest.approx(rate_2i, rel=1e-12, abs=0.0)


def test_nan_mark_density_is_refused_in_the_build(wobble_model):
    # it used to surface as "dt must be positive and finite, got nan"
    q = dataclasses.replace(wobble_model.q, density=js.Affine(math.nan, 0.0))
    m = dataclasses.replace(wobble_model, q=q)
    g = js.gaussian_density((-8.0, 8.0), 128, order=2)
    with pytest.raises(js.InvalidModelError, match="mark density non-finite at z="):
        js.AdjointOperator(m, g, js.EvolutionConfig(i=8, trunc=3))


def test_nan_drift_is_refused_in_the_build(wobble_model):
    # it used to surface as "could not bracket the pre-image"
    m = dataclasses.replace(wobble_model, b=js.Affine(math.nan, 0.0))
    g = js.gaussian_density((-8.0, 8.0), 128, order=2)
    with pytest.raises(js.InvalidModelError, match=r"drift derivative 0 non-finite at y=-8\.0"):
        js.AdjointOperator(m, g, js.EvolutionConfig(i=8, trunc=3))


def test_duality_accepts_plain_callable(wobble_model):
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    out = js.duality_residual(
        wobble_model, g, lambda y: np.cos(y), js.EvolutionConfig(i=8, trunc=3)
    )
    assert out["residual"] <= 1e-6


def test_duality_residual_takes_a_sequence(wobble_model):
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    phis = [js.GaussBump(1.0, 0.3, 1.2), lambda y: np.cos(y)]
    out = js.duality_residual(wobble_model, g, phis, cfg)
    singles = [js.duality_residual(wobble_model, g, phi, cfg) for phi in phis]
    assert out["lhs"] == [r["lhs"] for r in singles]
    assert out["rhs"] == [r["rhs"] for r in singles]
    assert out["residual"] == max(r["residual"] for r in singles)


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


def test_evolve_time_error_is_richardson_estimate(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 512, order=2, sigma=0.8)
    coarse = js.evolve(wobble_model, init, 0.3, js.EvolutionConfig(i=8, trunc=3))
    dt = coarse.dt
    fine = js.evolve(wobble_model, init, 0.3, js.EvolutionConfig(i=8, trunc=3, dt=dt / 2))
    ref = js.evolve(wobble_model, init, 0.3, js.EvolutionConfig(i=8, trunc=3, dt=dt / 16))
    gap = np.trapezoid(np.abs(coarse.final.values[0] - ref.final.values[0]), dx=init.spacing)
    assert gap / 1.25 <= coarse.time_error <= 1.25 * gap
    # first order in time: halving dt halves the error
    assert 0.4 <= fine.time_error / coarse.time_error <= 0.6


def test_evolve_and_picard_build_the_operator_once(wobble_model, monkeypatch):
    built = []

    class Counting(js.AdjointOperator):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(js.fokker_planck, "AdjointOperator", Counting)
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    res = js.evolve(wobble_model, init, 0.1, cfg)
    assert len(built) == 1 and res.time_error > 0.0
    js.picard_validate(wobble_model, init, 0.02, cfg)
    assert len(built) == 2


def test_norm_growth_audit_runs_one_euler_pass_per_index(wobble_model, monkeypatch):
    # one pass at i and one at 2 i, at the stable step and without the dt/2
    # companion; every other config field reaches the passes unchanged (a set
    # dt is refused, see test_norm_growth_audit_refuses_a_set_dt)
    calls = []
    euler = js.fokker_planck._euler

    def counting(op, initial, t_end, dt, cfg, snapshot_times=()):
        calls.append((cfg, dt, op.stable_dt(), len(snapshot_times)))
        return euler(op, initial, t_end, dt, cfg, snapshot_times)

    monkeypatch.setattr(js.fokker_planck, "_euler", counting)
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3, quad_nodes=128, mass_tol=1e-3)
    report = js.norm_growth_audit(wobble_model, init, 0.3, cfg, checkpoints=6)
    assert report["status"] == "ok"
    assert [c[0] for c in calls] == [
        dataclasses.replace(cfg, i=8), dataclasses.replace(cfg, i=16)
    ]
    assert all(dt == stable and snaps == 7 for _, dt, stable, snaps in calls)


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


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_evolution_rejects_nonpositive_or_nonfinite_dt(wobble_model, dt):
    # dt = 0 used to loop forever and dt < 0 ran time backwards
    init = js.gaussian_density((-8.0, 8.0), 128, order=2)
    cfg = js.EvolutionConfig(i=8, trunc=3, dt=dt)
    with pytest.raises(js.ContractError, match="dt must be positive and finite"):
        js.evolve(wobble_model, init, 0.5, cfg)
    with pytest.raises(js.ContractError, match="dt must be positive and finite"):
        js.picard_validate(wobble_model, init, 0.05, cfg)


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


def test_norm_growth_audit_refuses_a_set_dt(wobble_model):
    # both runs take the stable step; a set dt (even -5.0) used to be ignored
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    for dt in (-5.0, 1e-3):
        cfg = js.EvolutionConfig(i=8, trunc=3, dt=dt)
        with pytest.raises(js.ContractError, match="stable step"):
            js.norm_growth_audit(wobble_model, init, 0.6, cfg)


def test_norm_growth_audit_reports_numerical_failure():
    m = _translate_model(2.0)
    init = js.gaussian_density((-2.0, 2.0), 256, order=2, sigma=0.5)
    rep = js.norm_growth_audit(m, init, 2.0, js.EvolutionConfig(i=50, trunc=1, escape_tol=1e-3))
    assert rep["status"] == "numerical_failure"
    assert not rep["passed"]


def test_norm_growth_audit_propagates_programming_errors(wobble_model, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a numerical failure")

    # the audit steps each operator with the internal Euler loop
    monkeypatch.setattr(js.fokker_planck, "_euler", broken)
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    with pytest.raises(TypeError, match="not a numerical failure"):
        js.norm_growth_audit(wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3))


@pytest.mark.parametrize("t_end", [-1.0, math.nan, math.inf])
def test_evolve_refuses_a_bad_horizon_at_once(wobble_model, t_end):
    # the one horizon rule of the simulator and the config: a NaN horizon
    # used to return an evolution at once, an infinite one ran until the
    # stack diverged
    g = js.gaussian_density((-8.0, 8.0), 64, order=2)
    with pytest.raises(js.ContractError, match="t_end must be"):
        js.evolve(wobble_model, g, t_end, js.EvolutionConfig(i=8, trunc=1))


# The `evolve` final on the evolution stanza of each bench workload, recorded
# before the operator parts became scipy CSR matrices: rows 0-2 at 9 nodes
# 24 apart from the first node named, then time_error and mass_drift.  A
# change of the integrator moves these figures and re-records them.
_EVOLVE_PINS = {
    "wobble": (
        416,
        [
            [
                0.010452185392644045, 0.06755057440043767, 0.25029913334239884,
                0.5499081936476218, 0.7349385002694531, 0.6084826486836891,
                0.3154072668521224, 0.10254850142159548, 0.020761090838011018,
            ],
            [
                0.0600722078167093, 0.28463124803413553, 0.6958322405455843,
                0.7836605680406851, 0.09433866306179096, -0.6873785108915669,
                -0.747707508022092, -0.37112556852951906, -0.10168667265861145,
            ],
            [
                0.30098556026793194, 0.9329386822864498, 1.0071030806072074,
                -0.8207944118527372, -2.482350302512158, -1.2426465235255888,
                0.7302005983829164, 0.9987844013375502, 0.42617343228630017,
            ],
        ],
        0.0008934684467538604,
        6.635943794464083e-09,
    ),
    "power": (
        320,
        [
            [
                0.0033694603133978982, 0.023158403591356985, 0.10391969333867529,
                0.30599778951608103, 0.5965243662048092, 0.7762338558300744,
                0.6711656472397071, 0.3808195818431125, 0.14164297249470773,
            ],
            [
                0.02197146833880775, 0.12084340233431262, 0.40798274239402754,
                0.8123918465774888, 0.8440875567422755, 0.14437211621162857,
                -0.7244412967906073, -0.9032003528849639, -0.5162105352929449,
            ],
            [
                0.12987594423875276, 0.5390047101019023, 1.1955113145937593,
                0.9866420315648012, -1.033553301141294, -2.9076001067436104,
                -1.847233190930247, 0.6474461226629217, 1.341287801316108,
            ],
        ],
        0.0006529582051174795,
        9.876561790633787e-10,
    ),
}


@pytest.mark.parametrize("name", sorted(_EVOLVE_PINS))
def test_evolve_pinned_on_bench_settings(name):
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "bench" / "workloads"
                          / f"{name}.yaml"))
    ev = cfg.evolution
    init = js.gaussian_density(ev.window, ev.nodes, cfg.coeffs.k, ev.initial_mean,
                               ev.initial_sigma)
    econf = js.EvolutionConfig(i=ev.i, dt=ev.dt, trunc=ev.trunc, quad_nodes=ev.quad_nodes)
    result = js.evolve(cfg.coeffs, init, ev.t_end, econf)
    start, rows, time_error, mass_drift = _EVOLVE_PINS[name]
    nodes = np.arange(start, start + 9 * 24, 24)
    np.testing.assert_allclose(result.final.values[:, nodes], rows, rtol=1e-12, atol=0.0)
    assert result.time_error == pytest.approx(time_error, rel=1e-12, abs=0.0)
    assert result.mass_drift == pytest.approx(mass_drift, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t_end", [-1.0, math.nan, math.inf])
def test_norm_growth_audit_refuses_a_bad_horizon(wobble_model, t_end):
    # an infinite horizon used to warn from np.linspace and come back as a
    # numerical_failure report; a bad horizon is the caller's error
    g = js.gaussian_density((-8.0, 8.0), 64, order=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(js.ContractError, match="t_end must be"):
            js.norm_growth_audit(wobble_model, g, t_end, js.EvolutionConfig(i=8, trunc=1))
