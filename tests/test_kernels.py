"""Filtered jump-kernel family: cutoffs, densities, masses, norm audits."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import jumpsmooth as js

from conftest import NaNBeyond


def _left_model():
    # marks on (-inf, 0), displacement e^{z} increasing toward the endpoint
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, -1.0)),))
    q = js.JumpMeasureSpec((-np.inf, 0.0), js.constant(1.0), (12.0, 30.0))
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.ExpDecay(1.0, -1.0), q=q, k=2, y_window=(-3.0, 3.0),
    )


def _scaled_rate_model(rate=0.7):
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (40.0,))
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(rate), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-3.0, 3.0),
    )


# ---------------------------------------------------------------------------
# cutoff family
# ---------------------------------------------------------------------------


def test_cutoff_plateau_support_and_ramp():
    for n in (1, 4, 9):
        phi = js.make_cutoff(n, 2)
        xs = np.array([0.9, 1.0, 2.0, 0.5 * (n + 4), n + 2.0, n + 3.0, n + 3.4])
        vals = phi.value(xs)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert np.allclose(vals[2:5], 1.0)
        assert vals[5] == 0.0 and vals[6] == 0.0
        assert phi.value(np.array([1.5]))[0] == pytest.approx(0.5, rel=1e-12)
        assert phi.value(np.array([n + 2.5]))[0] == pytest.approx(0.5, rel=1e-12)


def test_cutoff_derivative_bounds_uniform_in_n():
    # sup |phi_n''| over the first cutoff's rising ramp bounds every cutoff
    b2 = float(np.max(np.abs(js.make_cutoff(1, 3).derivative(1.0 + np.linspace(0.0, 1.0, 4097), 2))))
    for n in (1, 5, 20):
        phi = js.make_cutoff(n, 3)
        xs = np.linspace(1.0, 2.0, 501)
        assert np.max(np.abs(phi.derivative(xs, 2))) <= b2 + 1e-9


def test_cutoff_rejects_bad_indices():
    with pytest.raises(js.ContractError):
        js.make_cutoff(0, 2)
    with pytest.raises(js.ContractError):
        js.make_cutoff(3, 0)


# ---------------------------------------------------------------------------
# kernel density mu_n
# ---------------------------------------------------------------------------


def test_mu_closed_form_unit_rate(exp_unit_model):
    # h = e^{-z}, gamma = 1: the scaled coordinate is w = z, the displacement
    # u = e^{-w}, so mu_n(u) = phi_n(-log u) / u on (e^{-(n+3)}, e^{-1}).
    n = 3
    u = np.geomspace(np.exp(-(n + 3)) * 1.01, np.exp(-1.0) * 0.99, 200)
    got = js.mu_density(exp_unit_model, 0.5, n, u)
    phi = js.make_cutoff(n, exp_unit_model.k)
    want = phi.value(-np.log(u)) / u
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_mu_closed_form_scaled_rate():
    # gamma = 0.7: w = 0.7 z, u = e^{-w/0.7}, mu_n(u) = 0.7 phi_n(-0.7 log u)/u.
    m = _scaled_rate_model(0.7)
    n = 2
    wlo, whi = 1.0, n + 3.0
    u = np.geomspace(np.exp(-whi / 0.7) * 1.01, np.exp(-wlo / 0.7) * 0.99, 150)
    got = js.mu_density(m, 0.0, n, u)
    phi = js.make_cutoff(n, m.k)
    want = 0.7 * phi.value(-0.7 * np.log(u)) / u
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_mu_locality(exp_unit_model, monkeypatch):
    n = 2
    inside = np.exp(-0.5 * (1.0 + n + 3.0))
    outside = np.array([np.exp(-(n + 3.5)), np.exp(-0.8), 0.5, 1.5])
    got = js.mu_density(exp_unit_model, 0.0, n, np.concatenate([[inside], outside]))
    assert got[0] > 0.0
    assert np.allclose(got[1:], 0.0, atol=1e-300)
    # with no displacement inside the image window there is nothing to solve
    monkeypatch.setattr(js.kernels, "_bracketed_newton", None)
    assert js.mu_density(exp_unit_model, 0.0, n, outside).tolist() == [0.0] * outside.size


def test_mu_left_support_matches_mirrored_form():
    m = _left_model()
    # h = e^{z} on z < 0: w = -z, u = e^{-w}: same law as the right model
    n = 2
    u = np.geomspace(np.exp(-(n + 3)) * 1.01, np.exp(-1.0) * 0.99, 100)
    got = js.mu_density(m, 0.0, n, u)
    phi = js.make_cutoff(n, m.k)
    assert np.allclose(got, phi.value(-np.log(u)) / u, rtol=1e-9)


# ---------------------------------------------------------------------------
# kernel mass
# ---------------------------------------------------------------------------


def test_kernel_mass_exact_small_n(exp_unit_model):
    for n in (1, 2, 3, 5, 8):
        mass = js.kernel_mass(exp_unit_model, 0.3, n)
        assert mass == pytest.approx(n + 1.0, rel=1e-10)


def test_kernel_mass_bracket_large_n_state_sweep(wobble_model):
    for n in (1, 5, 13, 34, 50):
        for y in np.linspace(-8, 8, 7):
            mass = js.kernel_mass(wobble_model, float(y), n)
            assert n - 1e-6 <= mass <= n + 2 + 1e-6


def test_kernel_mass_left_support():
    m = _left_model()
    for n in (1, 4):
        assert js.kernel_mass(m, 0.0, n) == pytest.approx(n + 1.0, rel=1e-9)


def test_cutoff_window_mass_clipping(exp_unit_model):
    m = exp_unit_model
    n = 4
    full = js.cutoff_window_mass(m, 0.0, n)
    assert full == pytest.approx(n + 1.0, rel=1e-12)
    # gamma = 1: the w-window equals the z-interval
    assert js.cutoff_window_mass(m, 0.0, n, (0.0, n + 2.0)) == pytest.approx(
        n + 0.5, rel=1e-12
    )
    assert js.cutoff_window_mass(m, 0.0, n, (0.0, 2.0)) == pytest.approx(0.5, rel=1e-12)
    assert js.cutoff_window_mass(m, 0.0, n, (0.0, 1.0)) == 0.0
    assert js.cutoff_window_mass(m, 0.0, n, (3.0, 4.0)) == pytest.approx(1.0, rel=1e-12)


def test_conditional_density_normalizes(exp_unit_model):
    n = 3
    grid = np.linspace(1e-4, np.exp(-1.0), 2001)
    dens = js.conditional_jump_density(exp_unit_model, 0.0, n, grid)
    assert dens.mass() == pytest.approx(1.0, rel=1e-6)
    assert dens.values.shape[0] == exp_unit_model.k + 1
    # derivative row consistent with differentiating row 0; stay away from
    # u -> 0 where mu ~ 1/u makes uniform-grid differencing meaningless
    num = np.gradient(dens.values[0], dens.grid)
    tame = (dens.grid > 0.05) & (dens.grid < 0.99 * np.exp(-1.0))
    denom = np.maximum(np.abs(dens.values[1][tame]), 1.0)
    assert np.max(np.abs((num[tame] - dens.values[1][tame]) / denom)) < 5e-3


def test_conditional_density_rejects_coarse_window(exp_unit_model):
    grid = np.linspace(0.2, 0.3, 50)  # misses nearly all kernel mass
    with pytest.raises(js.ResolutionError):
        js.conditional_jump_density(exp_unit_model, 0.0, 3, grid)


# ---------------------------------------------------------------------------
# sobolev audit
# ---------------------------------------------------------------------------


def test_kernel_sobolev_audit_exponential_model(exp_unit_model):
    ys = np.linspace(-2, 2, 5)
    audit = js.kernel_sobolev_audit(exp_unit_model, ys, (1, 2, 4, 8), theta=4.2)
    assert audit["passed"]
    # |h_z|^{-1} = e^{z} over windows of length n: W^{k,1}/mass ratio grows
    # like e^{kn}; the fit sees roughly slope k = 2
    assert 1.5 <= audit["fitted_theta"] <= 2.8
    # |mu^(l)| kinks at sign changes keep fixed panels from spectral
    # accuracy; the ratio rule only needs a few digits
    assert audit["refinement_change"] < 1e-2
    tight = js.kernel_sobolev_audit(exp_unit_model, ys, (1, 2, 4, 8), theta=1.0)
    assert not tight["passed"]


def test_kernel_sobolev_audit_reuses_table_norm(wobble_model, monkeypatch):
    # one block quadrature over every state per kernel index, plus one
    # doubled-node refinement at the worst state: the coarse side of the
    # refinement check is the table's own norm
    calls = []
    integrals = js.kernels._Kernel.integrals

    def counted(self, order, scale=1):
        calls.append((scale, len(self.ys)))
        return integrals(self, order, scale)

    monkeypatch.setattr(js.kernels._Kernel, "integrals", counted)
    ys = np.linspace(-6.0, 6.0, 10)
    audit = js.kernel_sobolev_audit(wobble_model, ys, (2, 4), 12.0)
    assert len(audit["ratio_table"]) * len(ys) == 20
    assert calls == [(1, 10), (1, 10), (2, 1)]


def test_kernel_audits_make_no_newton_solves(wobble_model, monkeypatch):
    # the audits evaluate the density at their own Gauss nodes; only a read at
    # arbitrary displacements solves for the marks
    calls = []
    newton = js.kernels._bracketed_newton

    def counted(*args, **kwargs):
        calls.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(js.kernels, "_bracketed_newton", counted)
    js.kernel_sobolev_audit(wobble_model, np.linspace(-6.0, 6.0, 5), (2, 4), 12.0)
    js.kernel_mass(wobble_model, 0.5, 3)
    assert calls == []
    js.mu_density(wobble_model, 0.5, 3, np.geomspace(1e-3, 0.3, 32))
    assert calls == [1]


def test_block_rows_equal_blocks_of_one(wobble_model):
    # each state's row of a block quadrature is its quadrature alone
    ys = np.linspace(-8.0, 8.0, 7)
    norms, mass = js.kernels._Kernel(wobble_model, ys, 5).integrals(2)
    for j, y in enumerate(ys):
        one = js.kernels._Kernel(wobble_model, y, 5).integrals(2)
        assert np.array_equal(norms[:, j], one[0][:, 0]) and mass[j] == one[1][0]
        assert js.kernel_mass(wobble_model, y, 5) == float(mass[j])


@pytest.mark.parametrize("name", ["wobble", "exp-unit", "left"])
def test_stack_at_nodes_matches_solved_stack(name, wobble_model, exp_unit_model):
    # the Newton path of mu_density and conditional_jump_density, which
    # solves u = H(w) for the mark, against the node path of the audits
    m = {"wobble": wobble_model, "exp-unit": exp_unit_model, "left": _left_model()}[name]
    for n in (2, 5):
        kernel = js.kernels._Kernel(m, np.linspace(*m.y_window, 4), n).checked()
        w = np.linspace(1.0, n + 3.0, 41)[1:-1]
        at_nodes = kernel._stack_at(w, m.k)[0]
        solved = kernel.stack(kernel.H(w), m.k)
        scale = np.max(np.abs(at_nodes), axis=-1, keepdims=True)
        assert np.max(np.abs(solved - at_nodes) / scale) < 1e-10


def test_kernel_sobolev_audit_needs_two_indices(exp_unit_model):
    with pytest.raises(js.ContractError):
        js.kernel_sobolev_audit(exp_unit_model, np.array([0.0]), (3,), theta=1.0)


def _power_audit_states(m):
    # the states the `kernels` command audits
    return m.y_audit_states(js.kernels.SOBOLEV_AUDIT_STATES)


def test_kernel_indices_must_be_distinct(power_model):
    # (4, 4) passed, and the audit fitted its profile through one index
    # counted twice
    with pytest.raises(js.ContractError, match=r"^kernel indices must be distinct, got \[4, 4\]$"):
        js.make_kernels(power_model, (4, 4))
    with pytest.raises(js.ContractError, match="^kernel indices must be distinct"):
        js.kernel_sobolev_audit(power_model, _power_audit_states(power_model), (2, 4, 4), 1.0)


def test_kernel_sobolev_audit_refuses_fractional_indices(power_model):
    # (2.5, 4.9) was audited as (2, 4), where make_kernels refuses 2.5
    with pytest.raises(js.ContractError, match="^kernel index must be an integer, got 2.5$"):
        js.kernel_sobolev_audit(power_model, _power_audit_states(power_model), (2.5, 4.9), 1.0)


def test_kernel_sobolev_audit_reads_indices_in_ascending_order(power_model):
    # (16, 8, 4, 2) failed where (2, 4, 8, 16) passed: the head and tail
    # halves of the budget rule were taken in the order given
    ys = _power_audit_states(power_model)
    ascending = js.kernel_sobolev_audit(power_model, ys, (2, 4, 8, 16), 1.0)
    assert ascending["passed"]
    assert js.kernel_sobolev_audit(power_model, ys, (16, 8, 4, 2), 1.0) == ascending


def test_kernel_sobolev_audit_refuses_an_empty_state_grid(power_model):
    # numpy's zero-size ValueError used to escape the audit
    with pytest.raises(js.ContractError, match="^kernel audit needs at least one audit state$"):
        js.kernel_sobolev_audit(power_model, np.array([]), (2, 4), 1.0)


@pytest.mark.parametrize("theta", [-1.0, -0.1, math.nan, math.inf])
def test_theta_is_refused_by_one_rule(exp_unit_model, theta):
    # check_B alone refused theta < 0; make_kernels and the audit took any
    # theta, and NaN passed everywhere as a failed audit
    message = f"^theta must be finite and >= 0, got {theta!r}$"
    with pytest.raises(js.ContractError, match=message):
        js.make_kernels(exp_unit_model, (2, 4), theta=theta)
    with pytest.raises(js.ContractError, match=message):
        js.kernel_sobolev_audit(exp_unit_model, np.array([0.0, 1.0]), (2, 4), theta)
    with pytest.raises(js.ContractError, match=message):
        js.check_B(exp_unit_model, n_max=4, theta=theta)
    # a decomposition built by hand meets the rule in the pipeline, before
    # any sampling: theta = -t_end raised ZeroDivisionError after the batch
    bare = js.KernelDecomposition(exp_unit_model, (2,), theta=theta)
    with pytest.raises(js.ContractError, match=message):
        js.smoothness_pipeline(exp_unit_model, bare, 0.0, 0.1, js.RngSpec(1))


# ---------------------------------------------------------------------------
# decomposition facade
# ---------------------------------------------------------------------------


def test_make_kernels_facade(exp_unit_model):
    # the facade carries the filter ratio; the cutoff, the mass and the
    # acceptance rate are the module's functions of the model
    m = exp_unit_model
    kd = js.make_kernels(m, (2, 1, 4), theta=4.2)
    assert kd.n_values == (1, 2, 4)
    assert js.kernel_mass(m, 0.0, 2) == pytest.approx(3.0, rel=1e-9)
    assert js.make_cutoff(4, m.k).value(np.array([3.0]))[0] == 1.0
    z = np.linspace(0.05, 10.0, 400)
    acc = kd.acceptance(2, 0.0, z)
    assert np.all((0.0 <= acc) & (acc <= 1.0))
    # acceptance equals the cutoff in the scaled coordinate when rho = 1
    assert np.allclose(acc, phi_at := js.make_cutoff(2, m.k).value(z), atol=1e-12), phi_at
    assert js.cutoff_window_mass(m, 0.0, 2, (0.0, 12.0)) == pytest.approx(3.0, rel=1e-9)
    for name in ("cutoff", "mass", "acceptance_rate"):
        assert not hasattr(kd, name)
    d = kd.describe()
    assert d["n_values"] == [1, 2, 4]


def test_make_kernels_rejects_sub_lebesgue_density():
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(0.5), (12.0,))
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-2.0, 2.0),
    )
    with pytest.raises(js.InvalidModelError):
        js.make_kernels(m, (1, 2))


def test_make_kernels_rejects_nan_mark_density(exp_unit_model):
    # Python's min skips NaN: the audit used to read density_floor inf, and
    # every filter ratio then came out 0, so a filtered batch kept nothing
    q = dataclasses.replace(exp_unit_model.q, density=js.Affine(math.nan, 0.0))
    m = dataclasses.replace(exp_unit_model, q=q)
    with pytest.raises(js.InvalidModelError, match="mark density non-finite at z="):
        js.make_kernels(m, (2, 3))


def test_a_non_finite_amplitude_slope_is_an_invalid_model(exp_unit_model):
    # dh/dz NaN beyond z = 2.5, inside the cutoff windows: the NaN slopes
    # used to read as a sign change, "not strictly monotone"
    h = js.JumpAmplitude(((js.constant(1.0), NaNBeyond(1.0, 1.0, edge=2.5)),))
    m = dataclasses.replace(exp_unit_model, h=h)
    w = np.linspace(0.75, 4 + 3.25, 257)  # the marks at unit rate from 0
    first = float(w[w > 2.5][0])
    y0 = float(m.y_audit_states(js.kernels.RATE_AUDIT_STATES)[0])
    calls = (
        (lambda: js.make_kernels(m, (2, 4)), y0),
        (lambda: js.kernel_mass(m, 0.5, 4), 0.5),
        (lambda: js.mu_density(m, 0.5, 4, np.array([0.01])), 0.5),
    )
    for call, y in calls:
        with pytest.raises(js.InvalidModelError) as err:
            call()
        assert str(err.value) == f"dh/dz non-finite at y={y!r}, z={first!r}"

def test_make_kernels_rejects_zero_rate():
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (12.0,))
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(0.0), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-2.0, 2.0),
    )
    with pytest.raises(js.InvalidModelError):
        js.make_kernels(m, (1, 2))


def test_make_kernels_rejects_degenerate_displacement(collapse_model):
    with pytest.raises((js.DegenerateKernelError, js.InvalidModelError)):
        js.make_kernels(collapse_model, (1, 2))


def test_acceptance_refuses_a_filter_ratio_above_one():
    # a mark density of 0.5, below Lebesgue, that no audit has refused: on
    # the plateau phi_n = 1 the ratio reads 2
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(0.5), (12.0,))
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-2.0, 2.0),
    )
    kd = js.KernelDecomposition(m, (1, 2))
    assert kd.acceptance(2, 0.0, np.array([0.5, 5.5])).tolist() == [0.0, 0.0]
    with pytest.raises(js.InvalidModelError, match="filter ratio exceeded 1"):
        kd.acceptance(2, 0.0, np.array([3.0]))

def test_kernel_mass_error_out_of_bracket_is_diagnosed():
    # a model whose mark density undercounts mass inside the window would
    # break the bracket; simulate by restricting the truncation so the
    # inversion hits the declared horizon
    m = _scaled_rate_model(0.7)
    masses = [js.kernel_mass(m, 0.0, n) for n in (1, 2, 4, 8, 16)]
    for n, mass in zip((1, 2, 4, 8, 16), masses):
        assert mass == pytest.approx(n + 1.0, rel=1e-9)


def _late_fold_model():
    # h = e^{-z} + g(y) z with a small bump g centred at y = 0.5: h_z changes
    # sign at z = -log g(y), inside the window of n = 4 only, near y = 0.5
    h = js.JumpAmplitude((
        (js.constant(1.0), js.ExpDecay(1.0, 1.0)),
        (js.GaussBump(1e-3, 0.5, 0.5), js.Affine(0.0, 1.0)),
    ))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (12.0,))
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-3.0, 3.0),
    )


def _vanishing_rate_model():
    # gamma(y) = y^2 vanishes at the interior audit state y = 0
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (12.0,))
    y = js.Affine(0.0, 1.0)
    return js.CoefficientSet(
        b=js.constant(0.0), gamma=js.FunctionProduct(y, y), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-3.0, 3.0),
    )


# recorded from the state-by-state kernel construction: the blocked one must
# raise the same error, in the same state order, for each model
KERNEL_ERRORS = Path(__file__).parent / "data" / "kernel_errors.json"


def test_kernel_errors_pinned(collapse_model):
    want = json.loads(KERNEL_ERRORS.read_text())
    ys = np.linspace(-3.0, 3.0, 13)
    got = {}
    models = (
        ("collapse", collapse_model),
        ("late-fold", _late_fold_model()),
        ("vanishing-rate", _vanishing_rate_model()),
    )
    for name, m in models:
        for key, build in (
            (f"make_kernels/{name}", lambda: js.make_kernels(m, (2, 4))),
            (f"sobolev/{name}", lambda: js.kernel_sobolev_audit(m, ys, (2, 4), 4.2)),
        ):
            with pytest.raises(js.JumpsmoothError) as err:
                build()
            got[key] = [type(err.value).__name__, str(err.value)]
    assert got == want


def _outcome(call):
    try:
        return call()
    except js.JumpsmoothError as exc:
        return [type(exc).__name__, str(exc)]


def test_audit_masses_are_kernel_mass_calls(wobble_model, collapse_model, monkeypatch):
    # the masses the audit hands back are every audited state's `kernel_mass`,
    # bit for bit, or the audit raises what the audit's integrals and then the
    # calls raise first
    ys = np.linspace(-3.0, 3.0, 13)
    ns = (2, 4)

    def one_by_one(m):
        audit = js.kernel_sobolev_audit(m, ys, ns, 12.0)
        del audit["masses"]
        return [audit, [[js.kernel_mass(m, float(y), n) for y in ys] for n in ns]]

    def handed_back(m):
        audit = js.kernel_sobolev_audit(m, ys, ns, 12.0)
        return [audit, audit.pop("masses")]

    models = (wobble_model, collapse_model, _late_fold_model(), _vanishing_rate_model())
    outcomes = [(_outcome(lambda: one_by_one(m)), _outcome(lambda: handed_back(m))) for m in models]
    assert all(want == got for want, got in outcomes)
    assert [isinstance(want[0], str) for want, _ in outcomes] == [False, True, True, True]
    # doubled mass weights break the bracket at the first index and state,
    # where the calls alone break it too
    nodes = js.kernels._mass_nodes
    monkeypatch.setattr(js.kernels, "_mass_nodes", lambda n, scale: (nodes(n, scale)[0], 2.0 * nodes(n, scale)[1]))
    want, got = _outcome(lambda: one_by_one(wobble_model)), _outcome(lambda: handed_back(wobble_model))
    calls = _outcome(lambda: [js.kernel_mass(wobble_model, float(y), n) for n in ns for y in ys])
    assert want == got == calls and want[0] == "MassBracketError" and "y=-3.0, n=2" in want[1]


def test_make_kernels_reports_the_states_it_audits(wobble_model, monkeypatch):
    # kernels.json read "audited_states": 241, the whole audit grid, where
    # make_kernels audits every 10th state of it
    sizes = []

    class Counting(js.kernels._Kernel):
        def __init__(self, coeffs, ys, n):
            sizes.append(np.size(ys))
            super().__init__(coeffs, ys, n)

    monkeypatch.setattr(js.kernels, "_Kernel", Counting)
    kd = js.make_kernels(wobble_model, (2, 4), 12.0)
    assert js.model.AUDIT_POINTS == 241
    assert sizes == [25] and kd.audit["audited_states"] == 25


# ---------------------------------------------------------------------------
# pinned values of the whole kernel layer
# ---------------------------------------------------------------------------

# the densities and the conditional law repeat the per-state Newton path
# exactly; the masses and the Sobolev tables were re-recorded when the audits
# moved to their own Gauss nodes (moves below 5e-13 relative), and again when
# the Gauss-Legendre rule came from numpy's `leggauss` (moves below 8.2e-16 of
# the largest entry under each key: a mass of 4.0 reads 3.9999999999999996)
KERNEL_PINS = Path(__file__).parent / "data" / "kernel_layer.json"


def _kernel_layer(wobble, exp_unit) -> dict:
    out = {}
    u = np.geomspace(1e-5, 0.5, 64)
    models = (("wobble", wobble, 12.0), ("exp-unit", exp_unit, 4.2), ("left", _left_model(), 4.2))
    for name, m, theta in models:
        ys = np.linspace(*m.y_window, 4)
        out[f"mass/{name}"] = [[js.kernel_mass(m, float(y), n) for n in (1, 3, 8, 21)] for y in ys]
        out[f"mu/{name}"] = [js.mu_density(m, float(y), 3, u).tolist() for y in ys[1:3]]
        audit = js.kernel_sobolev_audit(m, ys, (2, 4), theta)
        out[f"sobolev/{name}"] = [audit["ratio_table"], audit["refinement_change"]]
    grid = np.linspace(1e-4, np.exp(-1.0), 801)
    out["conditional/exp-unit"] = js.conditional_jump_density(exp_unit, 0.0, 3, grid).values.tolist()
    return out


def test_kernel_layer_pinned(wobble_model, exp_unit_model):
    want = json.loads(KERNEL_PINS.read_text())
    got = _kernel_layer(wobble_model, exp_unit_model)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
