"""End-to-end acceptance gates for the shipped guarantees.

Each test prints one ACCEPTANCE line with the measured numbers before
asserting, so the verbose suite output doubles as the acceptance report.
"""

import math

import numpy as np

import jumpsmooth as js

from test_calculus import (
    test_composition_randomized_polynomial_sweep as _composition_sweep,
    test_inverse_randomized_reversion_sweep as _reversion_sweep,
    test_transfer_alpha_randomized_fd_sweep as _alpha_sweep,
    test_transfer_beta_randomized_fd_sweep as _beta_sweep,
)


def _gate(cid: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance gate {cid} failed: {detail}"


def test_filtered_first_jump_tail_bound(exp_unit_model):
    # survival of the first filtered jump is bounded by e^{-n t}: the n-th
    # kernel carries mass n + 1, so the true survival e^{-(n+1)t} sits under
    # the bound with room for 3 binomial sigma at 1e5 runs
    runs = 100_000
    kernels = js.make_kernels(exp_unit_model, (3, 5, 8))
    worst = -math.inf
    lines = []
    for n in (3, 5, 8):
        batch = js.simulate_batch(
            exp_unit_model, 0.3, 0.5, 1, js.RngSpec(8, stream=n), runs,
            kernels=kernels, filter_n=n,
        )
        for t in (0.2, 0.5):
            bound = math.exp(-n * t)
            sigma = math.sqrt(bound * (1.0 - bound) / runs)
            surv = float(np.mean(batch["tau"] > t))
            excess = surv - (bound + 3.0 * sigma)
            worst = max(worst, excess)
            lines.append(f"n={n} t={t}: {surv:.4f} vs {bound:.4f}")
    _gate(1, worst <= 0.0, f"max excess over e^(-n t) + 3 sigma = {worst:.2e}; " + "; ".join(lines[:2]))


def test_kernel_mass_bracket(wobble_model):
    y_grid = np.linspace(-8.0, 8.0, 21)
    lo_violation = hi_violation = 0.0
    for n in range(1, 51):
        masses = np.array([js.kernel_mass(wobble_model, float(y), n) for y in y_grid])
        lo_violation = max(lo_violation, float(np.max(n - masses)))
        hi_violation = max(hi_violation, float(np.max(masses - (n + 2))))
    ok = lo_violation <= 1e-6 and hi_violation <= 1e-6
    _gate(2, ok, f"n=1..50 x 21 states; worst under/over-shoot {lo_violation:.2e}/{hi_violation:.2e}")


def test_collapse_atom_mass(collapse_model):
    # marks in A freeze the state at 0 and 0 is absorbing, so the atom mass
    # is exactly 1 - e^{-q(A) t} with q(A) = 1
    runs = 100_000
    worst = -math.inf
    details = []
    for j, t in enumerate((0.5, 1.0)):
        batch = js.simulate_batch(collapse_model, 0.5, t, 1, js.RngSpec(17, stream=j), runs)
        atom = float(np.mean(batch["terminal"] == 0.0))
        p = 1.0 - math.exp(-t)
        sigma = math.sqrt(p * (1.0 - p) / runs)
        worst = max(worst, abs(atom - p) - 3.0 * sigma)
        details.append(f"t={t}: {atom:.4f} vs {p:.4f}")
    _gate(3, worst <= 0.0, "; ".join(details) + f"; worst |gap|-3sigma = {worst:.2e}")


def test_mass_conservation_and_duality(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 2048, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    res = js.evolve(wobble_model, init, 1.0, cfg)
    mass_err = float(np.max(np.abs(np.asarray(res.masses) - 1.0)))
    tests = [
        js.Affine(1.0, 0.0),
        js.Affine(0.0, 1.0),
        js.FunctionProduct(js.Affine(0.0, 1.0), js.Affine(0.0, 1.0)),
        js.Sinusoidal(1.0, 1.0),
        js.GaussBump(1.0, 0.3, 1.2),
    ]
    resid = js.duality_residual(wobble_model, init, tests, cfg)["residual"]
    ok = mass_err <= 1e-4 and resid <= 1e-6
    _gate(4, ok, f"max |mass - 1| = {mass_err:.2e} over [0,1]; duality residual {resid:.2e} on 5 tests")


def test_sobolev_norm_envelope(wobble_model, ripple_model):
    reports = {}
    init_w = js.gaussian_density((-8.0, 8.0), 640, order=2, sigma=0.8)
    reports["wobble"] = js.norm_growth_audit(
        wobble_model, init_w, 0.6, js.EvolutionConfig(i=8, trunc=3)
    )
    init_r = js.gaussian_density((-6.0, 6.0), 512, order=2, sigma=0.8)
    reports["ripple"] = js.norm_growth_audit(
        ripple_model, init_r, 0.6, js.EvolutionConfig(i=8, trunc=1)
    )
    ok = all(
        r["status"] == "ok" and r["passed"] and r["envelope_ok_i"]
        and r["envelope_ok_2i"] and r["rate_stable"]
        for r in reports.values()
    )
    detail = "; ".join(
        f"{name}: rate {r.get('fitted_rate_i', float('nan')):.3f} -> "
        f"{r.get('fitted_rate_2i', float('nan')):.3f} under i doubling"
        for name, r in reports.items()
    )
    _gate(5, ok, detail + "; envelope e^{1.1 C t} held at 10 checkpoints")


def test_cross_engine_agreement(uniform_jump_model, wobble_model):
    runs = 100_000
    cases = (
        (uniform_jump_model, (-3.0, 6.0), 1, 1, 2718, 31),
        (wobble_model, (-8.0, 8.0), 2, 2, 314, 32),
    )
    l1s = []
    for coeffs, window, order, trunc, x0_seed, seed in cases:
        init = js.gaussian_density(window, 1024, order=order, mean=0.0, sigma=0.5)
        res = js.evolve(coeffs, init, 0.5, js.EvolutionConfig(i=8, trunc=trunc))
        x0 = np.random.default_rng(x0_seed).normal(0.0, 0.5, runs)
        batch = js.simulate_batch(coeffs, x0, 0.5, trunc, js.RngSpec(seed), runs, i=8)
        hist = js.histogram_density(batch["terminal"], window, bins=96)
        l1s.append(js.compare_densities(res.final, hist)["l1"])
    ok = all(v <= 0.05 for v in l1s)
    _gate(6, ok, f"L1(evolved, 1e5-sample histogram) = {l1s[0]:.4f} / {l1s[1]:.4f} at t=0.5")


def test_calculus_oracle_sweeps():
    try:
        _composition_sweep()
        _reversion_sweep()
        _alpha_sweep()
        _beta_sweep()
    except AssertionError:
        _gate(7, False, "a randomized oracle sweep left tolerance")
        raise
    _gate(7, True, "4 x 50 randomized cases: series oracles 1e-10 relative, transfer identities 1e-6 vs FD")


def test_decay_ordering_and_atom_certificate(power_model, collapse_model):
    kernels = js.make_kernels(power_model, (2, 4), theta=8.4)
    slopes = {}
    for stream, t_end in ((1, 0.25), (4, 1.0)):
        rep = js.smoothness_pipeline(
            power_model, kernels, 0.0, t_end, js.RngSpec(64, stream=stream),
            js.PipelineConfig(runs=1_000_000, trunc=1, threads=2),
        )
        slopes[t_end] = rep["fit"].slope
    atom = js.smoothness_pipeline(
        collapse_model, None, 0.5, 1.5, js.RngSpec(65),
        js.PipelineConfig(runs=200_000, threads=2),
    )
    ok = slopes[1.0] < slopes[0.25] and atom["certificate"] == "no density"
    _gate(
        8,
        ok,
        f"cf slope {slopes[0.25]:.3f} at t=0.25 vs {slopes[1.0]:.3f} at t=1; "
        f"collapse certificate '{atom['certificate']}'",
    )
