"""Fourier-decay fits, density distances, and the sampling pipeline."""

import math

import numpy as np
import pytest

import jumpsmooth as js


def _power_law_cf(exponent, amp=0.9, n_samples=10**12, noise=0.0, seed=42,
                  lo=1.0, hi=12.0, points=40):
    xi = np.geomspace(lo, hi, points)
    mag = amp * xi**exponent
    if noise:
        rng = np.random.default_rng(seed)
        mag = mag * np.exp(rng.normal(0.0, noise, xi.size))
    return js.CFEstimate(xi=xi, values=mag.astype(complex), n_samples=n_samples)


# ---------------------------------------------------------------- decay_fit


def test_decay_fit_recovers_power_law():
    cf = _power_law_cf(-3.4, noise=0.01)
    rep = js.decay_fit(cf)
    assert rep.verdict == "decay"
    assert rep.slope_ci[0] < -3.4 < rep.slope_ci[1]
    assert rep.slope == pytest.approx(-3.4, abs=0.02)
    # certified exponent is the CI lower bound on the decay rate
    assert rep.certified_exponent == pytest.approx(-rep.slope_ci[1])
    assert rep.smoothness_order == 2
    assert rep.n_points == 40


def test_decay_fit_flat_magnitude_is_no_decay():
    xi = np.geomspace(1.0, 50.0, 30)
    cf = js.CFEstimate(xi=xi, values=np.full(xi.size, 0.5 + 0j), n_samples=10**8)
    rep = js.decay_fit(cf)
    assert rep.verdict == "no decay"
    assert rep.slope == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_needs_ten_usable_points():
    cf = _power_law_cf(-2.0, points=8)
    with pytest.raises(js.ResolutionError, match="usable"):
        js.decay_fit(cf)


def test_decay_fit_excludes_sampling_floor_and_nonpositive_xi():
    # N = 400: floor at 3/sqrt(N) = 0.15, crossed by 0.9 xi^-2 at xi ~ 2.45
    xi = np.concatenate([[-1.0, 0.0], np.geomspace(1.0, 50.0, 80)])
    mag = np.where(xi > 0, 0.9 * np.maximum(np.abs(xi), 1.0) ** -2.0, 1.0)
    cf = js.CFEstimate(xi=xi, values=mag.astype(complex), n_samples=400)
    rep = js.decay_fit(cf)
    assert rep.band[1] <= 2.45
    assert rep.n_points < 25
    assert rep.slope == pytest.approx(-2.0, abs=1e-6)


def test_decay_fit_band_restriction():
    cf = _power_law_cf(-1.5, lo=0.5, hi=40.0, points=120)
    rep = js.decay_fit(cf, band=(2.0, 20.0))
    assert rep.band[0] >= 2.0 and rep.band[1] <= 20.0
    assert rep.n_points < 120
    assert rep.slope == pytest.approx(-1.5, abs=1e-9)


def test_atom_mixture_keeps_cf_magnitude_floored():
    # law = 0.1 delta_0 + 0.9 N(0,1): |cf| >= 0.1 - 0.9 e^{-xi^2/2} - noise
    rng = np.random.default_rng(7)
    n = 40_000
    x = rng.normal(0.0, 1.0, n)
    x[rng.random(n) < 0.1] = 0.0
    cf = js.empirical_cf(x, np.geomspace(4.0, 60.0, 25))
    assert float(np.min(cf.magnitude())) >= 0.1 - 5.0 * cf.stderr


# ------------------------------------------------------- compare_densities


def test_compare_densities_identical_is_zero():
    d = js.gaussian_density((-6.0, 6.0), 800, order=1, sigma=1.0)
    out = js.compare_densities(d, d)
    assert out["l1"] == 0.0
    assert out["sup"] == 0.0
    assert out["w11"] == 0.0
    assert out["interval"] == (-6.0, 6.0)


def test_compare_densities_normal_shift_oracle():
    # closed form: || N(0,1) - N(delta,1) ||_L1 = 2 erf(delta / (2 sqrt 2))
    left = js.gaussian_density((-9.0, 9.0), 2048, order=1, mean=0.0, sigma=1.0)
    right = js.gaussian_density((-9.0, 9.0), 2048, order=1, mean=0.1, sigma=1.0)
    out = js.compare_densities(left, right)
    expected = 2.0 * math.erf(0.1 / (2.0 * math.sqrt(2.0)))
    assert out["l1"] == pytest.approx(expected, abs=5e-4)
    assert out["w11"] > out["l1"]
    assert out["sup"] > 0.0
    assert out["bins"] >= 8


def test_compare_densities_mixed_resolution_uses_coarser_grid():
    fine = js.gaussian_density((-7.0, 7.0), 4096, order=0, sigma=1.0)
    coarse = js.gaussian_density((-7.0, 7.0), 512, order=0, sigma=1.0)
    out = js.compare_densities(fine, coarse)
    assert out["bins"] == pytest.approx(511, abs=1)
    assert out["l1"] <= 1e-4
    assert "w11" not in out


def test_compare_densities_disjoint_windows_raise():
    left = js.gaussian_density((0.0, 4.0), 128, order=0, mean=2.0, sigma=0.3)
    right = js.gaussian_density((6.0, 10.0), 128, order=0, mean=8.0, sigma=0.3)
    with pytest.raises(js.WindowTooSmallError, match="overlap"):
        js.compare_densities(left, right)


def test_compare_densities_coverage_guard():
    left = js.gaussian_density((-8.0, 0.0), 512, order=0, mean=-3.0, sigma=1.0)
    right = js.gaussian_density((-1.0, 8.0), 512, order=0, mean=3.0, sigma=1.0)
    with pytest.raises(js.WindowTooSmallError, match="mass"):
        js.compare_densities(left, right)


# ----------------------------------------------------- pipeline and grids


def test_frequency_grid_heuristic_cap():
    cfg = js.PipelineConfig(xi_points=64)
    grid = js.frequency_grid(1_000_000, cfg)
    assert grid.size == 64
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(100.0)  # 0.1 sqrt(N)
    assert np.all(np.diff(grid) > 0)
    assert js.frequency_grid(10**10, cfg)[-1] == pytest.approx(1000.0)
    with pytest.raises(js.ContractError, match="band"):
        js.frequency_grid(1_000_000, js.PipelineConfig(xi_min=200.0))


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("xi_min", 0.0, "xi_min must be positive and finite"),
        ("xi_min", math.nan, "xi_min must be positive and finite"),
        ("xi_points", 9, "xi_points must be at least 10"),
        ("xi_points", 20.5, r"^xi_points must be an integer, got 20.5$"),  # numpy's TypeError
        ("xi_max", math.nan, "frequency band"),
        ("xi_max", 1.0, r"frequency band \[1.0, 1.0\] is empty"),
        ("xi_max", 0.5, r"frequency band \[1.0, 0.5\] is empty"),
        ("xi_max", math.inf, r"frequency band \[1.0, inf\] is empty or unbounded"),
        ("runs", 50, r"frequency band \[1.0, 0.707"),  # the default top, 0.1 sqrt(runs)
        ("runs", -5, "runs must be at least 1, got -5"),  # math.sqrt's ValueError before
    ],
)
def test_bad_band_is_refused_before_the_batch(monkeypatch, exp_unit_model, field, bad, message):
    # xi_min = 0 used to raise numpy's ValueError, and a short grid a
    # ResolutionError, each only after every run had been simulated
    def no_batch(*args, **kwargs):
        raise AssertionError("the batch ran before the band was checked")

    monkeypatch.setattr(js.diagnostics, "simulate_batch", no_batch)
    cfg = js.PipelineConfig(**{"runs": 1000, field: bad})
    with pytest.raises(js.ContractError, match=message):
        js.smoothness_pipeline(exp_unit_model, None, 0.0, 0.5, js.RngSpec(1), cfg)


def test_smoothness_pipeline_power_law_decay(exp_unit_model):
    # b = 0, gamma = 1, displacement e^{-z}, flat marks: each jump adds
    # U = e^{-Z} with density 1/(12 u) on (e^{-12}, 1), so log|cf(xi)| =
    # t (Ci(xi) - euler_gamma - log xi): asymptotically a xi^{-t} power
    # law, and exactly computable on the finite fit band
    from scipy.special import sici

    t_end = 0.75
    runs = 20_000
    cfg = js.PipelineConfig(runs=runs, trunc=1)
    kern = js.make_kernels(exp_unit_model, (2, 5), theta=4.2)
    rep = js.smoothness_pipeline(
        exp_unit_model, kern, 0.0, t_end, js.RngSpec(2024), cfg,
    )
    fit = rep["fit"]
    assert fit.verdict == "decay"
    xi = js.frequency_grid(runs, cfg)
    log_mag = t_end * (sici(xi)[1] - np.euler_gamma - np.log(xi))
    slope_exact = np.polyfit(np.log(xi), log_mag, 1)[0]
    assert fit.slope == pytest.approx(slope_exact, abs=0.06)
    # decays, but slower than xi^{-1}: no integrable derivative certified
    assert rep["certificate"] == "decay below order 0"
    assert rep["predicted_exponent"] == pytest.approx(2.0 * t_end / (4.2 + t_end))
    assert rep["envelope_ok"] is not None
    assert [row["n"] for row in rep["two_term"]] == [2, 5]
    assert all(row["constant"] >= 0.0 for row in rep["two_term"])
    assert rep["runs"] == 20_000 and rep["trunc"] == 1


def test_smoothness_pipeline_point_mass_has_no_decay():
    # no jumps and no drift: every run ends at x0, so |cf| = 1 on the whole
    # band and the certificate is the point-mass "no decay"
    h = js.JumpAmplitude(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0,))
    still = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(0.0), h=h, eta=js.ExpDecay(0.1, 1.0), q=q,
        k=2, y_window=(-6.0, 6.0),
    )
    rep = js.smoothness_pipeline(
        still, None, 0.7, 1.0, js.RngSpec(3), js.PipelineConfig(runs=4000)
    )
    assert rep["certificate"] == "no decay"
    assert rep["fit"].verdict == "no decay"
    assert rep["magnitude_floor"] == pytest.approx(1.0, abs=1e-12)
    assert rep["predicted_exponent"] is None and rep["two_term"] == []


def test_smoothness_pipeline_short_tail_is_not_flat(monkeypatch, exp_unit_model):
    # a decaying CF that stays above the atom floor: the tail fit over the
    # upper half of 10 frequencies has too few points, and the ResolutionError
    # reads as "not flat", so the certificate stays a decay verdict
    fits, decay_fit = [], js.diagnostics.decay_fit

    def spy(cf, band=None):
        try:
            fits.append(decay_fit(cf, band))
        except js.ResolutionError as exc:
            fits.append(exc)
            raise
        return fits[-1]

    monkeypatch.setattr(js.diagnostics, "decay_fit", spy)
    rep = js.smoothness_pipeline(
        exp_unit_model, None, 0.0, 0.75, js.RngSpec(2024),
        js.PipelineConfig(runs=20_000, trunc=1, xi_points=10),
    )
    assert len(fits) == 2 and isinstance(fits[1], js.ResolutionError)
    assert rep["magnitude_floor"] >= js.diagnostics.ATOM_FLOOR
    assert rep["certificate"] == "decay below order 0"


def test_smoothness_pipeline_flags_atom(collapse_model):
    # marks in (1,2) collapse the state to 0 and 0 is absorbing: the
    # terminal law carries an atom of mass 1 - e^{-t}, so |cf| never falls
    # below 1 - 2 e^{-t} and no density certificate is possible
    rep = js.smoothness_pipeline(
        collapse_model, None, 0.5, 1.5, js.RngSpec(99),
        js.PipelineConfig(runs=30_000),
    )
    assert rep["certificate"] == "no density"
    assert rep["magnitude_floor"] >= 1.0 - 2.0 * math.exp(-1.5) - 0.02
    assert rep["predicted_exponent"] is None
    assert rep["two_term"] == []


def test_smoothness_pipeline_predicts_no_smoothing_at_t_0(exp_unit_model):
    # theta = 0 and t_end = 0 are both allowed; k t / (theta + t) divided
    # by zero after the whole batch had been sampled
    kern = js.make_kernels(exp_unit_model, (2, 5), theta=0.0)
    rep = js.smoothness_pipeline(exp_unit_model, kern, 0.0, 0.0, js.RngSpec(3),
                                 js.PipelineConfig(runs=500))
    assert rep["certificate"] == "no decay"
    assert rep["predicted_exponent"] == 0.0


def test_smoothness_pipeline_rejects_mismatched_kernels(exp_unit_model, power_model):
    kern = js.make_kernels(power_model, (2,), theta=8.0)
    with pytest.raises(js.ContractError, match="different model"):
        js.smoothness_pipeline(exp_unit_model, kern, 0.0, 0.5, js.RngSpec(1))
    bare = js.make_kernels(exp_unit_model, (2,))
    with pytest.raises(js.ContractError, match="theta"):
        js.smoothness_pipeline(exp_unit_model, bare, 0.0, 0.5, js.RngSpec(1))
