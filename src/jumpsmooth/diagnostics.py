"""Smoothness diagnostics from samples: Fourier decay and density distances.

The terminal law has a density with l integrable derivatives only if its
characteristic function decays at least like |xi|^(-l-1); conversely the
filtered-kernel construction predicts decay |xi|^(-k t / (theta + t)) from
the cutoff smoothness k and the Sobolev budget theta.  The routines here
estimate the decay exponent from an empirical characteristic function
(log-log regression with a sampling-noise floor), turn it into a certified
smoothness order with a confidence margin, and classify degenerate cases: a
magnitude that never decays within the usable band signals an atom in the
law (no density at all), the situation the dynamics produces when the
displacement can collapse states together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResolutionError, WindowTooSmallError
from .fokker_planck import GridDensity, _cumulative_trapezoid
from .kernels import KernelDecomposition
from .model import MIN_FIT_POINTS, CoefficientSet, _check_band, _check_theta
from .simulate import CFEstimate, RngSpec, empirical_cf, simulate_batch

# A CF magnitude that stays above this (or 5 standard errors) over the upper
# half of the usable band is read as an atom.
ATOM_FLOOR = 0.05


@dataclass(frozen=True)
class DecayReport:
    """Log-log regression of characteristic-function magnitude vs frequency."""

    slope: float
    slope_ci: tuple[float, float]
    intercept: float
    n_points: int
    band: tuple[float, float]
    verdict: str  # "decay" or "no decay"

    @property
    def certified_exponent(self) -> float:
        """Decay exponent the data certifies at the 95% level (lower bound)."""
        return -self.slope_ci[1]

    @property
    def smoothness_order(self) -> int:
        """Largest integer l with certified decay faster than |xi|^(-l-1)."""
        return int(math.floor(self.certified_exponent - 1.0))


def decay_fit(cf: CFEstimate, band: tuple[float, float] | None = None) -> DecayReport:
    """Fit |cf| ~ C |xi|^slope on the usable part of a frequency band.

    Frequencies where the magnitude sits within `simulate.FLOOR_MULT`
    standard errors of the 1/sqrt(N) sampling floor are excluded: below that
    the estimate is noise and would fake decay.  Needs MIN_FIT_POINTS usable
    points.
    """
    mag = cf.magnitude()
    mask = cf.xi > 0
    if band is not None:
        mask &= (cf.xi >= band[0]) & (cf.xi <= band[1])
    mask &= cf.usable()
    n_pts = int(np.count_nonzero(mask))
    if n_pts < MIN_FIT_POINTS:
        raise ResolutionError(
            f"only {n_pts} usable frequencies above the sampling floor; "
            "increase the sample count or lower the band"
        )
    lx = np.log(cf.xi[mask])
    ly = np.log(mag[mask])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(n_pts - 2, 1)
    s2 = float(resid @ resid) / dof
    denom = float(np.sum((lx - lx.mean()) ** 2))
    se = math.sqrt(s2 / denom) if denom > 0 else math.inf
    ci = (float(slope - 1.96 * se), float(slope + 1.96 * se))
    verdict = "no decay" if ci[1] >= -0.05 else "decay"
    used = cf.xi[mask]
    return DecayReport(
        float(slope), ci, float(intercept), n_pts, (float(used[0]), float(used[-1])), verdict
    )


def compare_densities(left: GridDensity, right: GridDensity) -> dict:
    """Distance between two grid densities via conservative bin averages.

    Both densities are re-binned at the coarser of the two spacings on the
    overlap of their windows (each window must hold 99% of its own mass
    there, so the comparison sees essentially all of both laws); the L1
    distance is the sum of absolute bin-mass differences, which never
    rewards one grid for out-resolving the other.
    """
    lo = max(left.lo, right.lo)
    hi = min(right.hi, left.hi)
    if hi <= lo:
        raise WindowTooSmallError("density windows do not overlap")
    for name, d in (("left", left), ("right", right)):
        x = d.grid
        cum = _cumulative_trapezoid(x, d.values[0])
        total = cum[-1]
        inside = np.interp(hi, x, cum) - np.interp(lo, x, cum)
        if total <= 0 or inside < 0.99 * total:
            raise WindowTooSmallError(
                f"{name} density keeps only {inside / max(total, 1e-300):.3f} "
                "of its mass on the common window"
            )
    spacing = max(left.spacing, right.spacing)
    bins = max(8, int(math.floor((hi - lo) / spacing)))
    edges = np.linspace(lo, hi, bins + 1)
    widths = np.diff(edges)

    def bin_masses(d: GridDensity, row: int) -> np.ndarray:
        x = d.grid
        return np.diff(np.interp(edges, x, _cumulative_trapezoid(x, d.values[row])))

    dm = bin_masses(left, 0) - bin_masses(right, 0)
    out = {
        "l1": float(np.sum(np.abs(dm))),
        "sup": float(np.max(np.abs(dm / widths))),
        "bins": bins,
        "interval": (float(lo), float(hi)),
    }
    if left.order >= 1 and right.order >= 1:
        dd = bin_masses(left, 1) - bin_masses(right, 1)
        out["w11"] = out["l1"] + float(np.sum(np.abs(dd)))
    return out


@dataclass(frozen=True)
class PipelineConfig:
    """Controls for the sampling half of the smoothness pipeline.

    ``runs`` terminal samples on mark truncation ``trunc`` (default the last
    declared), drawn by ``threads`` workers, ``max_step`` the RK4 step of
    the drift flow (None: derived from FLOW_TOL and the drift's bounds, see
    `simulate.flow_step`).  The CF is read at ``xi_points`` (at least
    MIN_FIT_POINTS) log-spaced frequencies from ``xi_min`` (positive) to
    ``xi_max`` (default from the run count, see `frequency_grid`); the decay
    fit uses all of them that clear the sampling floor
    (`simulate.FLOOR_MULT`), and ATOM_FLOOR separates an atom from slow decay.
    """

    runs: int = 200_000
    trunc: int | None = None
    xi_points: int = 96
    xi_min: float = 1.0
    xi_max: float | None = None
    threads: int = 1
    max_step: float | None = None


def frequency_grid(runs: int, cfg: PipelineConfig) -> np.ndarray:
    """Log-spaced frequencies over the band `_check_band` gives; checked
    before any sampling."""
    hi = _check_band(cfg.xi_min, cfg.xi_points, cfg.xi_max, runs)
    return np.geomspace(cfg.xi_min, hi, cfg.xi_points)


def smoothness_pipeline(
    coeffs: CoefficientSet,
    kernels: KernelDecomposition | None,
    x0: float,
    t_end: float,
    rng_spec: RngSpec,
    cfg: PipelineConfig | None = None,
) -> dict:
    """Sample the dynamics, estimate Fourier decay, and certify smoothness.

    Produces a certificate string: "no density" when the magnitude never
    leaves an O(1) floor (an atom in the terminal law), "no decay" when decay
    is not statistically significant, otherwise "smooth order m" with the
    certified order.  With a kernel decomposition it also reports the decay
    exponent the filtered-kernel construction predicts, k t / (theta + t),
    and the two-scale envelope constants per declared kernel index; pass
    None to classify a model that admits no decomposition.
    """
    cfg = cfg or PipelineConfig()
    if kernels is not None:
        if kernels.coeffs is not coeffs:
            raise ContractError("kernel decomposition was built for a different model")
        if kernels.theta is None:
            raise ContractError("pipeline needs a kernel decomposition with a declared theta")
        _check_theta(kernels.theta)
    trunc = coeffs.q.resolve_trunc(cfg.trunc)
    xi = frequency_grid(cfg.runs, cfg)
    batch = simulate_batch(
        coeffs, x0, t_end, trunc, rng_spec, cfg.runs,
        max_step=cfg.max_step, threads=cfg.threads,
    )
    cf = empirical_cf(batch["terminal"], xi)
    fit = decay_fit(cf)
    mag = cf.magnitude()

    predicted = None
    env_constant = None
    env_ok = None
    two_term = []
    if kernels is not None:
        k = float(coeffs.k)
        theta = float(kernels.theta)
        # at t = 0 no jump has had time to smooth the law: 0, the t -> 0
        # limit for any theta > 0 (the ratio has no value at theta = t = 0)
        predicted = k * t_end / (theta + t_end) if t_end > 0.0 else 0.0
        # envelope constant calibrated on the lower third of the band,
        # checked on the rest with the sampling floor as slack
        usable = cf.usable()
        if np.count_nonzero(usable) >= 6:
            xs = cf.xi[usable]
            ms = mag[usable]
            cut = max(2, xs.size // 3)
            env_constant = float(np.max(ms[:cut] * xs[:cut] ** predicted))
            bound = np.minimum(1.0, env_constant * xs ** (-predicted))
            env_ok = bool(np.all(ms <= bound + 3.0 * cf.stderr))
        for n in kernels.n_values:
            excess = cf.xi**k * np.maximum(mag - np.exp(-n * t_end), 0.0)
            two_term.append(
                {"n": int(n), "constant": float(np.max(excess) * math.exp(-theta * n))}
            )

    floor = max(ATOM_FLOOR, 5.0 * cf.stderr)
    min_mag = float(np.min(mag))
    # Atom signature: the magnitude sits on an O(1) floor and has stopped
    # falling on the upper half of the usable band.  A slow smooth law also
    # stays above the floor on a short band, but keeps falling there.
    tail_flat = fit.verdict == "no decay"
    if not tail_flat and min_mag >= floor:
        try:
            mid = math.sqrt(fit.band[0] * fit.band[1])
            tail_flat = decay_fit(cf, (mid, fit.band[1])).verdict == "no decay"
        except ResolutionError:
            tail_flat = False
    if min_mag >= 1.0 - max(0.01, 5.0 * cf.stderr):
        certificate = "no decay"  # the cf never moved: still (nearly) a point mass
    elif tail_flat and min_mag >= floor:
        certificate = "no density"
    elif fit.verdict == "no decay":
        certificate = "no decay"
    elif fit.smoothness_order >= 0:
        certificate = f"smooth order {fit.smoothness_order}"
    else:
        certificate = "decay below order 0"
    return {
        "certificate": certificate,
        "certified_exponent": float(fit.certified_exponent),
        "predicted_exponent": None if predicted is None else float(predicted),
        "fit": fit,
        "cf": cf,
        "envelope_constant": env_constant,
        "envelope_ok": env_ok,
        "two_term": two_term,
        "runs": int(cfg.runs),
        "trunc": int(trunc),
        "magnitude_floor": float(np.min(mag)),
    }
