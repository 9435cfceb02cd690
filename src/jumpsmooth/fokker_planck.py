"""Density-stack evolution under the adjoint of the approximating generator.

The approximating generator replaces the drift by rate-i Poisson steps of
size b(y)/i and truncates the mark measure to a finite-mass window, so for a
test function phi::

    L phi(y) = i [phi(y + b(y)/i) - phi(y)]
             + gamma(y) * integral over the truncated marks of
               [phi(y + h(y, z)) - phi(y)] q(dz)

Its adjoint moves densities.  Pulling each term through the monotone maps
y -> y + b(y)/i and y -> y + h(y, z) gives, with tau_i and tau(., z) the
inverse maps::

    L* g(y) = i [g(tau_i(y)) tau_i'(y) - g(y)]
            + integral q(dz) [ (gamma g)(tau(y, z)) tau'(y, z) - (gamma g)(y) ]

and the same expansion applies to every derivative of g via the transfer
coefficients of `calculus`: the l-th derivative of a pulled-back product
``phi(tau(y)) tau'(y)`` is ``phi^(l)(tau) + sum_r alpha[l, r] phi^(r)(tau)``.
The evolution therefore advances the whole derivative stack g, g', ..., g^(k)
in lockstep with explicit Euler steps, each derivative obeying the
differentiated equation.

Everything state-independent (inverse maps, transfer tables, quadrature and
interpolation weights) is precomputed once per grid; a time step is a few
gathers and contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .calculus import transfer_alpha_grid, transfer_beta_grid
from .errors import (
    ContractError,
    DivergenceError,
    JumpsmoothError,
    MassConservationError,
    StabilityError,
    WindowTooSmallError,
)
from .model import CoefficientSet, gauss_panels
from .presets import Function1D, GaussBump


@dataclass
class GridDensity:
    """A derivative stack sampled on a uniform window.

    ``values[l, j]`` is the l-th derivative at node j of a density that is
    treated as identically zero outside [lo, hi].
    """

    lo: float
    hi: float
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] < 8:
            raise ContractError("grid density needs a (orders, nodes>=8) array")
        if not (self.hi > self.lo):
            raise ContractError("empty density window")
        self.values = vals

    @property
    def order(self) -> int:
        return self.values.shape[0] - 1

    @property
    def size(self) -> int:
        return self.values.shape[1]

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.size - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.size)

    def mass(self) -> float:
        return float(np.trapezoid(self.values[0], dx=self.spacing))

    def copy(self) -> "GridDensity":
        return GridDensity(self.lo, self.hi, self.values.copy(), self.time)

    @classmethod
    def from_function(
        cls, fn: Function1D, window: tuple[float, float], size: int, order: int
    ) -> "GridDensity":
        grid = np.linspace(window[0], window[1], size)
        return cls(window[0], window[1], fn.stack(grid, order), 0.0)


def gaussian_density(
    window: tuple[float, float], size: int, order: int, mean: float = 0.0, sigma: float = 1.0
) -> GridDensity:
    """Unit-mass Gaussian bump with analytic derivative stack."""
    amp = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    bump = GaussBump(amp=amp, center=mean, width=sigma * math.sqrt(2.0))
    return GridDensity.from_function(bump, window, size, order)


def sobolev_norm(density: GridDensity, order: int | None = None) -> float:
    """Sum over derivative orders 0..order of the trapezoidal L1 norm."""
    if order is None:
        order = density.order
    if order > density.order:
        raise ContractError(
            f"requested norm order {order} exceeds stack order {density.order}"
        )
    h = density.spacing
    return float(
        sum(np.trapezoid(np.abs(density.values[l]), dx=h) for l in range(order + 1))
    )


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs of the explicit evolution.

    ``i`` is the drift surrogate index; ``trunc`` the mark truncation index
    (defaults to the last declared).  ``dt=None`` picks the largest step
    inside the stability budget dt * (2 i + 2 sup(gamma) q(G)) <= 0.5 scaled
    by ``stability_margin``.
    """

    i: int
    dt: float | None = None
    trunc: int | None = None
    quad_nodes: int = 256
    quad_panels: int = 8
    stability_margin: float = 0.9
    mass_tol: float = 1e-4
    enforce_mass: bool = True
    escape_tol: float = 0.5
    solver_tol: float = 1e-12


def _interp_weights(points: np.ndarray, lo: float, spacing: float, size: int):
    """Cubic Lagrange gather weights on a uniform grid, zero outside.

    Returns (base_index, weights[..., 4]) so that a stack row f gives
    f(points) = sum_o weights[..., o] * f[base_index + o].
    """
    t = (points - lo) / spacing
    inside = (t >= 0.0) & (t <= size - 1.0)
    cell = np.clip(np.floor(t).astype(int), 0, size - 2)
    base = np.clip(cell - 1, 0, size - 4)
    s = t - (base + 1)
    w = np.empty(points.shape + (4,))
    w[..., 0] = -s * (s - 1.0) * (s - 2.0) / 6.0
    w[..., 1] = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
    w[..., 2] = -(s + 1.0) * s * (s - 2.0) / 2.0
    w[..., 3] = (s + 1.0) * s * (s - 1.0) / 6.0
    w[~inside] = 0.0
    return base, w


def _gather(row: np.ndarray, base: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = w[..., 0] * row[base]
    for o in range(1, 4):
        out = out + w[..., o] * row[base + o]
    return out


class AdjointOperator:
    """Precomputed action of the adjoint generator on one grid.

    Splits into a drift pullback through tau_i and a mark-integrated jump
    pullback through tau(., z) at the quadrature nodes; both use the transfer
    tables so the whole derivative stack is advanced consistently.
    """

    def __init__(self, coeffs: CoefficientSet, grid_density: GridDensity, cfg: EvolutionConfig):
        if grid_density.order != coeffs.k:
            raise ContractError(
                f"density stack order {grid_density.order} != model budget k={coeffs.k}"
            )
        self.coeffs = coeffs
        self.cfg = cfg
        self.k = coeffs.k
        self.lo = grid_density.lo
        self.hi = grid_density.hi
        self.size = grid_density.size
        self.spacing = grid_density.spacing
        grid = grid_density.grid
        self.grid = grid
        k = self.k

        self.i = int(cfg.i)
        i0 = coeffs.min_drift_index()
        if self.i < i0:
            raise ContractError(f"drift surrogate index i={self.i} below i0={i0}")

        self.binom = [[comb(r, j) for j in range(r + 1)] for r in range(k + 1)]

        # Drift pullback tables (skipped entirely for a zero drift).
        self.drift_active = not coeffs.b.is_zero
        if self.drift_active:
            beta, taui = transfer_beta_grid(coeffs, grid, self.i, k, cfg.solver_tol)
            self.beta = beta
            self.drift_base, self.drift_w = _interp_weights(
                taui[0], self.lo, self.spacing, self.size
            )

        # Jump pullback tables.
        trunc = cfg.trunc if cfg.trunc is not None else len(coeffs.q.truncations)
        self.trunc = trunc
        zlo, zhi = coeffs.q.trunc_interval(trunc)
        z, w = gauss_panels(zlo, zhi, cfg.quad_nodes, cfg.quad_panels)
        rho = np.asarray(coeffs.q.density.value(z), dtype=float)
        self.z_nodes = z
        self.wq = w * rho
        self.qmass = float(np.sum(self.wq))
        self.gamma_sup = coeffs.gamma_sup()
        self.jump_active = self.qmass > 0.0 and self.gamma_sup > 0.0
        if self.jump_active:
            m, M = self.size, z.size
            alpha = np.empty((k + 1, k + 1, m, M))
            tau0 = np.empty((m, M))
            for mi in range(M):
                a, tau = transfer_alpha_grid(coeffs, grid, float(z[mi]), k, cfg.solver_tol)
                alpha[:, :, :, mi] = a
                tau0[:, mi] = tau[0]
            self.alpha = alpha
            self.jump_base, self.jump_w = _interp_weights(tau0, self.lo, self.spacing, self.size)
            self.gamma_at_tau = np.stack(
                [np.asarray(coeffs.gamma.derivative(tau0, j), dtype=float) for j in range(k + 1)]
            )
            # Per-state fraction of transported mark mass that reads outside
            # the window; large values in the interior mean the window is too
            # small for this truncation.
            outside = np.all(self.jump_w == 0.0, axis=-1)
            escape = (outside * self.wq[None, :]).sum(axis=1) / max(self.qmass, 1e-300)
            inner = slice(self.size // 5, self.size - self.size // 5)
            self.escape_fraction = float(np.max(escape[inner]))
            if self.escape_fraction > cfg.escape_tol:
                raise WindowTooSmallError(
                    f"{self.escape_fraction:.2%} of transported mark mass leaves the "
                    "window at interior states; widen the window"
                )
        else:
            self.escape_fraction = 0.0

        self.gamma_at_grid = np.stack(
            [np.asarray(coeffs.gamma.derivative(grid, j), dtype=float) for j in range(k + 1)]
        )

    @property
    def lipschitz_bound(self) -> float:
        """Stability scale 2 i + 2 sup(gamma) q(G_trunc)."""
        return 2.0 * self.i + 2.0 * self.gamma_sup * self.qmass

    def stable_dt(self) -> float:
        return 0.5 * self.cfg.stability_margin / self.lipschitz_bound

    def _weighted_stack(self, vals: np.ndarray, gamma_stack: np.ndarray) -> np.ndarray:
        """(gamma * f)^(r) for r = 0..k from the stacks of gamma and f."""
        out = np.empty_like(vals)
        for r in range(self.k + 1):
            acc = self.binom[r][0] * gamma_stack[r] * vals[0]
            for j in range(1, r + 1):
                acc = acc + self.binom[r][j] * gamma_stack[r - j] * vals[j]
            out[r] = acc
        return out

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """Adjoint rate of change of the full derivative stack."""
        if vals.shape != (self.k + 1, self.size):
            raise ContractError("stack shape does not match the operator grid")
        rate = np.zeros_like(vals)

        if self.drift_active:
            pulled = np.stack(
                [_gather(vals[r], self.drift_base, self.drift_w) for r in range(self.k + 1)]
            )
            rate += self.i * (
                pulled + np.einsum("lrj,rj->lj", self.beta, pulled) - vals
            )

        if self.jump_active:
            pulled = np.stack(
                [_gather(vals[r], self.jump_base, self.jump_w) for r in range(self.k + 1)]
            )
            weighted = self._weighted_stack(pulled, self.gamma_at_tau)
            core = weighted + np.einsum("lrjm,rjm->ljm", self.alpha, weighted)
            jump_in = np.einsum("ljm,m->lj", core, self.wq)
            local = self._weighted_stack(vals, self.gamma_at_grid)
            rate += jump_in - self.qmass * local

        return rate


def apply_adjoint(
    coeffs: CoefficientSet, density: GridDensity, cfg: EvolutionConfig
) -> GridDensity:
    """One application of the adjoint generator to a density stack."""
    op = AdjointOperator(coeffs, density, cfg)
    return GridDensity(density.lo, density.hi, op.apply(density.values), density.time)


def apply_generator(coeffs: CoefficientSet, phi, y: np.ndarray, cfg: EvolutionConfig):
    """Direct action L phi at states y for a test function.

    Independent of the inverse-map machinery on purpose: duality tests pit
    this against `apply_adjoint`.
    """
    phi = getattr(phi, "value", phi)
    y = np.asarray(y, dtype=float)
    i = int(cfg.i)
    out = i * (phi(y + np.asarray(coeffs.b.value(y)) / i) - phi(y))
    trunc = cfg.trunc if cfg.trunc is not None else len(coeffs.q.truncations)
    zlo, zhi = coeffs.q.trunc_interval(trunc)
    z, w = gauss_panels(zlo, zhi, cfg.quad_nodes, cfg.quad_panels)
    wq = w * np.asarray(coeffs.q.density.value(z), dtype=float)
    gam = np.asarray(coeffs.gamma.value(y), dtype=float)
    acc = np.zeros_like(y)
    for zm, wm in zip(z, wq):
        acc = acc + wm * (phi(y + np.asarray(coeffs.h.value(y, zm))) - phi(y))
    return out + gam * acc


@dataclass
class EvolutionResult:
    final: GridDensity
    snapshots: list[GridDensity]
    times: np.ndarray
    masses: np.ndarray
    dt: float
    steps: int
    escape_fraction: float

    @property
    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses - self.masses[0])))


def evolve(
    coeffs: CoefficientSet,
    initial: GridDensity,
    t_end: float,
    cfg: EvolutionConfig,
    snapshot_times: tuple[float, ...] = (),
) -> EvolutionResult:
    """Explicit Euler evolution of the density stack to time t_end.

    Snapshot times are hit exactly with shortened steps.  Mass is tracked at
    every step; drift beyond ``cfg.mass_tol * max(1, t_end)`` raises (the
    window or step budget is inadequate), as does any non-finite value.
    """
    if t_end < 0:
        raise ContractError("t_end must be >= 0")
    op = AdjointOperator(coeffs, initial, cfg)
    dt_cap = 0.5 / op.lipschitz_bound
    dt = op.stable_dt() if cfg.dt is None else float(cfg.dt)
    if dt > dt_cap * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the stability budget {dt_cap:.3e} "
            f"(lipschitz scale {op.lipschitz_bound:.3e})"
        )

    wanted = sorted(set(float(s) for s in snapshot_times))
    for s in wanted:
        if s < 0 or s > t_end + 1e-12:
            raise ContractError(f"snapshot time {s} outside [0, {t_end}]")

    vals = initial.values.copy()
    t = 0.0
    snaps: list[GridDensity] = []
    times = [0.0]
    masses = [float(np.trapezoid(vals[0], dx=initial.spacing))]
    pending = list(wanted)
    steps = 0
    while pending and abs(pending[0]) <= 1e-12:
        snaps.append(GridDensity(initial.lo, initial.hi, vals.copy(), initial.time))
        pending.pop(0)

    while t < t_end - 1e-12:
        target = pending[0] if pending else t_end
        step = min(dt, target - t, t_end - t)
        vals = vals + step * op.apply(vals)
        t += step
        steps += 1
        if not np.all(np.isfinite(vals)):
            raise DivergenceError(f"density stack became non-finite at step {steps}")
        mass = float(np.trapezoid(vals[0], dx=initial.spacing))
        times.append(t)
        masses.append(mass)
        if cfg.enforce_mass and abs(mass - masses[0]) > cfg.mass_tol * max(1.0, t_end):
            raise MassConservationError(
                f"mass drifted by {abs(mass - masses[0]):.3e} at t={t:.4f} "
                f"(budget {cfg.mass_tol:.1e} per unit horizon)"
            )
        if pending and t >= pending[0] - 1e-12:
            snaps.append(GridDensity(initial.lo, initial.hi, vals.copy(), initial.time + t))
            pending.pop(0)

    final = GridDensity(initial.lo, initial.hi, vals, initial.time + t)
    return EvolutionResult(
        final=final,
        snapshots=snaps,
        times=np.asarray(times),
        masses=np.asarray(masses),
        dt=dt,
        steps=steps,
        escape_fraction=op.escape_fraction,
    )


def picard_validate(
    coeffs: CoefficientSet,
    initial: GridDensity,
    t_short: float,
    cfg: EvolutionConfig,
    sweeps: int = 4,
    time_nodes: int = 17,
) -> dict:
    """Fixed-point iteration of the integral form on a short horizon.

    Iterates f_{m+1}(t) = f_0 + integral_0^t L* f_m(s) ds with trapezoidal
    time quadrature, then compares the final sweep against the Euler engine
    at t_short.  A validation tool, not a production integrator.
    """
    op = AdjointOperator(coeffs, initial, cfg)
    if t_short > 4.0 * op.stable_dt() * (time_nodes - 1):
        raise ContractError("picard horizon too long for the requested time grid")
    ts = np.linspace(0.0, t_short, time_nodes)
    dt = ts[1] - ts[0]
    # iterate[m][j] = stack at time node j for sweep m (start: constant f0)
    states = [initial.values.copy() for _ in ts]
    for _ in range(sweeps):
        rates = [op.apply(s) for s in states]
        new_states = [initial.values.copy()]
        acc = np.zeros_like(initial.values)
        for j in range(1, time_nodes):
            acc = acc + 0.5 * dt * (rates[j - 1] + rates[j])
            new_states.append(initial.values + acc)
        states = new_states
    picard_final = GridDensity(initial.lo, initial.hi, states[-1], initial.time + t_short)
    euler = evolve(coeffs, initial, t_short, cfg).final
    gap = float(
        np.trapezoid(np.abs(picard_final.values[0] - euler.values[0]), dx=initial.spacing)
    )
    return {"picard": picard_final, "euler": euler, "l1_gap": gap}


def duality_residual(
    coeffs: CoefficientSet, density: GridDensity, phi, cfg: EvolutionConfig
) -> dict:
    """Scale-free residual of <L phi, g> = <phi, L* g> on the window."""
    grid = density.grid
    phi_val = getattr(phi, "value", phi)
    lhs = float(
        np.trapezoid(density.values[0] * apply_generator(coeffs, phi, grid, cfg), dx=density.spacing)
    )
    rate = apply_adjoint(coeffs, density, cfg)
    rhs = float(np.trapezoid(phi_val(grid) * rate.values[0], dx=density.spacing))
    resid = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return {"lhs": lhs, "rhs": rhs, "residual": resid}


def norm_growth_audit(
    coeffs: CoefficientSet,
    initial: GridDensity,
    t_end: float,
    cfg: EvolutionConfig,
    checkpoints: int = 10,
) -> dict:
    """Envelope audit of the Sobolev norm along the evolution.

    Evolves at the configured surrogate index i and at 2 i, fits the
    exponential growth rate on the first quarter of each run, and checks
    (a) every later checkpoint sits below norm(0) * exp(1.1 * fitted * t) and
    (b) the fitted rate moves by at most 20% (absolute floor 0.1) when i
    doubles.  Package errors and floating-point traps (degenerate models blow
    up or cannot even build the pullback) are caught and reported as failed
    audits; any other exception is a bug and propagates.
    """
    ts = np.linspace(0.0, t_end, checkpoints + 1)
    report: dict = {"t": [float(v) for v in ts], "passed": False}

    def run(i_val: int):
        local = EvolutionConfig(
            i=i_val,
            dt=None,
            trunc=cfg.trunc,
            quad_nodes=cfg.quad_nodes,
            quad_panels=cfg.quad_panels,
            stability_margin=cfg.stability_margin,
            mass_tol=cfg.mass_tol,
            enforce_mass=cfg.enforce_mass,
            escape_tol=cfg.escape_tol,
            solver_tol=cfg.solver_tol,
        )
        res = evolve(coeffs, initial, t_end, local, snapshot_times=tuple(ts))
        norms = np.array([sobolev_norm(s) for s in res.snapshots])
        if not np.all(np.isfinite(norms)):
            raise DivergenceError("norm became non-finite along the run")
        return norms

    try:
        norms_1 = run(cfg.i)
        norms_2 = run(2 * cfg.i)
    except (JumpsmoothError, FloatingPointError) as exc:
        report["status"] = "numerical_failure"
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report

    def fitted_rate(norms: np.ndarray) -> float:
        head = ts <= t_end / 4.0 + 1e-12
        if np.sum(head) < 2:
            head = np.arange(len(ts)) < 3
        coefs = np.polyfit(ts[head], np.log(np.maximum(norms[head], 1e-300)), 1)
        return float(coefs[0])

    c1 = fitted_rate(norms_1)
    c2 = fitted_rate(norms_2)

    def envelope_ok(norms: np.ndarray, rate: float) -> bool:
        bound = norms[0] * np.exp(1.1 * max(rate, 0.0) * ts) * (1.0 + 1e-9) + 1e-12
        return bool(np.all(norms <= bound))

    env1 = envelope_ok(norms_1, c1)
    env2 = envelope_ok(norms_2, c2)
    stable = abs(c2 - c1) <= max(0.2 * abs(c1), 0.1)
    report.update(
        {
            "status": "ok",
            "norms_i": [float(v) for v in norms_1],
            "norms_2i": [float(v) for v in norms_2],
            "fitted_rate_i": c1,
            "fitted_rate_2i": c2,
            "envelope_ok_i": env1,
            "envelope_ok_2i": env2,
            "rate_stable": bool(stable),
            "passed": bool(env1 and env2 and stable),
        }
    )
    return report
