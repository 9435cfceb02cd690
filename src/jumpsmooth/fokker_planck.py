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
interpolation weights) is folded once per grid into one sparse linear map on
the flattened stack, so a time step is a single sparse product.  `evolve`
repeats the run at half the step on the same map to estimate its own
time-discretisation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


# Gauss-Legendre panels of the mark quadrature (`quad_nodes` nodes in all).
QUAD_PANELS = 8
# Share of the stability budget that the default step uses.
STABILITY_MARGIN = 0.9


@dataclass(frozen=True)
class EvolutionConfig:
    """Controls of the explicit evolution.

    ``i`` is the drift surrogate index; ``trunc`` the mark truncation index
    (defaults to the last declared).  ``dt`` must be positive and finite;
    ``None`` picks the largest step inside the stability budget
    dt * (2 i + 2 sup(gamma) q(G)) <= 0.5, scaled by STABILITY_MARGIN.
    ``quad_nodes`` is the node count of the mark quadrature, in QUAD_PANELS
    panels.  Mass drift beyond ``mass_tol`` per unit horizon raises; an
    interior escape fraction above ``escape_tol`` means the window is too
    small.  The inverse maps are solved to the calculus default tolerance.
    """

    i: int
    dt: float | None = None
    trunc: int | None = None
    quad_nodes: int = 256
    mass_tol: float = 1e-4
    escape_tol: float = 0.5


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


class AdjointOperator:
    """The adjoint generator on one grid, assembled once as a sparse map.

    The generator is linear in the density stack with a fixed stencil: the
    drift pullback through tau_i and the mark-integrated jump pullback through
    tau(., z) read the stack at the inverse-map points by cubic interpolation,
    and the transfer tables turn each read into a fixed combination of the
    derivative rows.  The constructor folds all of it into coefficient
    triples (rows, cols, data) over the flattened stack, where entry
    ``l * size + j`` is the l-th derivative at node j; `apply` is one
    gather-multiply-bincount product.
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
        k, n = self.k, self.size

        self.i = int(cfg.i)
        i0 = coeffs.min_drift_index()
        if self.i < i0:
            raise ContractError(f"drift surrogate index i={self.i} below i0={i0}")

        # Both pullbacks read the stack on cubic stencils: one column of
        # stencils per inverse map, base index and weights per node, and a
        # coefficient per (node, column) for each derivative block (l, r).
        bases, weights, coefs = [], [], []

        # Drift pullback i [g(tau_i) tau_i' - g], skipped for a zero drift.
        self.drift_active = not coeffs.b.is_zero
        if self.drift_active:
            beta, taui = transfer_beta_grid(coeffs, grid, self.i, k)
            base, w = _interp_weights(taui[0], self.lo, self.spacing, n)
            bases.append(base[:, None])
            weights.append(w[:, None, :])
            coefs.append(lambda l, r: (self.i * ((l == r) + beta[l, r]))[:, None])

        # Jump pullback: integral q(dz) (gamma g)(tau(., z)) tau'(., z).
        trunc = coeffs.q.resolve_trunc(cfg.trunc)
        self.trunc = trunc
        zlo, zhi = coeffs.q.trunc_interval(trunc)
        z, w = gauss_panels(zlo, zhi, cfg.quad_nodes, QUAD_PANELS)
        wq = w * np.asarray(coeffs.q.density.value(z), dtype=float)
        self.qmass = float(np.sum(wq))
        self.gamma_sup = coeffs.gamma_sup()
        self.jump_active = self.qmass > 0.0 and self.gamma_sup > 0.0
        if self.jump_active:
            M = z.size
            alpha = np.empty((k + 1, k + 1, n, M))
            tau0 = np.empty((n, M))
            for mi in range(M):
                a, tau = transfer_alpha_grid(coeffs, grid, float(z[mi]), k)
                alpha[:, :, :, mi] = a
                tau0[:, mi] = tau[0]
            base, w = _interp_weights(tau0, self.lo, self.spacing, n)
            # Per-state fraction of transported mark mass that reads outside
            # the window; large values in the interior mean the window is too
            # small for this truncation.
            outside = np.all(w == 0.0, axis=-1)
            escape = (outside * wq[None, :]).sum(axis=1) / max(self.qmass, 1e-300)
            inner = slice(n // 5, n - n // 5)
            self.escape_fraction = float(np.max(escape[inner]))
            if self.escape_fraction > cfg.escape_tol:
                raise WindowTooSmallError(
                    f"{self.escape_fraction:.2%} of transported mark mass leaves the "
                    "window at interior states; widen the window"
                )
            gamma_tau = [np.asarray(coeffs.gamma.derivative(tau0, j), dtype=float)
                         for j in range(k + 1)]
            w *= wq[None, :, None]
            bases.append(base)
            weights.append(w)

            def jump_coef(l, r0):
                # sum_r (delta_lr + alpha[l, r]) C(r, r0) gamma^(r - r0)(tau)
                coef = comb(l, r0) * gamma_tau[l - r0]
                for r in range(r0, l + 1):
                    coef = coef + alpha[l, r] * (comb(r, r0) * gamma_tau[r - r0])
                return coef

            coefs.append(jump_coef)
        else:
            self.escape_fraction = 0.0

        parts = []
        if bases:
            parts += self._merge_stencils(np.concatenate(bases, axis=1),
                                          np.concatenate(weights, axis=1), coefs)
        nodes = np.arange(n)
        if self.drift_active:
            for l in range(k + 1):
                parts.append((l * n + nodes, l * n + nodes, np.full(n, -float(self.i))))
        if self.jump_active:
            # local loss -qmass (gamma g)^(l), Leibniz over the stacks
            gamma_grid = [np.asarray(coeffs.gamma.derivative(grid, j), dtype=float)
                          for j in range(k + 1)]
            for l in range(k + 1):
                for r in range(l + 1):
                    data = -self.qmass * comb(l, r) * np.broadcast_to(gamma_grid[l - r], (n,))
                    parts.append((l * n + nodes, r * n + nodes, data))

        if parts:
            self.rows, self.cols, self.data = (
                np.concatenate([p[c] for p in parts]) for c in range(3)
            )
        else:
            self.rows = self.cols = np.zeros(0, dtype=np.intp)
            self.data = np.zeros(0)

    def _merge_stencils(self, base, w, coefs):
        """Sparse triples of every block (l, r) with duplicate keys summed.

        `base` (nodes, columns) and `w` (nodes, columns, 4) are the stencils,
        `coefs` the per-pullback block coefficients over their columns.  The
        (node, stencil node) keys get one slot map, then each block is one
        bincount over it.  The slot map is a mask over all nodes**2 node pairs
        plus its int32 running count, 5 bytes per pair during assembly, which
        avoids sorting the keys.
        """
        n = self.size
        keys = (np.arange(n)[:, None, None] * n + base[..., None] + np.arange(4)).ravel()
        present = np.zeros(n * n, dtype=bool)
        present[keys] = True
        slots = np.flatnonzero(present)
        inverse = (np.cumsum(present, dtype=np.int32)[keys] - 1).astype(np.intp)
        del present, keys
        srow, scol = slots // n, slots % n
        coef = np.empty(base.shape)
        entry = np.empty(w.shape)
        parts = []
        for l in range(self.k + 1):
            for r in range(l + 1):
                np.concatenate([c(l, r) for c in coefs], axis=1, out=coef)
                np.multiply(coef[..., None], w, out=entry)
                data = np.bincount(inverse, weights=entry.ravel(), minlength=slots.size)
                keep = data != 0.0
                parts.append((l * n + srow[keep], r * n + scol[keep], data[keep]))
        return parts

    @property
    def lipschitz_bound(self) -> float:
        """Stability scale 2 i + 2 sup(gamma) q(G_trunc)."""
        return 2.0 * self.i + 2.0 * self.gamma_sup * self.qmass

    def stable_dt(self) -> float:
        return 0.5 * STABILITY_MARGIN / self.lipschitz_bound

    def apply(self, vals: np.ndarray) -> np.ndarray:
        """Adjoint rate of change of the full derivative stack."""
        if vals.shape != (self.k + 1, self.size):
            raise ContractError("stack shape does not match the operator grid")
        flat = np.bincount(
            self.rows, weights=vals.ravel()[self.cols] * self.data, minlength=vals.size
        )
        return flat.reshape(vals.shape)


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
    trunc = coeffs.q.resolve_trunc(cfg.trunc)
    zlo, zhi = coeffs.q.trunc_interval(trunc)
    z, w = gauss_panels(zlo, zhi, cfg.quad_nodes, QUAD_PANELS)
    wq = w * np.asarray(coeffs.q.density.value(z), dtype=float)
    gam = np.asarray(coeffs.gamma.value(y), dtype=float)
    acc = np.zeros_like(y)
    for zm, wm in zip(z, wq):
        acc = acc + wm * (phi(y + np.asarray(coeffs.h.value(y, zm))) - phi(y))
    return out + gam * acc


@dataclass
class EvolutionResult:
    """Outcome of `evolve`.

    ``time_error`` is Richardson's estimate of the explicit-Euler error in
    the order-0 final, in L1: twice the gap between this run and a companion
    run at dt / 2 on the same operator.
    """

    final: GridDensity
    snapshots: list[GridDensity]
    times: np.ndarray
    masses: np.ndarray
    dt: float
    steps: int
    escape_fraction: float
    time_error: float

    @property
    def mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses - self.masses[0])))


def _checked_step(op: AdjointOperator, cfg: EvolutionConfig) -> float:
    """The configured (or largest stable) step.  A step that is not positive
    and finite is refused; one beyond the stability budget raises."""
    dt_cap = 0.5 / op.lipschitz_bound
    dt = op.stable_dt() if cfg.dt is None else float(cfg.dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ContractError(f"dt must be positive and finite, got {dt!r}")
    if dt > dt_cap * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={dt:.3e} exceeds the stability budget {dt_cap:.3e} "
            f"(lipschitz scale {op.lipschitz_bound:.3e})"
        )
    return dt


def _euler(
    op: AdjointOperator,
    initial: GridDensity,
    t_end: float,
    dt: float,
    cfg: EvolutionConfig,
    snapshot_times: list[float] | tuple[float, ...] = (),
):
    """Explicit Euler steps of `op` from `initial` to t_end.

    Returns (final, snapshots, times, masses).  Sorted snapshot times are hit
    exactly with shortened steps; mass drift beyond the budget and
    non-finite values raise.
    """
    vals = initial.values.copy()
    t = 0.0
    snaps: list[GridDensity] = []
    times = [0.0]
    masses = [float(np.trapezoid(vals[0], dx=initial.spacing))]
    pending = list(snapshot_times)
    while pending and abs(pending[0]) <= 1e-12:
        snaps.append(GridDensity(initial.lo, initial.hi, vals.copy(), initial.time))
        pending.pop(0)

    while t < t_end - 1e-12:
        target = pending[0] if pending else t_end
        step = min(dt, target - t, t_end - t)
        vals = vals + step * op.apply(vals)
        t += step
        if not np.all(np.isfinite(vals)):
            raise DivergenceError(f"density stack became non-finite at step {len(times)}")
        mass = float(np.trapezoid(vals[0], dx=initial.spacing))
        times.append(t)
        masses.append(mass)
        if abs(mass - masses[0]) > cfg.mass_tol * max(1.0, t_end):
            raise MassConservationError(
                f"mass drifted by {abs(mass - masses[0]):.3e} at t={t:.4f} "
                f"(budget {cfg.mass_tol:.1e} per unit horizon)"
            )
        if pending and t >= pending[0] - 1e-12:
            snaps.append(GridDensity(initial.lo, initial.hi, vals.copy(), initial.time + t))
            pending.pop(0)

    final = GridDensity(initial.lo, initial.hi, vals, initial.time + t)
    return final, snaps, np.asarray(times), np.asarray(masses)


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
    window or step budget is inadequate), as does any non-finite value.  A
    companion run at dt / 2 on the same operator gives ``time_error``.
    """
    if t_end < 0:
        raise ContractError("t_end must be >= 0")
    op = AdjointOperator(coeffs, initial, cfg)
    dt = _checked_step(op, cfg)

    wanted = sorted(set(float(s) for s in snapshot_times))
    for s in wanted:
        if s < 0 or s > t_end + 1e-12:
            raise ContractError(f"snapshot time {s} outside [0, {t_end}]")

    final, snaps, times, masses = _euler(op, initial, t_end, dt, cfg, wanted)
    half = _euler(op, initial, t_end, 0.5 * dt, cfg)[0]
    gap = np.trapezoid(np.abs(final.values[0] - half.values[0]), dx=initial.spacing)
    return EvolutionResult(
        final=final,
        snapshots=snaps,
        times=times,
        masses=masses,
        dt=dt,
        steps=len(times) - 1,
        escape_fraction=op.escape_fraction,
        time_error=2.0 * float(gap),
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
    time quadrature, then compares the final sweep against explicit Euler on
    the same operator at t_short.  A validation tool, not a production
    integrator.
    """
    if t_short < 0:
        raise ContractError("t_short must be >= 0")
    op = AdjointOperator(coeffs, initial, cfg)
    euler_dt = _checked_step(op, cfg)
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
    euler = _euler(op, initial, t_short, euler_dt, cfg)[0]
    gap = float(
        np.trapezoid(np.abs(picard_final.values[0] - euler.values[0]), dx=initial.spacing)
    )
    return {"picard": picard_final, "euler": euler, "l1_gap": gap}


def duality_residual(
    coeffs: CoefficientSet, density: GridDensity, phi, cfg: EvolutionConfig
) -> dict:
    """Scale-free residual of <L phi, g> = <phi, L* g> on the window.

    `phi` is one test function or a sequence of them; L* g does not depend
    on phi, so the adjoint operator is built once per call.  For a sequence,
    `lhs` and `rhs` are per-function lists and `residual` is their maximum.
    """
    many = isinstance(phi, (list, tuple))
    phis = list(phi) if many else [phi]
    if not phis:
        raise ContractError("duality check needs at least one test function")
    grid, dx = density.grid, density.spacing
    rate = AdjointOperator(coeffs, density, cfg).apply(density.values)[0]
    lhs = [float(np.trapezoid(density.values[0] * apply_generator(coeffs, f, grid, cfg), dx=dx))
           for f in phis]
    rhs = [float(np.trapezoid(getattr(f, "value", f)(grid) * rate, dx=dx)) for f in phis]
    resid = float(np.max([abs(l - r) / max(1.0, abs(l), abs(r)) for l, r in zip(lhs, rhs)]))
    if not many:
        return {"lhs": lhs[0], "rhs": rhs[0], "residual": resid}
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
    doubles.  Both runs take the stable step of their own index, so that
    the two rates are measured alike; a set ``cfg.dt`` is refused with
    ContractError.  Package errors and floating-point traps (degenerate
    models blow up or cannot even build the pullback) are caught and
    reported as failed audits; any other exception is a bug and propagates.
    """
    if cfg.dt is not None:
        raise ContractError(
            f"norm_growth_audit runs at the stable step of each index; got dt={cfg.dt!r}"
        )
    ts = np.linspace(0.0, t_end, checkpoints + 1)
    report: dict = {"t": [float(v) for v in ts], "passed": False}

    def run(i_val: int):
        if t_end < 0:
            raise ContractError("t_end must be >= 0")
        local = replace(cfg, i=i_val)
        op = AdjointOperator(coeffs, initial, local)
        # only the checkpoints are used, so no dt/2 companion run for time_error
        snaps = _euler(op, initial, t_end, _checked_step(op, local), local, ts.tolist())[1]
        norms = np.array([sobolev_norm(s) for s in snaps])
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
