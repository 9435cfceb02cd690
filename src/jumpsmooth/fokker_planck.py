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
interpolation weights) is folded once per grid into a sparse linear map on
the flattened stack, kept as two CSR matrices (`scipy.sparse`, imported
lazily at the first build): the drift pullback, which depends on i, and the
jump pullback with its local loss, which does not.  The jump part solves the
pre-images for a block of marks per call.  A time step is one CSR product
per part.  `norm_growth_audit` builds the jump part once
and derives its 2 i operator with `AdjointOperator.with_drift_index`.
`evolve` repeats the run at half the step on the same map to estimate its
own time-discretisation error.
"""

from __future__ import annotations

import copy
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
from .model import (
    CoefficientSet, _check_drift_index, _check_horizon, _require_finite, _require_positive,
    gauss_panels,
)
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

    Returns (base_index, weights[..., 4], inside) so that a stack row f
    gives f(points) = sum_o weights[..., o] * f[base_index + o]; the weights
    of a point outside the grid (where inside is False) are all zero.
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
    return base, w, inside


# Marks per transfer solve in the operator build.  Blocks, not all marks at
# once: a model whose pre-image cannot be bracketed (60 bracket growths)
# fails after one block, and the (nodes, marks) temporaries stay small.
JUMP_BLOCK_MARKS = 32


def _block_pairs(k: int) -> list[tuple[int, int]]:
    """The derivative blocks (l, r), r <= l, of the stack map, in build order."""
    return [(l, r) for l in range(k + 1) for r in range(l + 1)]


class AdjointOperator:
    """The adjoint generator on one grid, assembled once as a sparse map.

    The generator is linear in the density stack with a fixed stencil: the
    drift pullback through tau_i and the mark-integrated jump pullback through
    tau(., z) read the stack at the inverse-map points by cubic interpolation,
    and the transfer tables turn each read into a fixed combination of the
    derivative rows.  The constructor folds each pullback into its own
    CSR matrix (`scipy.sparse`, imported lazily) over the flattened stack,
    where entry ``l * size + j`` is the l-th derivative at node j: `drift`
    (index i) and `jump` (with the local loss; it does not depend on i).  The
    jump part solves the pre-images of `JUMP_BLOCK_MARKS` marks per
    `transfer_alpha_grid` call.  `apply` is one CSR product per part.
    `with_drift_index` gives the operator at another index that shares this
    one's jump part.
    """

    def __init__(self, coeffs: CoefficientSet, grid_density: GridDensity, cfg: EvolutionConfig):
        if grid_density.order != coeffs.k:
            raise ContractError(
                f"density stack order {grid_density.order} != model budget k={coeffs.k}"
            )
        self.coeffs = coeffs
        self.k = coeffs.k
        self.lo = grid_density.lo
        self.hi = grid_density.hi
        self.size = grid_density.size
        self.spacing = grid_density.spacing
        self.grid = grid_density.grid
        self._set_drift(cfg)

        # Jump pullback: integral q(dz) (gamma g)(tau(., z)) tau'(., z).
        trunc = coeffs.q.resolve_trunc(cfg.trunc)
        self.trunc = trunc
        zlo, zhi = coeffs.q.trunc_interval(trunc)
        z, w = gauss_panels(zlo, zhi, cfg.quad_nodes, QUAD_PANELS)
        rho = np.asarray(coeffs.q.density.value(z), dtype=float)
        _require_finite(rho, z, "mark density", "z")
        wq = w * rho
        self.qmass = float(np.sum(wq))
        self.gamma_sup = coeffs.gamma_sup()
        self.jump_active = self.qmass > 0.0 and self.gamma_sup > 0.0
        self.escape_fraction = 0.0
        self.jump = self._jump_part(z, wq, cfg.escape_tol) if self.jump_active else self._csr([])

    def with_drift_index(self, i: int) -> "AdjointOperator":
        """The operator at drift surrogate index i on the same grid and marks.
        Only the drift part is built; the jump part is this operator's."""
        op = copy.copy(self)
        op._set_drift(replace(self.cfg, i=i))
        return op

    def _set_drift(self, cfg: EvolutionConfig) -> None:
        """Drift pullback i [g(tau_i) tau_i' - g], skipped for a zero drift."""
        self.cfg = cfg
        self.i = int(cfg.i)
        _check_drift_index(self.coeffs, self.i)
        self.drift_active = not self.coeffs.b.is_zero
        if not self.drift_active:
            self.drift = self._csr([])
            return
        k, n = self.k, self.size
        for l in range(k + 2):
            _require_finite(self.coeffs.b.derivative(self.grid, l), self.grid,
                            f"drift derivative {l}", "y")
        beta, taui = transfer_beta_grid(self.coeffs, self.grid, self.i, k)
        base, w, _ = _interp_weights(taui[0], self.lo, self.spacing, n)
        coef = np.stack([self.i * ((l == r) + beta[l, r]) for l, r in _block_pairs(k)])
        parts = self._merge_stencils(base[:, None], w[:, None, :], coef[..., None])
        nodes = np.arange(n)
        for l in range(k + 1):
            parts.append((l * n + nodes, l * n + nodes, np.full(n, -float(self.i))))
        self.drift = self._csr(parts)

    def _jump_part(self, z: np.ndarray, wq: np.ndarray, escape_tol: float):
        """Jump pullback and local loss, with the mark pre-images solved
        `JUMP_BLOCK_MARKS` marks per `transfer_alpha_grid` call."""
        coeffs, grid, k, n = self.coeffs, self.grid, self.k, self.size
        pairs = _block_pairs(k)
        # coef[b] for block (l, r0) = pairs[b]:
        # sum_r (delta_lr + alpha[l, r]) C(r, r0) gamma^(r - r0)(tau)
        coef = np.empty((len(pairs), n, z.size))
        tau0 = np.empty((n, z.size))
        for start in range(0, z.size, JUMP_BLOCK_MARKS):
            cut = slice(start, start + JUMP_BLOCK_MARKS)
            alpha, tau = transfer_alpha_grid(coeffs, grid, z[cut], k)
            tau0[:, cut] = tau[0]
            gamma_tau = [np.asarray(coeffs.gamma.derivative(tau[0], j), dtype=float)
                         for j in range(k + 1)]
            for b, (l, r0) in enumerate(pairs):
                c = comb(l, r0) * gamma_tau[l - r0]
                for r in range(r0, l + 1):
                    c = c + alpha[l, r] * (comb(r, r0) * gamma_tau[r - r0])
                coef[b, :, cut] = c
        base, w, inside = _interp_weights(tau0, self.lo, self.spacing, n)
        # Per-state fraction of transported mark mass that reads outside
        # the window; large values in the interior mean the window is too
        # small for this truncation.
        escape = (~inside * wq[None, :]).sum(axis=1) / max(self.qmass, 1e-300)
        inner = slice(n // 5, n - n // 5)
        self.escape_fraction = float(np.max(escape[inner]))
        if self.escape_fraction > escape_tol:
            raise WindowTooSmallError(
                f"{self.escape_fraction:.2%} of transported mark mass leaves the "
                "window at interior states; widen the window"
            )
        w *= wq[None, :, None]
        parts = self._merge_stencils(base, w, coef)
        # local loss -qmass (gamma g)^(l), Leibniz over the stacks
        nodes = np.arange(n)
        gamma_grid = [np.asarray(coeffs.gamma.derivative(grid, j), dtype=float)
                      for j in range(k + 1)]
        for l, r in pairs:
            data = -self.qmass * comb(l, r) * np.broadcast_to(gamma_grid[l - r], (n,))
            parts.append((l * n + nodes, r * n + nodes, data))
        return self._csr(parts)

    def _csr(self, parts: list):
        """The `scipy.sparse.csr_array` over the flattened stack of the
        coefficient triples (rows, cols, data) in `parts`, sorted by row
        stably so that each row keeps its assembly order.  Duplicate keys stay
        as they are (the product sums them): canonicalising would reorder the
        rows and cost build time for nothing."""
        from scipy.sparse import csr_array

        size = (self.k + 1) * self.size
        if not parts:
            return csr_array((size, size))
        rows, cols, data = (np.concatenate([p[c] for p in parts]) for c in range(3))
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=size))])
        return csr_array((data[order], cols[order], indptr), shape=(size, size))

    def _merge_stencils(self, base, w, coef):
        """Sparse triples of every block (l, r) with duplicate keys summed.

        `base` (nodes, columns) and `w` (nodes, columns, 4) are the stencils,
        `coef[b]` (nodes, columns) the coefficients of block
        `_block_pairs(k)[b]`.  Row j's stencil nodes lie in a window of
        `width` slots from its smallest base, so the (node, stencil node) key
        is ``j * width + (base + o - min_base[j])``, and each block is one
        bincount over nodes * width slots.  The slots run in (row, column)
        order, and the zero sums (unread slots among them) are dropped.
        """
        n = self.size
        low = base.min(axis=1)
        width = int(np.max(base.max(axis=1) - low)) + 4
        keys = ((np.arange(n) * width - low)[:, None, None] + base[..., None]
                + np.arange(4)).ravel()
        slots = np.arange(n * width)
        srow = slots // width
        scol = low[srow] + slots % width
        entry = np.empty(w.shape)
        parts = []
        for b, (l, r) in enumerate(_block_pairs(self.k)):
            np.multiply(coef[b][..., None], w, out=entry)
            data = np.bincount(keys, weights=entry.ravel(), minlength=n * width)
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
        flat = vals.ravel()
        return (self.drift @ flat + self.jump @ flat).reshape(vals.shape)


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
    _require_positive(dt, "dt")
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
    _check_horizon(t_end)
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
) -> dict:
    """Fixed-point iteration of the integral form on a short horizon.

    Iterates f_{m+1}(t) = f_0 + integral_0^t L* f_m(s) ds, 4 sweeps with
    trapezoidal time quadrature on 17 time nodes, then compares the final
    sweep against explicit Euler on the same operator at t_short.  A
    validation tool, not a production integrator.
    """
    if t_short < 0:
        raise ContractError("t_short must be >= 0")
    op = AdjointOperator(coeffs, initial, cfg)
    euler_dt = _checked_step(op, cfg)
    sweeps, time_nodes = 4, 17
    if t_short > 4.0 * op.stable_dt() * (time_nodes - 1):
        raise ContractError("picard horizon too long for the 17-node time grid")
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
    doubles.  The 2 i operator is derived from the i operator with
    `AdjointOperator.with_drift_index`, so the jump part is built once.
    Both runs take the stable step of their own index, so that the two
    rates are measured alike.  A set ``cfg.dt`` and a horizon that is
    negative, nan or infinite are caller errors, refused with ContractError
    before any run.  Package errors and floating-point traps (degenerate
    models blow up or cannot even build the pullback) are caught and
    reported as failed audits; any other exception is a bug and propagates.
    """
    if cfg.dt is not None:
        raise ContractError(
            f"norm_growth_audit runs at the stable step of each index; got dt={cfg.dt!r}"
        )
    _check_horizon(t_end)
    ts = np.linspace(0.0, t_end, checkpoints + 1)
    report: dict = {"t": [float(v) for v in ts], "passed": False}

    def run(op: AdjointOperator):
        # only the checkpoints are used, so no dt/2 companion run for time_error
        snaps = _euler(op, initial, t_end, _checked_step(op, op.cfg), op.cfg, ts.tolist())[1]
        norms = np.array([sobolev_norm(s) for s in snaps])
        if not np.all(np.isfinite(norms)):
            raise DivergenceError("norm became non-finite along the run")
        return norms

    try:
        op = AdjointOperator(coeffs, initial, cfg)
        norms_1 = run(op)
        # the jump part does not depend on i: the 2 i operator reuses it
        norms_2 = run(op.with_drift_index(2 * cfg.i))
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
