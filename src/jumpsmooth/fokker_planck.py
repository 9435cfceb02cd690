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
interpolation weights) is folded once per grid into `scipy.sparse` CSR
matrices (`AdjointOperator`): the drift pullback, which depends on i, and
the jump part J = (T - qmass I) Gamma, which does not and pulls back the
product gamma g as written above.  Gamma reads the rate at the grid nodes,
which can reach past the model's audit window, so the build puts those
rates to the model's reach rule, `CoefficientSet.check_rate`.  A time step
is one CSR product per factor.  `evolve` repeats the run at half the step on
the same map to estimate its own time-discretisation error.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .calculus import _check_order, _leibniz_terms, transfer_alpha_grid, transfer_beta_grid
from .errors import (
    ContractError,
    DivergenceError,
    InvalidModelError,
    MassConservationError,
    NumericalError,
    StabilityError,
    WindowTooSmallError,
)
from .model import (
    QUAD_PANELS, CoefficientSet, _check_drift_index, _check_horizon, _density_grid,
    _require_finite, _require_finite_number, _require_int, _require_positive, gauss_panels,
)
from .presets import Function1D, GaussBump


def _cumulative_trapezoid(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The trapezoid rule's running integral of the values v at the nodes x,
    0 at x[0]: the CDF of the mark sampler and of every grid density."""
    inc = 0.5 * (v[1:] + v[:-1]) * np.diff(x)
    return np.concatenate([[0.0], np.cumsum(inc)])


@dataclass
class GridDensity:
    """A derivative stack sampled on a uniform window.

    ``values[l, j]`` is the l-th derivative at node j of a density that is
    treated as identically zero outside [lo, hi], a window and node count
    that `_density_grid` accepts.
    """

    lo: float
    hi: float
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ContractError("grid density needs an (orders, nodes) array")
        _density_grid((self.lo, self.hi), vals.shape[1], "nodes")
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
        lo, hi = _density_grid(window, size, "size")
        return cls(lo, hi, fn.stack(np.linspace(lo, hi, size), order), 0.0)


def gaussian_density(
    window: tuple[float, float], size: int, order: int, mean: float = 0.0, sigma: float = 1.0
) -> GridDensity:
    """Unit-mass Gaussian bump with analytic derivative stack on `size`
    nodes of a window, both as `_density_grid` requires; `mean` must be
    finite and `sigma` positive and finite."""
    _require_finite_number(mean, "mean")
    _require_positive(sigma, "sigma")
    amp = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    bump = GaussBump(amp=amp, center=mean, width=sigma * math.sqrt(2.0))
    return GridDensity.from_function(bump, window, size, order)


def sobolev_norm(density: GridDensity, order: int | None = None) -> float:
    """Sum over derivative orders 0..order of the trapezoidal L1 norm.  The
    order, the stack's by default, is an integer from 0 to the stack's."""
    if order is None:
        order = density.order
    _check_order(order)
    if order > density.order:
        raise ContractError(
            f"requested norm order {order} exceeds stack order {density.order}"
        )
    h = density.spacing
    return float(
        sum(np.trapezoid(np.abs(density.values[l]), dx=h) for l in range(order + 1))
    )


# Share of the stability budget that the default step uses.
STABILITY_MARGIN = 0.9
# Budgets of the discretisation, not parameters of the model: the mass drift
# allowed per unit horizon, and the largest share of transported mark mass
# that may read outside the window at an interior state.
MASS_TOL = 1e-4
ESCAPE_TOL = 0.5
# Evenly spaced checkpoints of `norm_growth_audit` after t = 0.
NORM_CHECKPOINTS = 10


@dataclass(frozen=True)
class EvolutionConfig:
    """Controls of the explicit evolution.

    ``i`` is the drift surrogate index; ``trunc`` the mark truncation index
    (defaults to the last declared).  ``dt`` must be positive and finite;
    ``None`` picks the largest step inside the stability budget
    dt * (2 i + 2 sup(gamma) q(G)) <= 0.5, scaled by STABILITY_MARGIN.
    ``quad_nodes`` is the node count of the mark quadrature, in QUAD_PANELS
    panels of at least 2 nodes each.  The budgets that guard the
    discretisation are module constants: mass drift beyond MASS_TOL per unit
    horizon raises, and an interior escape fraction above ESCAPE_TOL means
    the window is too small.  The inverse maps are solved to the calculus
    default tolerance.
    """

    i: int
    dt: float | None = None
    trunc: int | None = None
    quad_nodes: int = 256


def _interp_weights(points: np.ndarray, lo: float, spacing: float, size: int):
    """Cubic Lagrange gather weights on a uniform grid, zero outside.

    Returns (base_index, weights[..., 4], inside) so that a stack row f
    gives f(points) = sum_o weights[..., o] * f[base_index + o]; the weights
    of a point outside the grid (where inside is False) are all zero.
    """
    t = (points - lo) / spacing
    inside = (t >= 0.0) & (t <= size - 1.0)
    # the stencil's first node: one before the point's cell, kept on the grid
    base = np.clip(np.floor(t) - 1.0, 0.0, size - 4.0)
    s = t - (base + 1.0)
    sp1, sm1, sm2 = s + 1.0, s - 1.0, s - 2.0
    w = np.empty(points.shape + (4,))
    np.divide(-s * sm1 * sm2, 6.0, out=w[..., 0])
    np.divide(sp1 * sm1 * sm2, 2.0, out=w[..., 1])
    np.divide(-sp1 * s * sm2, 2.0, out=w[..., 2])
    np.divide(sp1 * s * sm1, 6.0, out=w[..., 3])
    w[~inside] = 0.0
    return base.astype(int), w, inside


# Nodes per block of the jump-part build.  Each block solves its pre-images
# at every mark in one transfer call and merges its own stencils, so the
# (node, mark) temporaries exist for one block at a time.
JUMP_BLOCK_NODES = 64


def _block_pairs(k: int) -> list[tuple[int, int]]:
    """The derivative blocks (l, r), r <= l, of the stack map, in build order."""
    return [(l, r) for l in range(k + 1) for r in range(l + 1)]


class AdjointOperator:
    """The adjoint generator on one grid, assembled once as a sparse map.

    The generator is linear in the density stack with a fixed stencil: the
    drift pullback through tau_i and the mark-integrated jump pullback through
    tau(., z) read the stack at the inverse-map points by cubic interpolation,
    and the transfer tables turn each read into a fixed combination of the
    derivative rows.  The constructor folds them into CSR matrices
    (`scipy.sparse`, imported lazily) over the flattened stack, where entry
    ``l * size + j`` is the l-th derivative at node j: `drift` (index i), and
    the jump part, which does not depend on i, as `jump` T - qmass I after
    `rate` Gamma, the Leibniz multiply by gamma at the nodes (blocks
    C(l, r) gamma^(l - r)(y_j)).  T is built `JUMP_BLOCK_NODES` nodes at a
    time: one `transfer_alpha_grid` call solves a block's pre-images at every
    mark, and the block's stencils of T's blocks (l, r) are merged in one
    sparse product (`_merge_stencils`).  An amplitude h = A(z) (affine, B = 0)
    has a zero table, so `jump` is the one (size, size) block T_00, which
    `apply` takes to each row, and its pre-images y_j - A(z) make it one row
    shifted along the diagonal away from the window's edges: only the edge
    rows and the first interior row are solved and merged (`_edge_rows`),
    and that row is tiled over the other interior rows.  The drift part is
    one block of the merge, one pre-image per node.
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
        z, wq = _mark_quadrature(coeffs, cfg)
        self.qmass = float(np.sum(wq))
        self.gamma_sup = coeffs.gamma_sup()
        self.escape_fraction = 0.0
        # the rate stack at the nodes, which can reach past the audit window:
        # its row 0 under the model's reach rule, and no jump part where it is 0
        self._rates = coeffs.gamma.stack(self.grid, self.k)
        jumps = self.qmass > 0.0 and np.any(coeffs.check_rate(self.grid, self._rates[0]) > 0.0)
        self.jump, self.rate = self._jump_part(z, wq) if jumps else (self._csr([]),) * 2
        if coeffs.b.is_zero:
            # built after the jump part's first solve, so that a model the
            # solve refuses fails before scipy loads
            self.drift = self._csr([])

    def with_drift_index(self, i: int) -> "AdjointOperator":
        """The operator at drift surrogate index i on the same grid and marks.
        Only the drift part is built; the jump part is this operator's."""
        op = copy.copy(self)
        op._set_drift(replace(self.cfg, i=i))
        return op

    def _set_drift(self, cfg: EvolutionConfig) -> None:
        """Drift pullback i [g(tau_i) tau_i' - g]; for a zero drift only its
        index is checked (the constructor builds the empty part)."""
        self.cfg = cfg
        self.i = cfg.i
        if self.coeffs.b.is_zero:
            # transfer_beta_grid checks the index of a nonzero drift
            _check_drift_index(self.coeffs, self.i)
            return
        k, n = self.k, self.size
        for l, row in enumerate(self.coeffs.b.stack(self.grid, k + 1)):
            _require_finite(row, f"drift derivative {l}", y=self.grid)
        beta, taui = transfer_beta_grid(self.coeffs, self.grid, self.i, k)
        base, w, _ = _interp_weights(taui[0], self.lo, self.spacing, n)
        coef = np.stack([self.i * ((l == r) + beta[l, r]) for l, r in _block_pairs(k)],
                        axis=-1)
        parts = self._merge_stencils(base[:, None], w[:, None], coef, 0, _block_pairs(k))
        diag = np.arange((k + 1) * n)
        parts.append((diag, diag, np.full(diag.size, -float(self.i))))
        self.drift = self._csr(parts)

    def _jump_part(self, z: np.ndarray, wq: np.ndarray):
        """The factors T - qmass I and Gamma of the jump part: T's rows built
        `JUMP_BLOCK_NODES` nodes at a time, each block's pre-images at every
        mark from one `transfer_alpha_grid` call, then Gamma on the grid.
        For h = A(z) only the edge rows and one interior reference row are
        built so (`_edge_rows`); the reference row, shifted along the
        diagonal, gives every other interior row.  Gamma takes the rate
        stack that the constructor checked."""
        coeffs, grid, k, n = self.coeffs, self.grid, self.k, self.size
        escape = np.zeros(n)
        first = slice(0, min(JUMP_BLOCK_NODES, n))
        solved = transfer_alpha_grid(coeffs, grid[first], z, k)
        # once the first solve has accepted the model: h = A(z) has a zero
        # table, so T_ll = T_00
        affine = coeffs.h.affine(z)
        state_free = affine is not None and not np.any(affine[1])
        blocks = [(0, 0)] if state_free else _block_pairs(k)
        low, high = self._edge_rows(affine[0]) if state_free else (n, n)

        def build(start: int, stop: int) -> list:
            parts = []
            for a in range(start, stop, JUMP_BLOCK_NODES):
                rows = slice(a, min(a + JUMP_BLOCK_NODES, stop))
                if rows.stop <= first.stop:  # rows that the first solve holds
                    alpha, tau = solved[0][:, :, rows], solved[1][:, rows]
                else:
                    alpha, tau = transfer_alpha_grid(coeffs, grid[rows], z, k)
                # T_lr's coefficient at each (node, mark): (delta_lr + alpha[l, r]) wq
                coef = np.stack([((l == r) + alpha[l, r]) * wq for l, r in blocks], axis=-1)
                # a pre-image outside the window loses its mark weight
                base, w, inside = _interp_weights(tau[0], self.lo, self.spacing, n)
                escape[rows] = (~inside * wq).sum(axis=1)
                parts += self._merge_stencils(base, w, coef.reshape(-1, len(blocks)), a, blocks)
            return parts

        parts = build(0, low)
        if low < high:  # the reference row low - 1, tiled; the tiled rows' escape is 0
            prow, pcol, pdata = parts[-1]
            ref = prow == low - 1
            tiled = np.arange(low, high)
            parts.append((np.repeat(tiled, np.count_nonzero(ref)),
                          (tiled[:, None] + (pcol[ref] - (low - 1))).ravel(),
                          np.tile(pdata[ref], tiled.size)))
        parts += build(high, n)
        # Per-state fraction of transported mark mass that reads outside
        # the window, summed over the marks in ascending order; large values
        # in the interior mean the window is too small for this truncation.
        escape /= max(self.qmass, 1e-300)
        inner = slice(n // 5, n - n // 5)
        self.escape_fraction = float(np.max(escape[inner]))
        if self.escape_fraction > ESCAPE_TOL:
            raise WindowTooSmallError(
                f"{self.escape_fraction:.2%} of transported mark mass leaves the "
                "window at interior states; widen the window"
            )
        # the local loss -qmass on T's diagonal
        size = n if blocks == [(0, 0)] else (k + 1) * n
        diag = np.arange(size)
        parts.append((diag, diag, np.full(size, -self.qmass)))
        # Gamma: (gamma g)^(l) = sum_r C(l, r) gamma^(l - r) g^(r) at the nodes
        nodes = np.arange(n)
        terms = _leibniz_terms(self._rates)
        return self._csr(parts, size), self._csr(
            [(l * n + nodes, r * n + nodes, terms[l][r]) for l, r in _block_pairs(k)])

    def _edge_rows(self, shift: np.ndarray) -> tuple[int, int]:
        """(low, high) for an amplitude h = A(z), A = `shift` at the marks:
        the jump build solves rows 0..low-1 and high..size-1 node by node,
        and rows low..high-1 repeat row low - 1 shifted along the diagonal;
        (size, size) when no row is left to tile.

        Node j reads its pre-image y_j - A at t = j - A / spacing grid steps,
        through a stencil that starts at floor(t) - 1.  The stencil is
        clipped, or the point leaves the window, when t < 1 (bottom) or
        t >= size - 2 (top).  The edge rows are the first
        max(0, ceil(max A / spacing)) + 3 and the last
        4 - min(0, floor(min A / spacing)), so every other row reads at
        t >= 3 and t <= size - 5: a margin of 2 grid steps at the bottom and
        3 at the top.  The reference row is the first row past the bottom
        edge; the rule does not depend on `JUMP_BLOCK_NODES`.
        """
        n, sp = self.size, self.spacing
        # clamped to the grid before rounding, so that a huge shift stays finite
        bottom = max(0, math.ceil(min(float(np.max(shift)) / sp, n))) + 3
        top = 4 - min(0, math.floor(max(float(np.min(shift)) / sp, -n)))
        low, high = bottom + 1, n - top
        return (low, high) if low < high else (n, n)

    def _csr(self, parts: list, size: int | None = None):
        """The `scipy.sparse.csr_array` of the coefficient triples (rows,
        cols, data) in `parts`, square of side `size` (default: the flattened
        stack's), sorted by row stably so that each row keeps its assembly
        order.  Duplicate keys stay as they are (the product sums them):
        canonicalising would reorder the rows and cost build time for
        nothing."""
        from scipy.sparse import csr_array

        size = size or (self.k + 1) * self.size
        if not parts:
            return csr_array((size, size))
        rows, cols, data = (np.concatenate([p[c] for p in parts]) for c in range(3))
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=size))])
        return csr_array((data[order], cols[order], indptr), shape=(size, size))

    def _merge_stencils(self, base, w, coef, first, blocks):
        """Sparse triples of the derivative blocks (l, r) in `blocks` over one
        block of nodes, first, first + 1, ..., with duplicate keys summed.

        The stencils and coefficients come in columns, one per (node, mark)
        pair, in (node, mark) order: `base` (nodes, marks) and `w` (nodes,
        marks, 4) are the stencils, `coef[:, b]` the coefficients of the
        derivative block `blocks[b]`.  The stencil nodes of node
        first + j lie in a window of `width` slots from its smallest base, so
        the (node, stencil node) key is
        ``j * width + (base + o - min_base[j])``.  The stencil matrix (CSC,
        slots by columns) holds each column's 4 weights at its 4 keys in
        offset order, so it needs no sort, and one multivector product with
        `coef` gives every block's slot sums.  That
        product (`csc_matvecs`) adds each slot's terms w * coef from zero in
        (column, offset) order, which is ascending mark order: the order in
        which a per-block ``np.bincount`` of the raveled keys adds the same
        products, so the sums are bit-equal to that bincount's.  The slots
        run in (node, slot) order, and the zero sums (unread slots among
        them) are dropped.
        """
        from scipy.sparse import csc_array

        n, nodes = self.size, len(base)
        low = base.min(axis=1)
        width = int(np.max(base.max(axis=1) - low)) + 4
        # an offset at a time: long loops, where one broadcast over the
        # innermost axis of 4 is several times slower
        keys = np.empty(base.shape + (4,), dtype=base.dtype)
        np.add((np.arange(nodes) * width - low)[:, None], base, out=keys[..., 0])
        for o in range(1, 4):
            np.add(keys[..., 0], o, out=keys[..., o])
        stencil = csc_array((w.ravel(), keys.ravel(), np.arange(0, keys.size + 1, 4)),
                            shape=(nodes * width, base.size))
        sums = stencil @ coef
        slots = np.arange(nodes * width)
        srow = first + slots // width
        scol = low[slots // width] + slots % width
        parts = []
        for b, (l, r) in enumerate(blocks):
            data = sums[:, b]
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
        # Gamma, then T, on each row of the stack when T is one (size, size) block
        rated = (self.rate @ flat).reshape(-1, self.jump.shape[1])
        pulled = np.concatenate([self.jump @ row for row in rated])
        if self.drift.nnz == 0:  # a zero drift: its product would only add +0.0
            return pulled.reshape(vals.shape)
        return (self.drift @ flat + pulled).reshape(vals.shape)


def _mark_quadrature(coeffs: CoefficientSet, cfg: EvolutionConfig) -> tuple[np.ndarray, np.ndarray]:
    """The evolution's mark quadrature (z, wq): `cfg.quad_nodes` Gauss nodes
    in QUAD_PANELS panels on the truncation `cfg.trunc` (default the
    widest), and their weights times q's density (`density_at`)."""
    zlo, zhi = coeffs.q.trunc_interval(coeffs.q.resolve_trunc(cfg.trunc))
    z, w = gauss_panels(zlo, zhi, cfg.quad_nodes, QUAD_PANELS)
    return z, w * coeffs.q.density_at(z)


def apply_generator(coeffs: CoefficientSet, phi, y: np.ndarray, cfg: EvolutionConfig):
    """Direct action L phi at states y for a test function.

    Independent of the inverse-map machinery on purpose: duality tests pit
    this against `AdjointOperator.apply`.
    """
    phi = getattr(phi, "value", phi)
    y = np.asarray(y, dtype=float)
    i = cfg.i
    _require_int(i, "drift surrogate index i")
    out = i * (phi(y + np.asarray(coeffs.b.value(y)) / i) - phi(y))
    z, wq = _mark_quadrature(coeffs, cfg)
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


def _checked_step(op: AdjointOperator) -> float:
    """The step of `op.cfg` (or the largest stable one).  A step that is not
    positive and finite is refused; one beyond the stability budget raises."""
    dt_cap = 0.5 / op.lipschitz_bound
    dt = op.stable_dt() if op.cfg.dt is None else float(op.cfg.dt)
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
    snapshot_times: list[float] | tuple[float, ...] = (),
):
    """Explicit Euler steps of `op` from `initial` to t_end.

    Returns (final, snapshots, times, masses).  Sorted snapshot times are hit
    exactly with shortened steps; mass drift beyond MASS_TOL * max(1, t_end)
    and non-finite values raise.
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
        if abs(mass - masses[0]) > MASS_TOL * max(1.0, t_end):
            raise MassConservationError(
                f"mass drifted by {abs(mass - masses[0]):.3e} at t={t:.4f} "
                f"(budget {MASS_TOL:.1e} per unit horizon)"
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
    every step; drift beyond ``MASS_TOL * max(1, t_end)`` raises (the
    window or step budget is inadequate), as does any non-finite value, and
    an interior escape fraction above ESCAPE_TOL raises WindowTooSmallError
    in the build.  A companion run at dt / 2 on the same operator gives
    ``time_error``.  A horizon or snapshot time out of range is refused
    before the build.
    """
    _check_horizon(t_end)
    wanted = sorted(set(float(s) for s in snapshot_times))
    for s in wanted:
        if not 0.0 <= s <= t_end + 1e-12:
            raise ContractError(f"snapshot time {s} outside [0, {t_end}]")
    op = AdjointOperator(coeffs, initial, cfg)
    dt = _checked_step(op)

    final, snaps, times, masses = _euler(op, initial, t_end, dt, wanted)
    half = _euler(op, initial, t_end, 0.5 * dt)[0]
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
    validation tool, not a production integrator.  A horizon that is
    negative, nan or infinite is refused with ContractError before the build.
    """
    _check_horizon(t_short, "t_short")
    op = AdjointOperator(coeffs, initial, cfg)
    euler_dt = _checked_step(op)
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
    euler = _euler(op, initial, t_short, euler_dt)[0]
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
) -> dict:
    """Envelope audit of the Sobolev norm along the evolution.

    Evolves at the configured surrogate index i and at 2 i, reads the norm
    at t = 0 and at NORM_CHECKPOINTS evenly spaced times up to t_end, fits
    the exponential growth rate on the first quarter of each run, and checks
    (a) every later checkpoint sits below norm(0) * exp(1.1 * fitted * t) and
    (b) the fitted rate moves by at most 20% (absolute floor 0.1) when i
    doubles.  The 2 i operator is derived from the i operator with
    `AdjointOperator.with_drift_index`, so the jump part is built once.
    Both runs take the stable step of their own index, so that the two
    rates are measured alike.  A set ``cfg.dt`` and a horizon that is not
    positive and finite (the fit needs distinct checkpoint times) are caller
    errors, refused with ContractError before any run.  Numerical failures
    (`NumericalError`), coefficients that are not finite on a grid
    (`InvalidModelError`) and floating-point traps (degenerate models blow
    up or cannot even build the pullback) are caught and reported as failed
    audits.  Any other exception propagates:
    a `ContractError`, such as a stack order that does not match the model,
    is the caller's error, and anything else is a bug.
    """
    if cfg.dt is not None:
        raise ContractError(
            f"norm_growth_audit runs at the stable step of each index; got dt={cfg.dt!r}"
        )
    _require_positive(t_end, "t_end")
    ts = np.linspace(0.0, t_end, NORM_CHECKPOINTS + 1)
    report: dict = {"t": [float(v) for v in ts], "passed": False}

    def run(op: AdjointOperator):
        # only the checkpoints are used, so no dt/2 companion run for time_error
        snaps = _euler(op, initial, t_end, _checked_step(op), ts.tolist())[1]
        norms = np.array([sobolev_norm(s) for s in snaps])
        if not np.all(np.isfinite(norms)):
            raise DivergenceError("norm became non-finite along the run")
        return norms

    try:
        op = AdjointOperator(coeffs, initial, cfg)
        norms_1 = run(op)
        # the jump part does not depend on i: the 2 i operator reuses it
        norms_2 = run(op.with_drift_index(2 * cfg.i))
    except (NumericalError, InvalidModelError, FloatingPointError) as exc:
        report["status"] = "numerical_failure"
        report["error"] = f"{type(exc).__name__}: {exc}"
        return report

    def fitted_rate(norms: np.ndarray) -> float:
        head = ts <= t_end / 4.0 + 1e-12
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
