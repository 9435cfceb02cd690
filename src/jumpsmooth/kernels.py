"""Regularizing decomposition of the jump kernel.

The jump kernel of the dynamics is the image measure of gamma(y) q(dz) under
z -> h(y, z): it moves mass from y by the displacement h(y, z).  To regularize
it, marks are filtered through a plateau cutoff in the scaled coordinate
w = gamma(y) * (z - a(y)) (mirrored when marks extend leftwards): the n-th
cutoff phi_n rises smoothly from 0 on w <= 1 to 1 on [2, n+2] and back to 0
beyond n+3.  The filtered kernel

    mu_n(y, du) = image of phi_n(w) dw under the displacement map u = H(w)

has three structural properties this module computes and audits:

* its total mass is integral of phi_n, inside [n, n+2] (exactly n+1 for the
  symmetric smoothstep ramps used here) - enough acceptance rate to see a
  filtered jump quickly;
* it has a density in the displacement u whenever H is strictly monotone,
  given by phi_n(W(u)) |W'(u)| with W the inverse of H - computed here with
  exact derivative stacks via the inverse-map calculus;
* its Sobolev norm grows at most like e^(theta n) under the inversion budget
  - the quantity the smoothness certificates consume.

The acceptance ratio d_n(y, z) = phi_n(w) / rho(z) (rho = mark density,
audited >= 1 on the cutoff windows) lets the simulator mark exactly the jumps
that the filtered kernel keeps.

Every routine reads mu_n through one private kernel object built once per
block of states and index n (a scalar state is a block of one): it checks the
rate and the monotonicity of H state by state, fixes phi_n and each state's
image window, and provides the density's derivative stack and the one panel
quadrature in w (L1 norm of each stack row, plus the mass).  The quadrature
evaluates the stack at its own Gauss nodes, shared by every state of the
block, so the audits (`kernel_sobolev_audit` one block per index,
`make_kernels` one block, `kernel_mass`) make no root solve; only reads at
given displacements (`mu_density`, `conditional_jump_density`) solve H = u
for the mark.  Failures come in state order, as a state-by-state audit
meets them.  The Sobolev audit hands back the mass it integrated at each
audit state: that state's `kernel_mass`.
`KernelDecomposition` carries the filter ratio `acceptance` and owns the
filtered-rate audit the simulator runs before filtering (through
`cutoff_window_mass`), and remembers each passing (index, truncation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import _bracketed_newton, _compose_values, _invert_values, leibniz_product
from .errors import (
    ContractError,
    DegenerateKernelError,
    InvalidModelError,
    MassBracketError,
    ResolutionError,
)
from .model import (
    CoefficientSet, _check_audit_indices, _check_kernel_index, _check_theta, _envelope, _frame,
    _kernel_indices, _require_finite, gauss_panels,
)
from .fokker_planck import GridDensity
from .presets import SmoothstepBump

# Audit-state counts (`CoefficientSet.y_audit_states`): the construction and
# filtered-rate audits of a decomposition, and the Sobolev audit of the
# `kernels` command.
RATE_AUDIT_STATES = 24
SOBOLEV_AUDIT_STATES = 9


def make_cutoff(n: int, order: int) -> SmoothstepBump:
    """The n-th plateau cutoff: 0 below 1, 1 on [2, n+2], 0 above n+3.

    Ramps are smoothsteps of polynomial degree 2*order+1, so the cutoff is
    C^order with derivative bounds independent of n, and each ramp integrates
    to exactly 1/2 (odd symmetry about its midpoint).
    """
    if n < 1:
        raise ContractError("cutoff index n must be >= 1")
    if order < 1:
        raise ContractError("cutoff smoothness order must be >= 1")
    return SmoothstepBump(lo=1.0, hi=float(n + 3), ramp=1.0, order=order, amp=1.0)


def _mass_nodes(n: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights of the mass panels in w: the two ramps and the
    plateau of phi_n, each with its own rule; `scale` multiplies the node
    counts."""
    rules = [
        gauss_panels(lo, hi, nodes * scale, max(1, (nodes * scale) // 16))
        for lo, hi, nodes in ((1.0, 2.0, 64), (2.0, float(n + 2), 32), (float(n + 2), float(n + 3), 64))
    ]
    return np.concatenate([w for w, _ in rules]), np.concatenate([v for _, v in rules])


def _first(flags: np.ndarray, stop: int) -> int:
    """Index of the first set flag before `stop`, else `stop`."""
    hits = np.flatnonzero(flags[:stop])
    return int(hits[0]) if hits.size else stop


class _Kernel:
    """The n-th filtered kernel over a block of states, built once per
    (block, n); a scalar state is a block of one.

    Construction checks, state by state, that the rate is positive, that
    dh/dz is finite on the cutoff window and that the displacement map
    H(w) = h(y, z(w)) is strictly monotone there, and keeps the states
    before the first one that fails, each with its frame (one row per
    state) and image window H([1, n+3]).  `checked` then raises what that
    first failing state raises on its own (a non-finite dh/dz before a
    monotonicity failure), so a caller that checks something per state
    first meets the failures in state order.
    Every state shares the cutoff phi_n.  Every kernel routine reads the
    kernel through `stack` (derivatives of the density mu_n at given
    displacements, whose marks a bracketed Newton solve finds) and
    `integrals` (the panel quadrature in w, evaluated at its own nodes); both
    evaluate the density through `_stack_at`, at known marks.
    """

    def __init__(self, coeffs: CoefficientSet, ys, n: int):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        self.coeffs, self.n, self.sigma = coeffs, n, coeffs.q.direction
        self.phi = make_cutoff(n, coeffs.k)
        gam = np.asarray(coeffs.gamma.value(ys), dtype=float)
        stop = _first(~(np.isfinite(gam) & (gam > 0.0)), ys.size)
        self.ys, self.gam = ys[:stop, None], gam[:stop, None]
        self.a = np.asarray(coeffs.q.endpoint_fn().value(self.ys), dtype=float)
        w = np.linspace(0.75, n + 3.25, 257)
        slope = self.dH(w)
        signs = np.sign(slope)
        flat = np.any(np.abs(slope) < 1e-280, axis=1)
        nonfinite = ~np.all(np.isfinite(slope), axis=1)
        stop = _first(nonfinite | flat | (np.max(signs, axis=1) != np.min(signs, axis=1)), stop)
        self.failed = float(ys[stop]) if stop < ys.size else None
        # the marks of the first failing state, when its rate passed
        self._failed_marks = self.z(w)[stop] if stop < len(slope) else None
        self.ys, self.gam, self.a = self.ys[:stop], self.gam[:stop], self.a[:stop]
        self.sign = signs[:stop, :1]
        ends = self.H(np.array([1.0, float(n + 3)]))
        self.lo, self.hi = np.min(ends, axis=1, keepdims=True), np.max(ends, axis=1, keepdims=True)

    def checked(self) -> "_Kernel":
        """This kernel when every state passed construction; otherwise raise
        what the first failing state raises on its own."""
        if self.failed is not None:
            _frame(self.coeffs, self.failed)  # a rate that is not positive
            z = self._failed_marks
            _require_finite(self.coeffs.h.dz(self.failed, z, 1), "dh/dz", y=self.failed, z=z)
            raise DegenerateKernelError(
                f"displacement map is not strictly monotone in the mark at y={self.failed}, n={self.n}"
            )
        return self

    def z(self, w):
        return self.a + self.sigma * np.asarray(w, dtype=float) / self.gam

    def H(self, w):
        return np.asarray(self.coeffs.h.value(self.ys, self.z(w)), dtype=float)

    def dH(self, w):
        return np.asarray(self.coeffs.h.dz(self.ys, self.z(w), 1), dtype=float) * self.sigma / self.gam

    def _stack_at(self, w, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Derivative stack (orders 0..order) of the density mu_n at the marks
        w, which broadcast against one row per state, with the stack of H in w
        (orders 0..order+1) it is built from.  A slope that vanishes raises
        for the first state that has one."""
        fwd = self.coeffs.h.z_stack(self.ys, self.z(w), order + 1)
        scale = 1.0
        for m in range(order + 2):
            fwd[m] = fwd[m] * scale
            scale *= self.sigma / self.gam
        singular = np.any(np.abs(fwd[1]) < 1e-280, axis=-1)
        if np.any(singular):
            _invert_values(fwd[:, int(np.argmax(singular))], slope_floor=0.0)
        inv = _invert_values(fwd, slope_floor=0.0)
        inv[0] = w  # inverse map W(u): rows 1..order+1 are its derivatives

        outer = self.phi.stack(w, order)
        comp = _compose_values(outer, inv[: order + 1])
        dW = self.sign * inv[1:]  # |W'| and its derivatives
        return leibniz_product(comp, dW), fwd

    def stack(self, u_pts, order: int) -> np.ndarray:
        """Derivative stack (orders 0..order) of the density mu_n(y, .) at
        displacement values u_pts, one row per state; zero outside each
        state's image window."""
        u, _ = np.broadcast_arrays(np.asarray(u_pts, dtype=float), self.ys)
        inside = (u > self.lo) & (u < self.hi)
        if not np.any(inside):
            return np.zeros((order + 1,) + u.shape)
        # a mark outside the window sits at the bracket's midpoint, solved from
        # the start, so each solve inside runs as it would alone
        mid = 0.5 * (0.75 + (self.n + 3.25))
        sgn = self.sign
        w_sol = _bracketed_newton(
            lambda w: sgn * self.H(w), lambda w: sgn * self.dH(w),
            np.where(inside, sgn * u, sgn * self.H(mid)),
            np.where(inside, 0.75, mid), np.where(inside, self.n + 3.25, mid), 1e-12,
            slope_floor=0.0,
        )
        return np.where(inside, self._stack_at(w_sol, order)[0], 0.0)

    def integrals(self, order: int, scale: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """L1 norms of the stack rows 0..order (shape (order+1, states)) and
        the mass of mu_n per state, by Gauss panels in the scaled coordinate
        (du = |H'(w)| dw, so thin exponential image windows cost nothing).
        The nodes are shared by every state; a node whose image falls on or
        outside a state's image window adds nothing.  `scale` multiplies the
        node counts."""
        w, v = _mass_nodes(self.n, scale)
        stack, fwd = self._stack_at(w, order)
        inside = (fwd[0] > self.lo) & (fwd[0] < self.hi)
        dens = np.where(inside, stack, 0.0) * (v * np.abs(fwd[1]))
        return np.sum(np.abs(dens), axis=-1), np.sum(dens[0], axis=-1)

    def mass(self) -> np.ndarray:
        """Quadrature mass per state, checked in state order against the
        construction bracket [n, n+2]."""
        return _bracket_checked(self.integrals(0)[1], self.ys[:, 0], self.n)


def _bracket_checked(total: np.ndarray, ys: np.ndarray, n: int) -> np.ndarray:
    """The masses `total` of the n-th kernel at the states `ys`, checked in
    state order against the construction bracket [n, n+2]."""
    slack = 1e-8 * (n + 3.0)
    outside = ~((n - slack <= total) & (total <= n + 2.0 + slack))
    if np.any(outside):
        j = int(np.argmax(outside))
        raise MassBracketError(
            f"kernel mass {float(total[j])!r} outside [{n}, {n + 2}] "
            f"at y={float(ys[j])}, n={n}"
        )
    return total


def mu_density(coeffs: CoefficientSet, y: float, n: int, u_grid) -> np.ndarray:
    """Density of the n-th filtered jump kernel in the displacement variable.

    Vanishes outside the image of the cutoff window under the displacement
    map; inside it equals phi_n(W(u)) |W'(u)| with W the scaled inverse map.
    """
    return _Kernel(coeffs, y, n).checked().stack(u_grid, 0)[0, 0]


def kernel_mass(coeffs: CoefficientSet, y: float, n: int) -> float:
    """Quadrature mass of the n-th filtered kernel at state y.

    Integrates the displacement density through the same inverse-map path the
    density uses (panelled in the scaled coordinate, so thin exponential
    image windows cost nothing), and checks the construction bracket
    [n, n+2]; the symmetric ramps make the exact value n+1.
    """
    return float(_Kernel(coeffs, y, n).checked().mass()[0])


def cutoff_window_mass(
    coeffs: CoefficientSet,
    y: float,
    n: int,
    z_interval: tuple[float, float] | None = None,
) -> float:
    """Mass of the cutoff in the scaled coordinate, optionally restricted to
    a mark interval (the filtered acceptance rate available to a truncated
    simulation): integral of phi_n over w(z_interval) intersect [1, n+3]."""
    gam, a, sigma = (float(v) for v in _frame(coeffs, y))
    w_lo, w_hi = 1.0, float(n + 3)
    if z_interval is not None:
        bounds = sorted(
            (
                gam * sigma * (float(z_interval[0]) - a),
                gam * sigma * (float(z_interval[1]) - a),
            )
        )
        w_lo = max(w_lo, bounds[0])
        w_hi = min(w_hi, bounds[1])
    if w_hi <= w_lo:
        return 0.0
    phi = make_cutoff(n, coeffs.k)
    # integrate ramp pieces separately so panel edges sit on the joins;
    # the plateau piece is exact
    total = 0.0
    for lo, hi in ((w_lo, min(w_hi, 2.0)), (max(w_lo, n + 2.0), w_hi)):
        if hi > lo:
            w, v = gauss_panels(lo, hi, 64, 2)
            total += float(np.sum(v * phi.value(w)))
    plateau_lo, plateau_hi = max(w_lo, 2.0), min(w_hi, float(n + 2))
    if plateau_hi > plateau_lo:
        total += plateau_hi - plateau_lo
    return total


def kernel_sobolev_audit(
    coeffs: CoefficientSet,
    y_grid,
    n_values,
    theta: float,
) -> dict:
    """Sobolev-norm audit of the filtered kernels.

    For each audit state and kernel index, integrates |d^l mu_n/du^l| for
    l = 0..k through the scaled-coordinate parametrization, forms the ratio
    norm/mass, and fits the exponential profile in n.  The declared budget
    theta passes when the tail half of the n-range stays within twice the
    head half's envelope constant (`model._envelope`, the rule of the
    inversion-budget audit too).  The indices are read by the rule of
    `make_kernels`: positive, distinct integers, audited in ascending order.
    Each index is one block over every audit state, so a failing state
    raises after the integrals of the states before it, as a state-by-state
    audit meets it.  A refinement check recomputes the worst entry at doubled
    quadrature.
    `"masses"` holds the mass integrated at every audit state, one row per
    index: each entry is that state's `kernel_mass`, bit for bit (a block's
    rows are its states' blocks of one), and after the audit the rows are
    checked against the bracket [n, n+2] as a loop of those calls meets them.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    n_values = list(_kernel_indices(n_values))
    _check_audit_indices(n_values)
    _check_theta(theta)
    if y_grid.size == 0:
        raise ContractError("kernel audit needs at least one audit state")
    k = coeffs.k

    norm = np.zeros((len(n_values), y_grid.size))
    masses = np.zeros_like(norm)
    for jn, n in enumerate(n_values):
        kernel = _Kernel(coeffs, y_grid, n)
        norms, mass = kernel.integrals(k)
        kernel.checked()
        norm[jn], masses[jn] = np.sum(norms, axis=0), mass
    table = norm / masses

    per_n, _, _, fitted_c, passed, iw = _envelope(table, y_grid, coeffs.p, n_values, theta)
    ns = np.asarray(n_values, dtype=float)
    slope_fit = np.polyfit(ns, np.log(np.maximum(per_n, 1e-300)), 1)[0]
    worst_y, worst_n = float(y_grid[iw[1]]), n_values[iw[0]]
    norm_coarse = float(norm[iw])
    norm_fine = float(np.sum(_Kernel(coeffs, worst_y, worst_n).checked().integrals(k, 2)[0]))
    refine_change = abs(norm_fine - norm_coarse) / max(norm_fine, 1e-300)
    for n, row in zip(n_values, masses):
        _bracket_checked(row, y_grid, n)

    return {
        "name": "kernel_sobolev",
        "passed": bool(passed),
        "theta": float(theta),
        "fitted_theta": float(slope_fit),
        "fitted_C": fitted_c,
        "per_n_ratio": [float(v) for v in per_n],
        "n_values": n_values,
        "ratio_table": table.tolist(),
        "refinement_change": float(refine_change),
        "worst": {"y": worst_y, "n": worst_n},
        "masses": masses.tolist(),
    }


def conditional_jump_density(
    coeffs: CoefficientSet,
    y: float,
    n: int,
    grid,
) -> GridDensity:
    """Normalized density of the post-jump state after a filtered jump.

    The post-jump state is y + u with displacement density mu_n(y, u)/mass;
    returned on the given uniform state grid with its full derivative stack.
    Raises when the grid captures less than 99% of the kernel mass.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 8:
        raise ContractError("conditional density needs a 1-d grid with >= 8 nodes")
    spac = np.diff(grid)
    if np.max(np.abs(spac - spac[0])) > 1e-9 * abs(spac[0]):
        raise ContractError("conditional density grid must be uniform")
    kernel = _Kernel(coeffs, float(y), n).checked()
    stack = kernel.stack(grid - float(y), coeffs.k)[:, 0]
    grid_mass = float(np.trapezoid(stack[0], dx=float(spac[0])))
    true_mass = float(kernel.mass()[0])
    if grid_mass < 0.99 * true_mass:
        raise ResolutionError(
            f"state grid captures only {grid_mass / true_mass:.1%} of the kernel mass"
        )
    return GridDensity(float(grid[0]), float(grid[-1]), stack / grid_mass, 0.0)


@dataclass(frozen=True)
class KernelDecomposition:
    """A model paired with its family of filtered kernels.

    Carries the declared kernel indices, the declared Sobolev budget theta,
    and the build-time audit outcome.  The cutoffs are smooth of the model's
    own order `coeffs.k`, the order the certificate's predicted decay uses.
    The simulator consumes `acceptance`; the diagnostics consume theta and k.
    """

    coeffs: CoefficientSet
    n_values: tuple[int, ...]
    theta: float | None = None
    audit: dict = field(default_factory=dict)
    # (n, trunc) pairs whose filtered rate passed `_audit_rate`
    _rate_audited: set = field(default_factory=set, init=False, repr=False, compare=False)

    def acceptance(self, n: int, y, z) -> np.ndarray:
        """Filter ratio d_n(y, z) in [0, 1]: the probability that a jump with
        mark z from state y is kept by the n-th filtered kernel."""
        z = np.asarray(z, dtype=float)
        gam, a, sigma = _frame(self.coeffs, np.asarray(y, dtype=float))
        w = gam * sigma * (z - a)
        phi = make_cutoff(n, self.coeffs.k)
        rho = np.asarray(self.coeffs.q.density.value(z), dtype=float)
        ratio = np.where(rho > 0, phi.value(w) / np.maximum(rho, 1e-300), 0.0)
        if np.any(ratio > 1.0 + 1e-6):
            raise InvalidModelError(
                "filter ratio exceeded 1: mark density below Lebesgue on a cutoff window"
            )
        return np.clip(ratio, 0.0, 1.0)

    def _audit_rate(self, coeffs: CoefficientSet, n: int, trunc: int) -> None:
        """Refuse to filter a simulation of `coeffs` on truncation `trunc`
        through the n-th kernel unless the decomposition belongs to the model,
        declares n, and the truncated marks leave the full rate n on the audit
        states, `coeffs.y_audit_states(RATE_AUDIT_STATES)`.  The rate
        quadratures run once per passing (n, trunc)."""
        if self.coeffs is not coeffs:
            raise ContractError("kernel decomposition was built for a different model")
        _check_kernel_index(n, self.n_values)
        if (n, trunc) in self._rate_audited:
            return
        interval = coeffs.q.trunc_interval(trunc)
        worst = min(
            cutoff_window_mass(coeffs, float(y), n, interval)
            for y in coeffs.y_audit_states(RATE_AUDIT_STATES)
        )
        if worst < n - 1e-6:
            raise ContractError(
                f"truncation window clips the filtered kernel: rate {worst:.6f} < {n}"
            )
        self._rate_audited.add((n, trunc))

    def describe(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "cutoff_order": self.coeffs.k,
            "theta": self.theta,
            "audit": self.audit,
        }


def make_kernels(
    coeffs: CoefficientSet,
    n_values,
    theta: float | None = None,
) -> KernelDecomposition:
    """Build and audit the filtered kernel family for a model.

    Audits the states ``coeffs.y_audit_states(RATE_AUDIT_STATES)`` (25 of
    the default 241; ``"audited_states"`` counts them) at the largest
    index: positive rate, strictly monotone displacement map, and a finite
    mark density >= 1 on the cutoff window (needed for the filter ratio to
    be a probability).
    """
    n_values = _kernel_indices(n_values)
    if theta is not None:
        _check_theta(theta)
    states = coeffs.y_audit_states(RATE_AUDIT_STATES)
    # the states that pass construction have their density checked first, so
    # failures come in state order
    kernel = _Kernel(coeffs, states, n_values[-1])
    z = kernel.z(np.linspace(1.0, n_values[-1] + 3.0, 257))
    rho = coeffs.q.density_at(z)
    kernel.checked()
    density_floor = float(np.min(rho))
    if density_floor < 1.0 - 1e-9:
        raise InvalidModelError(
            f"mark density falls to {density_floor} on a cutoff window; "
            "the filter ratio would exceed 1"
        )
    audit = {"density_floor": float(density_floor), "audited_states": int(states.size)}
    return KernelDecomposition(coeffs, n_values, theta, audit)
