"""Model container and assumption audits for the jump dynamics.

A model is a drift b, a state-dependent jump rate gamma, a jump amplitude
h(y, z), a dominating jump-size bound eta(z), and a mark measure q(dz) on a
one-dimensional support.  The dynamics move the state by b between jumps and
by h(y, z) at the marks of a Poisson measure thinned at rate gamma(y).

Three audits gate everything downstream:

* `check_A` - smoothness budget: derivatives of b and gamma up to order k are
  finite on the audit grid, every y-derivative of h up to order k is dominated
  by eta, and eta is integrable (orders 1 and p) against q.
* `check_S` - slope condition: 1 + dh/dy >= c0 > 0, so the post-jump map is
  strictly increasing and invertible.
* `check_B` - inversion budget for the regularizing kernels: the rate-scaled
  integral of |dh/dz|^(-2k) over the growing mark windows stays below
  C (1 + |y|^p) e^(theta n).

Audits are grid-based by design: reports carry the witness points so a failed
certificate is reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateKernelError, InvalidModelError
from .presets import Described, Function1D, JumpAmplitude, constant


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


@dataclass(frozen=True)
class QuadratureSpec:
    """Panelled Gauss-Legendre budget for mark-space integrals.

    ``nodes`` is the total node count split over ``panels`` equal panels;
    ``horizon`` truncates infinite supports (defaults to a multiple of the
    largest declared truncation).
    """

    nodes: int = 256
    panels: int = 8
    horizon: float | None = None


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre rule on [-1, 1], computed once per n."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panels(lo, hi, nodes: int = 256, panels: int = 8):
    """Gauss-Legendre nodes and weights on [lo, hi] split into equal panels.

    `lo` and `hi` broadcast against each other; each of their entries is one
    interval, and the nodes and weights come back with one row per interval,
    shape (..., panels * ceil(nodes / panels)), from one affine map of the
    cached Legendre rule.  A scalar call returns row 0 of a broadcast call
    bit for bit.  A node or panel count below 1 is refused, not rounded up.

    >>> z, w = gauss_panels(np.array([0.0, 1.0]), np.array([1.0, 3.0]), nodes=8, panels=2)
    >>> z.shape, w.shape
    ((2, 8), (2, 8))
    >>> z0, w0 = gauss_panels(0.0, 1.0, nodes=8, panels=2)
    >>> z0.shape, bool(np.array_equal(z0, z[0]) and np.array_equal(w0, w[0]))
    ((8,), True)
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    empty = np.flatnonzero(~(hi > lo))
    if empty.size:
        raise ContractError(f"empty quadrature interval [{lo.flat[empty[0]]}, {hi.flat[empty[0]]}]")
    if not (nodes >= 1 and panels >= 1):
        raise ContractError(f"quadrature needs nodes and panels >= 1, got {nodes!r} and {panels!r}")
    per = max(2, int(math.ceil(nodes / panels)))
    x, w = _legendre(per)
    edges = np.linspace(lo, hi, panels + 1, axis=-1)[..., None]
    a, b = edges[..., :-1, :], edges[..., 1:, :]
    half = 0.5 * (b - a)
    shape = lo.shape + (panels * per,)
    return (0.5 * (a + b) + half * x).reshape(shape), (half * w).reshape(shape)


@dataclass(frozen=True)
class JumpMeasureSpec(Described):
    """Mark measure q(dz): support interval, Lebesgue density, truncations.

    ``support`` may be half-infinite or the whole line.  ``truncations`` are
    increasing positive extents measured from the finite endpoint (or from 0
    on the whole line): the i-th truncation G_i is the support cut to that
    extent, and carries finite q-mass.  ``endpoint`` is the state-dependent
    start a(y) of the window where q dominates Lebesgue measure; it defaults
    to the finite endpoint of the support.
    """

    support: tuple[float, float]
    density: Function1D = field(default_factory=lambda: constant(1.0))
    truncations: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    endpoint: Function1D | None = None

    def __post_init__(self):
        lo, hi = self.support
        if not (hi > lo):
            raise ContractError("mark support must be a nonempty interval")
        if math.isinf(lo) and math.isinf(hi):
            pass
        elif math.isinf(lo) == math.isinf(hi):
            raise ContractError("mark support must be half-infinite or the whole line")
        ext = tuple(float(t) for t in self.truncations)
        if not ext or any(t <= 0 for t in ext) or any(
            b <= a for a, b in zip(ext[:-1], ext[1:])
        ):
            raise ContractError("truncations must be positive and strictly increasing")
        object.__setattr__(self, "truncations", ext)

    @property
    def orientation(self) -> str:
        lo, hi = self.support
        if math.isinf(lo) and math.isinf(hi):
            return "both"
        return "right" if math.isinf(hi) else "left"

    @property
    def direction(self) -> float:
        """-1 when marks extend leftwards from the anchor, +1 otherwise."""
        return -1.0 if self.orientation == "left" else 1.0

    @property
    def anchor(self) -> float:
        """Finite endpoint of the support (0 on the whole line)."""
        lo, hi = self.support
        if self.orientation == "right":
            return lo
        if self.orientation == "left":
            return hi
        return 0.0

    def endpoint_fn(self) -> Function1D:
        return self.endpoint if self.endpoint is not None else constant(self.anchor)

    def trunc_interval(self, i: int) -> tuple[float, float]:
        """Finite interval of the i-th truncation (1-based index)."""
        if not (1 <= i <= len(self.truncations)):
            raise ContractError(
                f"truncation index {i} outside 1..{len(self.truncations)}"
            )
        return self._cut(self.truncations[i - 1])

    def resolve_trunc(self, i: int | None) -> int:
        """Truncation index i, or the widest truncation when i is None."""
        return len(self.truncations) if i is None else i

    def _cut(self, ext: float) -> tuple[float, float]:
        """The support cut to extent ext from the anchor."""
        if self.orientation == "right":
            return (self.anchor, self.anchor + ext)
        if self.orientation == "left":
            return (self.anchor - ext, self.anchor)
        return (-ext, ext)

    def interval_mass(self, lo: float, hi: float) -> float:
        z, w = gauss_panels(lo, hi, 512, 16)
        rho = np.asarray(self.density.value(z), dtype=float)
        if np.any(rho < 0):
            raise InvalidModelError("mark density is negative inside the support")
        return float(np.sum(w * rho))

    def trunc_mass(self, i: int) -> float:
        lo, hi = self.trunc_interval(i)
        return self.interval_mass(lo, hi)

    def quad_horizon(self, spec: QuadratureSpec) -> float:
        if spec.horizon is not None:
            return float(spec.horizon)
        return max(40.0, 4.0 * self.truncations[-1])


@dataclass(frozen=True)
class CoefficientSet(Described):
    """All coefficients of one model plus its audit window.

    ``k`` is the smoothness budget (derivative stacks run to k+1), ``p`` the
    polynomial weight power used by the audits, ``c0_tol`` the smallest
    admissible slope of the post-jump map.  The audit window is the y-range
    on which grid audits (sup bounds for rates, drift, slopes) are taken.
    """

    config_keys = {
        "drift": "b",
        "rate": "gamma",
        "amplitude": "h",
        "envelope": "eta",
        "marks": "q",
        "window": "y_window",
    }

    b: Function1D
    gamma: Function1D
    h: JumpAmplitude
    eta: Function1D
    q: JumpMeasureSpec
    k: int = 2
    p: float = 2.0
    c0_tol: float = 1e-8
    y_window: tuple[float, float] = (-10.0, 10.0)
    audit_points: int = 241
    label: str = ""

    def __post_init__(self):
        if self.k < 1 or self.k > 6:
            raise ContractError("smoothness budget k must be in 1..6")
        if self.p < 1:
            raise ContractError("weight power p must be >= 1")
        if not (self.y_window[1] > self.y_window[0]):
            raise ContractError("empty audit window")
        if self.audit_points < 1:
            raise ContractError("audit_points must be >= 1")

    def y_audit_grid(self) -> np.ndarray:
        return np.linspace(self.y_window[0], self.y_window[1], self.audit_points)

    def z_audit_grid(self) -> np.ndarray:
        lo, hi = self.q.trunc_interval(len(self.q.truncations))
        pad = 1e-9 * max(1.0, abs(hi - lo))
        return np.linspace(lo + pad, hi, self.audit_points)

    def _grid_sup(self, fn: Function1D, order: int, tag: str) -> float:
        grid = self.y_audit_grid()
        vals = np.asarray(fn.derivative(grid, order), dtype=float)
        _require_finite(vals, grid, f"{tag} derivative {order}", "y")
        return float(np.max(np.abs(vals)))

    def b_prime_sup(self) -> float:
        return self._grid_sup(self.b, 1, "drift")

    def gamma_sup(self) -> float:
        return self._grid_sup(self.gamma, 0, "jump rate")

    def gamma_inf(self) -> float:
        grid = self.y_audit_grid()
        vals = np.asarray(self.gamma.value(grid), dtype=float)
        _require_finite(vals, grid, "jump rate", "y")
        return float(np.min(vals))

    def min_drift_index(self) -> int:
        """Smallest admissible drift surrogate index i0 = 2 sup|b'| (>= 1)."""
        return max(1, int(math.ceil(2.0 * self.b_prime_sup() - 1e-12)))


@dataclass
class AssumptionReport:
    """Outcome of one audit: verdict, fitted constants, witness points."""

    name: str
    passed: bool
    constants: dict
    worst: dict
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonable(dataclasses.asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _pair_grids(y_grid, z_grid):
    y = np.asarray(y_grid, dtype=float)
    z = np.asarray(z_grid, dtype=float)
    if y.ndim != 1 or z.ndim != 1 or y.size == 0 or z.size == 0:
        raise ContractError("audit grids must be nonempty 1-d arrays")
    return y[:, None], z[None, :]


def check_S(coeffs: CoefficientSet) -> AssumptionReport:
    """Slope audit: min over the audit grid of 1 + dh/dy must exceed c0_tol.

    A positive verdict certifies (on the grid) that y -> y + h(y, z) is
    strictly increasing, which is what every inverse-map computation and the
    density transport rely on.
    """
    y_grid, z_grid = coeffs.y_audit_grid(), coeffs.z_audit_grid()
    tol = coeffs.c0_tol
    yy, zz = _pair_grids(y_grid, z_grid)
    slope = 1.0 + np.asarray(coeffs.h.dy(yy, zz, 1), dtype=float)
    if not np.all(np.isfinite(slope)):
        iy, iz = np.argwhere(~np.isfinite(slope))[0]
        raise InvalidModelError(
            f"jump amplitude slope non-finite at y={float(np.ravel(yy)[iy])}, "
            f"z={float(np.ravel(zz)[iz])}"
        )
    idx = np.unravel_index(np.argmin(slope), slope.shape)
    c0 = float(slope[idx])
    report = AssumptionReport(
        name="slope",
        passed=bool(c0 > tol),
        constants={"c0": c0, "tol": tol},
        worst={"y": float(np.ravel(y_grid)[idx[0]]), "z": float(np.ravel(z_grid)[idx[1]])},
        details={"grid_shape": list(slope.shape)},
    )
    return report


def check_A(coeffs: CoefficientSet, quadrature: QuadratureSpec | None = None) -> AssumptionReport:
    """Smoothness-budget audit for orders 0..k.

    Fails when some y-derivative of h escapes the declared bound eta on the
    grid, when eta is not q-integrable at powers 1 and p on the declared
    horizon, or when b, gamma or a y-factor of h declares a `smooth_order`
    below k (listed under ``details["smooth_order_below_k"]``).  Non-finite
    coefficient values raise immediately.
    """
    y_grid, z_grid = coeffs.y_audit_grid(), coeffs.z_audit_grid()
    quadrature = quadrature or QuadratureSpec()
    yy, zz = _pair_grids(y_grid, z_grid)

    margins = {}
    worst = {"l": None, "y": None, "z": None, "margin": -np.inf}
    eta_on_grid = np.asarray(coeffs.eta.value(np.ravel(zz)), dtype=float)
    if not np.all(np.isfinite(eta_on_grid)):
        bad = np.ravel(zz)[~np.isfinite(eta_on_grid)][0]
        raise InvalidModelError(f"eta non-finite at z={float(bad)}")
    for l in range(coeffs.k + 1):
        dval = np.asarray(coeffs.h.dy(yy, zz, l), dtype=float)
        if not np.all(np.isfinite(dval)):
            iy, iz = np.argwhere(~np.isfinite(dval))[0]
            raise InvalidModelError(
                f"jump amplitude derivative {l} non-finite at "
                f"y={float(np.ravel(y_grid)[iy])}, z={float(np.ravel(z_grid)[iz])}"
            )
        margin = np.abs(dval) - eta_on_grid[None, :]
        idx = np.unravel_index(np.argmax(margin), margin.shape)
        margins[l] = float(margin[idx])
        if margin[idx] > worst["margin"]:
            worst = {
                "l": l,
                "y": float(np.ravel(y_grid)[idx[0]]),
                "z": float(np.ravel(z_grid)[idx[1]]),
                "margin": float(margin[idx]),
            }

    sup_b = [coeffs._grid_sup(coeffs.b, l, "drift") for l in range(coeffs.k + 1)]
    sup_gamma = [coeffs._grid_sup(coeffs.gamma, l, "jump rate") for l in range(coeffs.k + 1)]

    horizon = coeffs.q.quad_horizon(quadrature)
    z, w = gauss_panels(*coeffs.q._cut(horizon), quadrature.nodes, quadrature.panels)
    rho = np.asarray(coeffs.q.density.value(z), dtype=float)
    eta_q = np.asarray(coeffs.eta.value(z), dtype=float)
    eta_l1 = float(np.sum(w * rho * np.abs(eta_q)))
    eta_lp = float(np.sum(w * rho * np.abs(eta_q) ** coeffs.p))

    dominated = all(m <= 1e-12 for m in margins.values())
    integrable = np.isfinite(eta_l1) and np.isfinite(eta_lp)
    details = {"domination_margins": margins, "quad_horizon": horizon}
    orders = {
        "b": coeffs.b.smooth_order, "gamma": coeffs.gamma.smooth_order, "h": coeffs.h.smooth_order_y
    }
    below = {name: o for name, o in orders.items() if o is not None and o < coeffs.k}
    if below:
        details["smooth_order_below_k"] = below
    return AssumptionReport(
        name="smoothness_budget",
        passed=bool(dominated and integrable and not below),
        constants={
            "eta_L1": eta_l1,
            "eta_Lp": eta_lp,
            "p": coeffs.p,
            "sup_b_derivs": sup_b,
            "sup_gamma_derivs": sup_gamma,
        },
        worst=worst,
        details=details,
    )


def _require_positive(value: float, name: str) -> None:
    """ContractError unless `value`, the setting `name`, is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ContractError(f"{name} must be positive and finite, got {value!r}")


def _check_horizon(t_end: float, name: str = "t_end", finite: bool = True) -> None:
    """ContractError unless the horizon `name` is >= 0 and, where `finite`,
    finite: a run to an infinite horizon never ends (every thinning
    candidate lands before it).  The simulator, the density evolution and
    the config stanzas all check their horizons here; only `sample_tau_n`,
    which stops at its first kept jump, may wait without one."""
    if not t_end >= 0.0:
        raise ContractError(f"{name} must be >= 0, got {t_end!r}: a horizon cannot be negative")
    if finite and math.isinf(t_end):
        raise ContractError(
            f"{name} must be finite, got {t_end!r}: a run to an infinite horizon never ends"
        )


def _check_drift_index(coeffs: CoefficientSet, i: int) -> None:
    """ContractError unless the drift surrogate index i is at least
    i0 = `coeffs.min_drift_index()`: from there on the drift-step map
    y -> y + b(y)/i is increasing with slope >= 1/2.  The simulator, the
    inverse maps and the adjoint operator all check i here."""
    if i < (i0 := coeffs.min_drift_index()):
        raise ContractError(f"drift surrogate index i={i} below i0={i0} (2 sup|b'|, at least 1)")


def _require_finite(vals, points: np.ndarray, tag: str, var: str) -> None:
    """InvalidModelError naming the coefficient `tag` and the first of
    `points` (C order) where its values `vals` are not finite."""
    bad = ~np.isfinite(np.broadcast_to(np.asarray(vals, dtype=float), points.shape))
    if np.any(bad):
        raise InvalidModelError(f"{tag} non-finite at {var}={float(points[bad][0])!r}")


def _frame(coeffs: CoefficientSet, y):
    """Scaled-coordinate frame at state(s) y: (gamma, a, sigma), broadcast
    over y.  w(z) = gamma * sigma * (z - a); marks extend in the sigma
    direction.  The rate must be positive: it scales the coordinate."""
    gam = np.asarray(coeffs.gamma.value(y), dtype=float)
    if not np.all(np.isfinite(gam) & (gam > 0.0)):
        raise InvalidModelError(f"jump rate must be positive for kernels; gamma({y})={gam}")
    a = np.asarray(coeffs.q.endpoint_fn().value(y), dtype=float)
    return gam, a, coeffs.q.direction


def _envelope(table: np.ndarray, y: np.ndarray, p: float, ns, theta: float):
    """The exponential-budget rule of the kernel audits, on a table of
    constants with one row per kernel index in `ns` and one column per state
    in `y`.  Each column is divided by 1 + |y|^p, each row's maximum is
    enveloped by e^(-theta n), and the budget holds when the tail half of
    the n-range stays within twice the head half's maximum.

    Returns (per_n, head, tail, fitted_C, passed, worst), with `worst` the
    (row, column) of the largest weighted entry.
    """
    scaled = table / (1.0 + np.abs(y) ** p)[None, :]
    per_n = np.max(scaled, axis=1)
    enveloped = per_n * np.exp(-theta * np.asarray(ns, dtype=float))
    half = max(1, len(ns) // 2)
    head, tail = float(np.max(enveloped[:half])), float(np.max(enveloped[half:]))
    worst = np.unravel_index(np.argmax(scaled), scaled.shape)
    return per_n, head, tail, float(np.max(enveloped)), tail <= 2.0 * head, worst


# audit states per broadcast in check_B: blocks rather than the whole grid,
# so a failure among the first states ends the audit early and the
# (states, n, nodes) temporaries stay small
AUDIT_BLOCK_STATES = 16


def check_B(
    coeffs: CoefficientSet,
    n_max: int,
    theta: float,
    quadrature: QuadratureSpec | None = None,
) -> AssumptionReport:
    """Inversion-budget audit for the regularizing kernels.

    For each kernel index n and audit state y, integrates |dh/dz|^(-2k) over
    the window of length n/gamma(y) starting at the Lebesgue endpoint a(y)
    (mirrored when marks extend leftwards), scales by gamma(y)/n and the
    polynomial weight (1+|y|^p), and checks the profile against the declared
    exponential budget e^(theta n): the tail half of the n-range must not
    exceed twice the head half's envelope constant.  Also audits that the
    mark density dominates Lebesgue measure on the windows, which the kernel
    construction needs.

    The states are audited in blocks of `AUDIT_BLOCK_STATES`: one broadcast
    `gauss_panels` call maps the rule onto every (state, n) window of a block,
    and dh/dz, the integrand and the mark density are evaluated once on the
    (states, n, nodes) array.  Failures are raised in state order, as a
    state-by-state audit meets them.  Within a state, a non-positive rate
    (`_frame`'s InvalidModelError) comes first, then an empty window
    (ContractError), then the first n, then node, where |dh/dz| < 1e-12
    (DegenerateKernelError).  A failure at a later state of a block never
    pre-empts one at an earlier state, and no block after the failing one
    is evaluated.  A mark density that is not finite on a block's windows
    raises InvalidModelError after that block's slope check.
    """
    if n_max < 2:
        raise ContractError("check_B needs n_max >= 2")
    if theta < 0:
        raise ContractError("theta must be >= 0")
    quadrature = quadrature or QuadratureSpec()
    y = coeffs.y_audit_grid()
    ns = np.arange(1, n_max + 1)
    sigma = coeffs.q.direction

    values = np.zeros((n_max, y.size))
    density_floor = np.inf
    for start in range(0, y.size, AUDIT_BLOCK_STATES):
        ys = y[start:start + AUDIT_BLOCK_STATES]
        gam = np.asarray(coeffs.gamma.value(ys), dtype=float)
        a = np.asarray(coeffs.q.endpoint_fn().value(ys), dtype=float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            end = a + sigma * (ns / gam[:, None])
        lo, hi = np.broadcast_arrays(*((a, end) if sigma > 0 else (end, a)))
        # the window grows with n, so a state's windows are all nonempty when its first one is
        ok = np.isfinite(gam) & (gam > 0.0) & (hi[:, 0] > lo[:, 0])
        stop = ys.size if ok.all() else int(np.argmin(ok))
        if stop:
            z, w = gauss_panels(lo[:stop], hi[:stop], quadrature.nodes, quadrature.panels)
            slope = np.abs(np.asarray(coeffs.h.dz(ys[:stop, None, None], z, 1), dtype=float))
            vanishing = slope < 1e-12
            if np.any(vanishing):
                j, n, m = np.unravel_index(np.argmax(vanishing), vanishing.shape)
                raise DegenerateKernelError(
                    f"dh/dz vanishes inside the inversion window at y={ys[j]}, z={float(z[j, n, m])}"
                )
            table = gam[:stop, None] / ns * np.sum(w * slope ** (-2 * coeffs.k), axis=-1)
            values[:, start:start + stop] = table.T
            rho = np.asarray(coeffs.q.density.value(z), dtype=float)
            _require_finite(rho, z, "mark density", "z")
            density_floor = min(density_floor, float(np.min(rho)))
        if stop < ys.size:
            # the first state whose frame or window fails raises what it
            # raises on its own: `_frame` for the rate, else the empty window
            _frame(coeffs, ys[stop])
            gauss_panels(lo[stop, 0], hi[stop, 0])

    per_n, head, tail, fitted_c, budget_ok, iworst = _envelope(
        values, y, coeffs.p, ns, theta
    )
    lebesgue_ok = density_floor >= 1.0 - 1e-9
    return AssumptionReport(
        name="inversion_budget",
        passed=bool(budget_ok and lebesgue_ok),
        constants={
            "theta": theta,
            "fitted_C": fitted_c,
            "head_envelope": head,
            "tail_envelope": tail,
            "density_floor": density_floor,
            "k": coeffs.k,
            "p": coeffs.p,
        },
        worst={"n": int(iworst[0] + 1), "y": float(y[iworst[1]])},
        details={
            "per_n_constant": [float(v) for v in per_n],
            "n_max": n_max,
            "budget_ok": bool(budget_ok),
            "lebesgue_ok": bool(lebesgue_ok),
        },
    )
