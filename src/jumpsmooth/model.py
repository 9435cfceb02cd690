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
from .presets import Described, Function1D, JumpAmplitude, _plain, constant


# The audit resolution, fixed for every model: `check_S` and `check_A` read
# h on the AUDIT_POINTS x AUDIT_POINTS (y, z) grid, and `check_S` passes a
# smallest slope 1 + dh/dy above SLOPE_TOL.
AUDIT_POINTS = 241
SLOPE_TOL = 1e-8

# Gauss-Legendre panels of the evolution's mark quadrature
# (`EvolutionConfig.quad_nodes` nodes in all).
QUAD_PANELS = 8

# The jump rate's reach: at every state an engine reads, the rate lies in
# [0, RATE_MARGIN * gamma_sup], the thinning bound (`CoefficientSet.rate_bound`).
RATE_MARGIN = 1.05


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre rule on [-1, 1], computed once per n:
    numpy's `leggauss`, the nodes as eigenvalues of the Jacobi matrix (Golub
    & Welsch 1969) polished by one Newton step."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panels(lo, hi, nodes: int = 256, panels: int = 8):
    """Gauss-Legendre nodes and weights on [lo, hi] split into equal panels.

    `lo` and `hi` broadcast against each other; each of their entries is one
    interval, and the nodes and weights come back with one row per interval,
    shape (..., nodes), from one affine map of the cached Legendre rule.  A
    scalar call returns row 0 of a broadcast call bit for bit.  A node or
    panel count that is not an integer, or is below 1, is refused, as is a
    node count that does not split into `panels` panels of at least 2 nodes
    each: no count is rounded up.  The defaults, 256 nodes in 8 panels, are
    the mark rule of the audits `check_A` and `check_B`.

    >>> z, w = gauss_panels(np.array([0.0, 1.0]), np.array([1.0, 3.0]), nodes=8, panels=2)
    >>> z.shape, w.shape
    ((2, 8), (2, 8))
    >>> z0, w0 = gauss_panels(0.0, 1.0, nodes=8, panels=2)
    >>> z0.shape, bool(np.array_equal(z0, z[0]) and np.array_equal(w0, w[0]))
    ((8,), True)
    """
    _require_int(nodes, "quadrature nodes")
    _require_int(panels, "quadrature panels")
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    empty = np.flatnonzero(~(hi > lo))
    if empty.size:
        raise ContractError(f"empty quadrature interval [{lo.flat[empty[0]]}, {hi.flat[empty[0]]}]")
    if not (nodes >= 1 and panels >= 1):
        raise ContractError(f"quadrature needs nodes and panels >= 1, got {nodes!r} and {panels!r}")
    _check_panel_split(nodes, panels, "quadrature nodes")
    per = nodes // panels
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
    increasing, positive and finite extents measured from the finite
    endpoint (or from 0 on the whole line): the i-th truncation G_i is the
    support cut to that extent, and carries finite q-mass.  ``endpoint`` is
    the state-dependent start a(y) of the window where q dominates Lebesgue
    measure; it defaults to the finite endpoint of the support.  Every reader of the density goes
    through `density_at`, the one rule of q: finite and >= 0.
    """

    support: tuple[float, float]
    density: Function1D = field(default_factory=lambda: constant(1.0))
    truncations: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    endpoint: Function1D | None = None

    def __post_init__(self):
        lo, hi = self.support
        if not (hi > lo):
            raise ContractError("mark support must be a nonempty interval")
        if math.isfinite(lo) and math.isfinite(hi):
            raise ContractError("mark support must be half-infinite or the whole line")
        ext = tuple(float(t) for t in self.truncations)
        if not ext or not all(a < b for a, b in zip((0.0,) + ext, ext + (math.inf,))):
            raise ContractError("truncations must be finite, positive and strictly increasing")
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
        return math.fsum(e for e in self.support if math.isfinite(e))

    def endpoint_fn(self) -> Function1D:
        return self.endpoint if self.endpoint is not None else constant(self.anchor)

    def trunc_interval(self, i: int) -> tuple[float, float]:
        """Finite interval of the i-th truncation (1-based integer index)."""
        _require_int(i, "truncation index")
        if not (1 <= i <= len(self.truncations)):
            raise ContractError(
                f"truncation index {i} outside 1..{len(self.truncations)}"
            )
        return self._cut(self.truncations[i - 1])

    def resolve_trunc(self, i: int | None) -> int:
        """Truncation index i, or the widest truncation when i is None."""
        return len(self.truncations) if i is None else i

    def _cut(self, ext: float) -> tuple[float, float]:
        """The support cut to extent ext from the anchor, on either side: the
        side beyond a finite end is cut off by the support itself."""
        lo, hi = self.support
        return (max(lo, self.anchor - ext), min(hi, self.anchor + ext))

    def density_at(self, z) -> np.ndarray:
        """q's density at the marks z, the one rule of the mark measure:
        InvalidModelError naming the first mark (C order) where it is not
        finite or is negative."""
        return _require_nonnegative(self.density.value(z), "mark density", z=z)

    def interval_mass(self, lo: float, hi: float) -> float:
        z, w = gauss_panels(lo, hi, 512, 16)
        return float(np.sum(w * self.density_at(z)))

    def trunc_mass(self, i: int) -> float:
        lo, hi = self.trunc_interval(i)
        return self.interval_mass(lo, hi)


@dataclass(frozen=True)
class CoefficientSet(Described):
    """All coefficients of one model plus its audit window.

    ``k`` is the smoothness budget, an integer in 1..6 (derivative stacks run
    to k+1), and ``p`` the audits' polynomial weight power, finite and >= 1.
    The audit window is the y-range on which grid audits (sup bounds for
    rates, drift, slopes) are taken, on AUDIT_POINTS states; its ends and its
    width must be finite.
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
    y_window: tuple[float, float] = (-10.0, 10.0)
    label: str = ""

    def __post_init__(self):
        _require_int(self.k, "smoothness budget k")
        # the cutoffs' smoothstep ramps of order k (`kernels.make_cutoff`) hold to 3e-12
        # up to order 6: |S(u) + S(1 - u) - 1| on [0, 1] is 3e-11 at 7 and 2e-3 at 16
        if not 1 <= self.k <= 6:
            raise ContractError("smoothness budget k must be in 1..6")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ContractError(f"weight power p must be finite and >= 1, got {self.p!r}")
        _finite_window(self.y_window, "audit window")

    def y_audit_grid(self) -> np.ndarray:
        return np.linspace(self.y_window[0], self.y_window[1], AUDIT_POINTS)

    def y_audit_states(self, count: int) -> np.ndarray:
        """Every ``max(1, AUDIT_POINTS // count)``-th state of `y_audit_grid`,
        from the first: the states an audit of about `count` states reads
        (25 of the 241 for count 24, 10 for count 9)."""
        return self.y_audit_grid()[:: max(1, AUDIT_POINTS // count)]

    def z_audit_grid(self) -> np.ndarray:
        lo, hi = self.q.trunc_interval(len(self.q.truncations))
        pad = 1e-9 * max(1.0, abs(hi - lo))
        return np.linspace(lo + pad, hi, AUDIT_POINTS)

    def _grid_sup(self, fn: Function1D, order: int, tag: str) -> float:
        grid = self.y_audit_grid()
        vals = np.asarray(fn.derivative(grid, order), dtype=float)
        _require_finite(vals, f"{tag} derivative {order}", y=grid)
        return float(np.max(np.abs(vals)))

    def b_prime_sup(self) -> float:
        return self._grid_sup(self.b, 1, "drift")

    def gamma_sup(self) -> float:
        """The largest jump rate on the audit grid, where it must be finite
        and >= 0 (InvalidModelError naming the first state where it is not;
        a zero rate is legal): the anchor of `rate_bound`.  Taken once per
        model: every later call reuses the first."""
        return self._gamma_sup

    @functools.cached_property
    def _gamma_sup(self) -> float:
        grid = self.y_audit_grid()
        return float(np.max(_require_nonnegative(self.gamma.value(grid), "jump rate", y=grid)))

    def rate_bound(self) -> float:
        """RATE_MARGIN * `gamma_sup`: the thinning bound, and the top of `check_rate`."""
        return RATE_MARGIN * self.gamma_sup()

    def check_rate(self, y, gam=None) -> np.ndarray:
        """The jump rate at the states y (`gam`, its values there, where the
        caller has them) under the one reach rule of every state an engine
        reads: InvalidModelError naming the first state (C order) where it
        is not finite, is negative or is above `rate_bound`."""
        gam = self.gamma.value(y) if gam is None else gam
        return _require_nonnegative(gam, "jump rate", upper=self.rate_bound(), y=y)

    def min_drift_index(self) -> int:
        """Smallest admissible drift surrogate index i0 = 2 sup|b'| (>= 1),
        taken once per model: every later call reuses the first."""
        return self._min_drift_index

    @functools.cached_property
    def _min_drift_index(self) -> int:
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
        return _plain(dataclasses.asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def check_S(coeffs: CoefficientSet) -> AssumptionReport:
    """Slope audit: min over the audit grid of 1 + dh/dy must exceed SLOPE_TOL.

    A positive verdict certifies (on the grid) that y -> y + h(y, z) is
    strictly increasing, which is what every inverse-map computation and the
    density transport rely on.
    """
    y_grid, z_grid = coeffs.y_audit_grid(), coeffs.z_audit_grid()
    yy, zz = y_grid[:, None], z_grid[None, :]
    slope = 1.0 + np.asarray(coeffs.h.dy(yy, zz, 1), dtype=float)
    _require_finite(slope, "jump amplitude slope", y=yy, z=zz)
    idx = np.unravel_index(np.argmin(slope), slope.shape)
    c0 = float(slope[idx])
    return AssumptionReport(
        name="slope",
        passed=bool(c0 > SLOPE_TOL),
        constants={"c0": c0, "tol": SLOPE_TOL},
        worst={"y": float(y_grid[idx[0]]), "z": float(z_grid[idx[1]])},
        details={"grid_shape": list(slope.shape)},
    )


def check_A(coeffs: CoefficientSet) -> AssumptionReport:
    """Smoothness-budget audit for orders 0..k.

    Fails when some y-derivative of h escapes the declared bound eta on the
    grid, when eta is not q-integrable at powers 1 and p on the horizon
    max(40, 4 x the widest truncation) (256 Gauss nodes in 8 panels), or
    when b, gamma or a y-factor of h declares a `smooth_order` below k
    (listed under ``details["smooth_order_below_k"]``).  A coefficient that
    is not finite on the grid or at a quadrature node, a negative rate
    (`CoefficientSet.gamma_sup`) and a negative mark density
    (`JumpMeasureSpec.density_at`) raise InvalidModelError.
    """
    y_grid, z_grid = coeffs.y_audit_grid(), coeffs.z_audit_grid()
    yy, zz = y_grid[:, None], z_grid[None, :]

    margins = {}
    worst = {"l": None, "y": None, "z": None, "margin": -np.inf}
    eta_on_grid = np.asarray(coeffs.eta.value(z_grid), dtype=float)
    _require_finite(eta_on_grid, "eta", z=z_grid)
    for l in range(coeffs.k + 1):
        dval = np.asarray(coeffs.h.dy(yy, zz, l), dtype=float)
        _require_finite(dval, f"jump amplitude derivative {l}", y=yy, z=zz)
        margin = np.abs(dval) - eta_on_grid[None, :]
        idx = np.unravel_index(np.argmax(margin), margin.shape)
        margins[l] = float(margin[idx])
        if margin[idx] > worst["margin"]:
            worst = {
                "l": l,
                "y": float(y_grid[idx[0]]),
                "z": float(z_grid[idx[1]]),
                "margin": float(margin[idx]),
            }

    sup_b = [coeffs._grid_sup(coeffs.b, l, "drift") for l in range(coeffs.k + 1)]
    sup_gamma = [coeffs.gamma_sup()] + [
        coeffs._grid_sup(coeffs.gamma, l, "jump rate") for l in range(1, coeffs.k + 1)
    ]

    horizon = max(40.0, 4.0 * coeffs.q.truncations[-1])
    z, w = gauss_panels(*coeffs.q._cut(horizon))
    rho = coeffs.q.density_at(z)
    eta_q = np.asarray(coeffs.eta.value(z), dtype=float)
    _require_finite(eta_q, "eta", z=z)
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


def _require_int(value, name: str) -> None:
    """ContractError unless `value`, the setting `name`, is an integer (a
    bool is not): an integer setting is refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")


def _check_panel_split(nodes: int, panels: int, name: str) -> None:
    """ContractError unless `nodes`, the setting `name`, splits into `panels`
    equal panels of at least 2 nodes each."""
    if nodes % panels or nodes < 2 * panels:
        raise ContractError(
            f"{name} must split into {panels} panels of at least 2 nodes each, got {nodes}"
        )


def _require_positive(value: float, name: str) -> None:
    """ContractError unless `value`, the setting `name`, is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ContractError(f"{name} must be positive and finite, got {value!r}")


def _require_finite_number(value: float, name: str) -> None:
    """ContractError unless `value`, the setting `name`, is a finite number."""
    if not math.isfinite(value):
        raise ContractError(f"{name} must be finite, got {value!r}")


def _check_theta(theta: float) -> None:
    """ContractError unless the Sobolev budget theta is finite and >= 0: the
    one rule of `check_B`, `make_kernels`, the kernel audits and the
    `kernels` stanza."""
    if not (math.isfinite(theta) and theta >= 0.0):
        raise ContractError(f"theta must be finite and >= 0, got {theta!r}")


def _check_n_max(n_max: int) -> None:
    """ContractError unless `check_B`'s largest kernel index is at least 2,
    so that its budget has a head and a tail half."""
    if n_max < 2:
        raise ContractError("check_B needs n_max >= 2")


def _check_runs(runs: int) -> None:
    """ContractError unless the run count is at least 1: the one rule of
    `simulate_batch`, the certify band and the config stanzas."""
    if not runs >= 1:
        raise ContractError(f"runs must be at least 1, got {runs!r}")


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
    _require_int(i, "drift surrogate index i")
    if i < (i0 := coeffs.min_drift_index()):
        raise ContractError(f"drift surrogate index i={i} below i0={i0} (2 sup|b'|, at least 1)")


def _check_flow_step(max_step: float | None, i: int | None) -> None:
    """ContractError unless the drift flow's RK4 step `max_step` is None, or
    is positive and finite on the exact flow (`i` None): the one step rule
    of the simulator and the `simulation` stanza."""
    if max_step is not None and i is not None:
        raise ContractError(f"max_step={max_step!r} is the drift flow's RK4 step, "
                            f"and the drift-poissonized chain (i={i}) has no flow")
    if max_step is not None:
        _require_positive(max_step, "max_step")


# The rules below are the engines' own, kept here with the other setting
# checks so that `config` applies them to its stanzas without importing an
# engine.

BLOW_UP = 1e8  # |state| beyond this is a blow-up
# The decay fit needs this many usable frequencies.
MIN_FIT_POINTS = 10


def _density_grid(window: tuple[float, float], nodes: int, name: str) -> tuple[float, float]:
    """The window's ends, checked with the node count `name`: the one rule of
    every grid density (`GridDensity`, the sample densities and the
    `evolution` stanza), an integer of at least 8 on a window that
    `_finite_window` takes."""
    _require_int(nodes, name)
    if nodes < 8:
        raise ContractError(f"{name} must be at least 8, got {nodes!r}")
    return _finite_window(window, "density window")


def _finite_window(window: tuple[float, float], name: str) -> tuple[float, float]:
    """The ends of the window `name`, the one window rule of the model and
    every grid density: ContractError unless hi > lo and the width hi - lo
    is finite (so are both ends then, and no grid spacing overflows)."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(hi - lo) and hi > lo):
        raise ContractError(f"{name} must be finite with hi > lo, got {window!r}")
    return lo, hi


def _initial_states(x0, runs: int) -> np.ndarray:
    """`x0`, one initial state or one per run, broadcast to `runs` states.
    The one start rule, of every simulator entry point and config stanza:
    ContractError naming x0 unless it has such a shape and every state is
    finite and within +-BLOW_UP, beyond which a state has blown up."""
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0:
        _require_finite_number(float(x), "x0")
    try:
        x = np.broadcast_to(x, (runs,))
    except ValueError:
        raise ContractError(
            f"x0 must be one state or {runs} states, got shape {x.shape}"
        ) from None
    bad = runs - int(np.count_nonzero(np.isfinite(x)))
    if bad:
        raise ContractError(f"x0 must be finite: {bad} of {runs} initial states are not")
    beyond = np.flatnonzero(np.abs(x) > BLOW_UP)
    if beyond.size:
        raise ContractError(
            f"x0 must lie within +-{BLOW_UP:g}: {beyond.size} of {runs} initial states "
            f"do not, the first {float(x[beyond[0]])!r}"
        )
    return x


def _check_band(xi_min: float, xi_points: int, xi_max: float | None, runs: int) -> float:
    """The top of the certify band, the one rule of
    `diagnostics.frequency_grid` and the `diagnostics` stanza: `xi_max`, or
    by default where sampling noise bites at `runs` samples (0.1 sqrt(N)
    heuristic, capped at 1000).  ContractError unless xi_min is positive and
    finite, there are an integer number of at least MIN_FIT_POINTS
    frequencies, runs is at least 1 where it sets the top, and the top is
    finite and above xi_min."""
    _require_positive(xi_min, "xi_min")
    _require_int(xi_points, "xi_points")
    if xi_points < MIN_FIT_POINTS:
        raise ContractError(f"xi_points must be at least {MIN_FIT_POINTS}, got {xi_points}")
    if xi_max is None:  # the default top takes sqrt(runs)
        _check_runs(runs)
    hi = xi_max if xi_max is not None else min(0.1 * math.sqrt(runs), 1e3)
    if not (math.isfinite(hi) and hi > xi_min):
        raise ContractError(
            f"frequency band [{xi_min!r}, {hi!r}] is empty or unbounded; "
            "raise xi_max or the run count"
        )
    return hi


def _kernel_indices(n_values) -> tuple[int, ...]:
    """The declared kernel indices, sorted; ContractError unless they are
    positive, distinct integers."""
    for n in n_values:
        _require_int(n, "kernel index")
    n_values = tuple(sorted(int(n) for n in n_values))
    if not n_values or n_values[0] < 1:
        raise ContractError("kernel indices must be positive integers")
    if len(set(n_values)) < len(n_values):
        raise ContractError(f"kernel indices must be distinct, got {list(n_values)}")
    return n_values


def _check_audit_indices(n_values) -> None:
    """ContractError unless the kernel audit has at least two indices to fit
    its profile in n through."""
    if len(n_values) < 2:
        raise ContractError("kernel audit needs at least two kernel indices")


def _check_kernel_index(n: int, n_values) -> None:
    """ContractError unless n is one of the declared kernel indices."""
    if n not in n_values:
        raise ContractError(f"kernel index {n} was not declared in the decomposition")


def _require_finite(vals, tag: str, **points) -> None:
    """InvalidModelError naming the coefficient `tag` and the first point (C
    order) where its values `vals` are not finite: each keyword is one
    coordinate of the points, an array broadcast against `vals` and the
    others, named in the message as ``y=..., z=...``."""
    vals = np.asarray(vals, dtype=float)
    _refuse_at(np.isfinite(vals), vals, tag, points)


def _require_nonnegative(vals, tag: str, upper: float = math.inf, **points) -> np.ndarray:
    """`vals` as floats; InvalidModelError, named as by `_require_finite`,
    at the first point (C order) where they are not finite, are negative or
    are above `upper`: the rule of a density or an intensity
    (`JumpMeasureSpec.density_at`, `CoefficientSet.check_rate`)."""
    vals = np.asarray(vals, dtype=float)
    _refuse_at(np.isfinite(vals) & (vals >= 0.0) & (vals <= upper), vals, tag, points, upper)
    return vals


def _refuse_at(ok: np.ndarray, vals: np.ndarray, tag: str, points: dict, upper=math.inf) -> None:
    """InvalidModelError at the first point (C order) where `ok` is false:
    "`tag` non-finite at y=...", "`tag` negative at y=..." or "`tag` above
    its bound `upper` at y=..."."""
    if not ok.all():
        ok, vals, *coords = np.broadcast_arrays(ok, vals, *points.values())
        at = int(np.argmin(ok))
        val = vals.flat[at]
        what = ("non-finite" if not np.isfinite(val) else "negative" if val < 0.0
                else f"above its bound {upper!r}")
        where = ", ".join(f"{name}={float(c.flat[at])!r}" for name, c in zip(points, coords))
        raise InvalidModelError(f"{tag} {what} at {where}")


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


def check_B(coeffs: CoefficientSet, n_max: int, theta: float) -> AssumptionReport:
    """Inversion-budget audit for the regularizing kernels.

    For each kernel index n and audit state y, integrates |dh/dz|^(-2k) over
    the window of length n/gamma(y) starting at the Lebesgue endpoint a(y)
    (mirrored when marks extend leftwards), scales by gamma(y)/n and the
    polynomial weight (1+|y|^p), and checks the profile against the declared
    exponential budget e^(theta n): the tail half of the n-range must not
    exceed twice the head half's envelope constant.  Also audits that the
    mark density dominates Lebesgue measure on the windows, which the kernel
    construction needs.

    Each window takes the audit rule of `gauss_panels`' defaults (256 nodes
    in 8 panels).  The states are audited in blocks of `AUDIT_BLOCK_STATES`:
    one broadcast `gauss_panels` call maps the rule onto every (state, n)
    window of a block, and dh/dz, the integrand and the mark density are
    evaluated once on the (states, n, nodes) array.  Failures are raised in
    state order, as a state-by-state audit meets them.  Within a state, a
    non-positive rate (`_frame`'s InvalidModelError) comes first, then an
    empty window (ContractError), then the first n, then node, where dh/dz
    is not finite (InvalidModelError) or |dh/dz| < 1e-12
    (DegenerateKernelError).  A failure at a later state of a block never
    pre-empts one at an earlier state, and no block after the failing one
    is evaluated.  A mark density that `JumpMeasureSpec.density_at` refuses
    on a block's windows raises InvalidModelError after that block's slope
    check.
    """
    _check_n_max(n_max)
    _check_theta(theta)
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
            z, w = gauss_panels(lo[:stop], hi[:stop])
            slope = np.abs(np.asarray(coeffs.h.dz(ys[:stop, None, None], z, 1), dtype=float))
            failing = ~np.isfinite(slope) | (slope < 1e-12)
            if np.any(failing):
                j, n, m = np.unravel_index(np.argmax(failing), failing.shape)
                _require_finite(slope[j, n, m], "dh/dz", y=ys[j], z=z[j, n, m])
                raise DegenerateKernelError(
                    f"dh/dz vanishes inside the inversion window at y={ys[j]}, z={float(z[j, n, m])}"
                )
            table = gam[:stop, None] / ns * np.sum(w * slope ** (-2 * coeffs.k), axis=-1)
            values[:, start:start + stop] = table.T
            rho = coeffs.q.density_at(z)
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
