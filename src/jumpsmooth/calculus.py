"""Higher-order calculus for monotone state maps.

The jump dynamics move a state y to y + h(y, z); the drift surrogate moves it
to y + b(y)/i.  Both maps are strictly increasing in y whenever the slope
condition 1 + dh/dy >= c0 > 0 holds, so they have well-defined inverses: the
*pre-jump map* tau(y, z) (the state that lands on y after a jump with mark z)
and the *pre-step map* tau_i(y).  Pulling a density backwards through either
map requires derivatives of the inverse and of compositions with it.

This module provides the three layers of that calculus:

* composition derivatives (`faa_di_bruno`) from integer partition tables,
* derivatives of inverse maps (`inverse_derivatives`, `solve_tau`,
  `solve_tau_i`),
* the transfer coefficients that expand the l-th derivative of a pulled-back
  density ``[phi(tau(y)) tau'(y)]^(l)`` over the stack ``phi^(r)(tau(y))``
  (`transfer_alpha` for the jump map, `transfer_beta` for the drift map).

Both maps have the form x -> x + step(x), so one private pipeline inverts
them: a bracketed pre-image solve, the forward stack at the pre-image, its
inversion, and the transfer table.  Only the increment and the initial
bracket radius differ between the jump and the drift map.

Scalar entry points operate on `DerivativeStack` records; the ``*_grid``
variants broadcast over numpy arrays of base points and back the density
evolution engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, DomainEscapeError, NearSingularError

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .model import CoefficientSet

# Partition tables are memoized up to this derivative order; smoothness
# budgets k <= 6 need stacks no deeper than k + 1.
MAX_ORDER = 7

# A map whose derivative falls below this threshold (in absolute value) is
# treated as non-invertible at that point.
SINGULAR_SLOPE = 1e-10

# Tolerance of every inverse-map stack's pre-image solve; `solve_tau*` default.
PREIMAGE_TOL = 1e-12


@dataclass(frozen=True)
class DerivativeStack:
    """Derivatives of one scalar function at one base point.

    ``values[l]`` holds the l-th derivative at ``point``; ``values[0]`` is the
    function value itself.
    """

    point: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ContractError("derivative stack must be a 1-d array of length >= 1")
        if not np.all(np.isfinite(vals)):
            raise ContractError("derivative stack contains non-finite entries")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return self.values.size - 1

    def value(self, l: int = 0) -> float:
        return float(self.values[l])


@dataclass(frozen=True)
class TransferCoefficients:
    """Expansion coefficients of a pulled-back derivative stack.

    For a monotone map with inverse stack ``tau_stack`` (derivatives at the
    post-move point y), ``table[l, r]`` is the coefficient of phi^(r)(tau(y))
    in::

        [phi(tau(y)) tau'(y)]^(l) = phi^(l)(tau(y)) + sum_r table[l, r] phi^(r)(tau(y))

    ``table`` is lower triangular with shape (order+1, order+1).
    """

    point: float
    tau_stack: DerivativeStack
    table: np.ndarray

    @property
    def order(self) -> int:
        return self.table.shape[0] - 1


@lru_cache(maxsize=None)
def composition_terms(n: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Integer partition table for n-th order composition derivatives.

    Returns tuples ``(r, parts, coefficient)``: the n-th derivative of
    phi(tau(y)) is the sum over all partitions of n into ``r`` parts
    ``parts = (i_1 <= ... <= i_r)`` of::

        coefficient * phi^(r)(tau) * tau^(i_1) * ... * tau^(i_r)

    with ``coefficient = n! / (prod_j i_j! * prod_m mult_m!)`` where mult_m is
    the number of parts equal to m.
    """
    if n < 1:
        raise ContractError("composition order must be >= 1")
    if n > MAX_ORDER:
        raise ContractError(
            f"composition order {n} exceeds supported maximum {MAX_ORDER}"
        )
    terms: list[tuple[int, tuple[int, ...], int]] = []

    def extend(parts: tuple[int, ...], remaining: int, minimum: int) -> None:
        if remaining == 0:
            mult: dict[int, int] = {}
            for p in parts:
                mult[p] = mult.get(p, 0) + 1
            coef = factorial(n)
            for p, m in mult.items():
                coef //= factorial(p) ** m * factorial(m)
            terms.append((len(parts), parts, coef))
            return
        for p in range(minimum, remaining + 1):
            extend(parts + (p,), remaining - p, p)

    extend((), n, 1)
    return tuple(terms)


def _compose_values(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Array core of composition derivatives.

    ``outer[r]`` = phi^(r) evaluated at inner[0]; ``inner[l]`` = tau^(l) at the
    base point.  Both have the order axis first and broadcast over any batch
    shape.  Returns the stack of phi(tau(.)) at the base point.
    """
    order = inner.shape[0] - 1
    out = np.empty_like(inner)
    out[0] = outer[0]
    for n in range(1, order + 1):
        acc = np.zeros_like(inner[0])
        for r, parts, coef in composition_terms(n):
            term = coef * outer[r]
            for p in parts:
                term = term * inner[p]
            acc = acc + term
        out[n] = acc
    return out


def faa_di_bruno(outer: DerivativeStack, inner: DerivativeStack) -> DerivativeStack:
    """Derivatives of the composition phi(tau(.)).

    ``inner`` is the stack of tau at the base point; ``outer`` must be the
    stack of phi at ``inner.values[0]`` with order at least ``inner.order``.

    >>> y = 2.0
    >>> inner = DerivativeStack(y, np.array([y**3, 3*y**2, 6*y, 6.0]))
    >>> outer = DerivativeStack(y**3, np.array([y**6, 2*y**3, 2.0, 0.0]))
    >>> faa_di_bruno(outer, inner).values
    array([ 64., 192., 480., 960.])
    """
    if outer.order < inner.order:
        raise ContractError(
            f"outer stack order {outer.order} below composition order {inner.order}"
        )
    scale = max(1.0, abs(inner.value(0)))
    if abs(outer.point - inner.value(0)) > 1e-9 * scale:
        raise ContractError(
            "outer stack not evaluated at the inner stack's value: "
            f"{outer.point!r} vs {inner.value(0)!r}"
        )
    vals = _compose_values(outer.values, inner.values)
    return DerivativeStack(inner.point, vals)


def _invert_values(forward: np.ndarray, slope_floor: float = SINGULAR_SLOPE) -> np.ndarray:
    """Array core of inverse-map derivatives.

    ``forward[l]`` = f^(l) at the pre-image point tau0 (so ``forward[0]`` is
    the post-image y0 = f(tau0)); order axis first, broadcasting batch shapes.
    Returns ``tau[l]`` = derivatives of the inverse at y0, with ``tau[0]``
    left as zeros for the caller to fill with tau0.  `slope_floor` may be
    lowered for maps whose slope is exponentially small but well conditioned
    in relative terms (kernel tails); zero slopes always raise.
    """
    order = forward.shape[0] - 1
    slope = forward[1]
    floor = max(float(slope_floor), 1e-280)
    if np.any(np.abs(slope) < floor):
        worst = float(np.min(np.abs(slope)))
        raise NearSingularError(
            f"forward derivative magnitude {worst:.3e} below {floor:.0e}"
        )
    tau = np.zeros_like(forward)
    tau[1] = 1.0 / slope
    # Solve (f o tau)^(n) = 0 for n >= 2: the only term containing tau^(n) is
    # f'(tau0) * tau^(n); every other term uses lower-order tau derivatives.
    for n in range(2, order + 1):
        acc = np.zeros_like(forward[0])
        for r, parts, coef in composition_terms(n):
            if r == 1:  # the single-part term coef * f'(tau) * tau^(n)
                continue
            term = coef * forward[r]
            for p in parts:
                term = term * tau[p]
            acc = acc + term
        tau[n] = -acc / slope
    return tau


def inverse_derivatives(forward: DerivativeStack, order: int | None = None) -> DerivativeStack:
    """Derivative stack of the inverse map at the image point.

    ``forward`` holds f and its derivatives at tau0; the result holds the
    inverse map tau and its derivatives at y0 = f(tau0), so
    ``result.values[0] == forward.point``.

    >>> st = inverse_derivatives(DerivativeStack(0.0, np.array([0.0, 1.0, 2.0, 0.0])))
    >>> st.values
    array([ 0.,  1., -2., 12.])
    >>> ex = inverse_derivatives(DerivativeStack(0.0, np.array([1.0, 1.0, 1.0, 1.0])))
    >>> ex.values  # inverse of exp at 1 is log
    array([ 0.,  1., -1.,  2.])
    """
    if order is None:
        order = forward.order
    if order > forward.order:
        raise ContractError(
            f"requested inverse order {order} exceeds forward stack order {forward.order}"
        )
    if order < 1:
        raise ContractError("inverse stack order must be >= 1")
    tau = _invert_values(forward.values[: order + 1])
    tau[0] = forward.point
    return DerivativeStack(float(forward.values[0]), tau)


def _leibniz_row(a, b, n: int):
    """n-th derivative of a product from the derivatives 0..n of its factors
    (stacks, or sequences of arrays)."""
    acc = 0.0
    for j in range(n + 1):
        acc = acc + comb(n, j) * a[j] * b[n - j]
    return acc


def leibniz_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Derivative stack of a product from the stacks of its factors
    (order axis first, broadcasting)."""
    order = min(a.shape[0], b.shape[0]) - 1
    out = np.empty((order + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=float)
    for n in range(order + 1):
        out[n] = _leibniz_row(a, b, n)
    return out


# ---------------------------------------------------------------------------
# bracketed root solves for the pre-jump / pre-step maps
# ---------------------------------------------------------------------------

_MAX_BRACKET_GROWTH = 60
_MAX_NEWTON_ITER = 120


def _bracketed_newton(fun, dfun, target, lo, hi, tol, slope_floor: float = SINGULAR_SLOPE):
    """Vectorized safeguarded Newton for increasing maps.

    Solves fun(x) = target component-wise with fun increasing on [lo, hi]
    and fun(lo) <= target <= fun(hi).  Newton steps are clipped back to the
    shrinking bracket; a component converges when the residual is small
    relative to its target or the bracket has collapsed (the latter carries
    exponentially small targets, whose absolute residuals mean nothing).
    With `slope_floor` > 0 a flat stretch raises; with 0 the solver falls
    back to bisection there instead, for maps that flatten legitimately.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    x = 0.5 * (lo + hi)
    scale = np.maximum(np.abs(target), 1e-300)
    for _ in range(_MAX_NEWTON_ITER):
        f = fun(x) - target
        done = (np.abs(f) <= tol * scale) | (hi - lo <= tol * np.maximum(1.0, np.abs(x)))
        if np.all(done):
            break
        above = f > 0.0
        hi = np.where(above & ~done, x, hi)
        lo = np.where(~above & ~done, x, lo)
        d = dfun(x)
        if slope_floor > 0.0:
            bad_slope = np.abs(d) < slope_floor
            if np.any(bad_slope & ~done):
                idx = np.argwhere(bad_slope & ~done).ravel()[0]
                raise NearSingularError(
                    f"map slope below {slope_floor:.0e} at component {int(idx)}"
                )
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(done, 0.0, f / d)
        cand = x - step
        outside = (cand <= lo) | (cand >= hi) | ~np.isfinite(cand)
        x = np.where(done, x, np.where(outside, 0.5 * (lo + hi), cand))
    else:
        resid = np.max(np.abs(fun(x) - target))
        raise DomainEscapeError(
            f"root refinement stalled with residual {resid:.3e}"
        )
    return x


def _expand_bracket(fun, target, center, radius):
    """Grow [center - r, center + r] geometrically until fun brackets target."""
    r = np.array(np.broadcast_to(radius, np.shape(center)), dtype=float, copy=True)
    r = np.maximum(r, 1e-12)
    for _ in range(_MAX_BRACKET_GROWTH):
        lo = center - r
        hi = center + r
        ok = (fun(lo) <= target) & (fun(hi) >= target)
        if np.all(ok):
            return lo, hi
        r = np.where(ok, r, 2.0 * r)
    raise DomainEscapeError(
        "could not bracket the pre-image: monotonicity or the jump size bound "
        "is violated on this model"
    )


def _jump_map(coeffs: "CoefficientSet", z):
    """Increment h(., z) of the jump map and its initial bracket radius, the
    jump size bound eta(z), for one mark or an array of marks."""
    radius = np.abs(np.asarray(coeffs.eta.value(z), dtype=float)) * (1.0 + 1e-9) + 1e-9
    return (lambda x, l: coeffs.h.dy(x, z, l)), radius


def _drift_map(coeffs: "CoefficientSet", y: np.ndarray, i: int):
    """Increment b/i of the drift-step map and its initial bracket radius
    (|b(y)| + 1) / i around the post-step states y."""
    from .model import _check_drift_index  # model imports calculus (via presets)

    _check_drift_index(coeffs, i)
    radius = (np.abs(coeffs.b.value(y)) + 1.0) / i + 1e-9
    return (lambda x, l: coeffs.b.derivative(x, l) / i), radius


def _preimage(step, radius, y: np.ndarray, tol: float) -> np.ndarray:
    """The x with x + step(x, 0) = y, for an increasing map, by safeguarded
    Newton inside a bracket grown from [y - radius, y + radius]."""

    def fun(x):
        return x + step(x, 0)

    def dfun(x):
        return 1.0 + step(x, 1)

    lo, hi = _expand_bracket(fun, y, y, radius)
    return _bracketed_newton(fun, dfun, y, lo, hi, tol)


def _inverse_stack(step, radius, y: np.ndarray, order: int) -> np.ndarray:
    """Inverse-map stack of x -> x + step(x, 0) at y, shape (order+1, len(y)):
    the pre-image, the forward stack there, then its inversion."""
    tau0 = _preimage(step, radius, y, PREIMAGE_TOL)
    fwd = np.empty((order + 1,) + tau0.shape)
    for l in range(order + 1):
        fwd[l] = step(tau0, l)
    fwd[0] += tau0
    fwd[1] += 1.0
    tau = _invert_values(fwd)
    tau[0] = tau0
    return tau


def solve_tau(coeffs: "CoefficientSet", y: float, z: float, tol: float = PREIMAGE_TOL) -> float:
    """Pre-jump state: the unique tau with tau + h(tau, z) = y.

    Existence and uniqueness come from the slope condition
    1 + dh/dy >= c0 > 0; the initial bracket radius is the jump size bound
    eta(z), grown geometrically if the audit bound was optimistic.
    """
    return float(solve_tau_grid(coeffs, np.asarray([y], dtype=float), z, tol)[0])


def solve_tau_grid(
    coeffs: "CoefficientSet", y: np.ndarray, z: float, tol: float = PREIMAGE_TOL
) -> np.ndarray:
    """Vectorized `solve_tau` over an array of post-jump states."""
    return _preimage(*_jump_map(coeffs, z), np.asarray(y, dtype=float), tol)


def solve_tau_i(coeffs: "CoefficientSet", y: float, i: int, tol: float = PREIMAGE_TOL) -> float:
    """Pre-step state of the drift surrogate: tau_i + b(tau_i)/i = y.

    Requires i >= i0 = 2 * sup|b'| (audited on the model's window), which
    makes the map increasing with slope >= 1/2.
    """
    return float(solve_tau_i_grid(coeffs, np.asarray([y], dtype=float), i, tol)[0])


def solve_tau_i_grid(
    coeffs: "CoefficientSet", y: np.ndarray, i: int, tol: float = PREIMAGE_TOL
) -> np.ndarray:
    """Vectorized `solve_tau_i`."""
    y = np.asarray(y, dtype=float)
    return _preimage(*_drift_map(coeffs, y, i), y, tol)


# ---------------------------------------------------------------------------
# transfer coefficients
# ---------------------------------------------------------------------------


def _alpha_from_tau(tau: np.ndarray) -> np.ndarray:
    """Transfer table from an inverse-map stack.

    ``tau[l]`` holds tau^(l) for l = 0..L+1 (order axis first, any batch
    shape); returns ``alpha`` of shape (L+1, L+1) + batch with the expansion::

        [phi(tau) tau']^(l) = phi^(l)(tau) + sum_{r<=l} alpha[l, r] phi^(r)(tau)

    Derivation: Leibniz over (phi o tau) * tau', composition derivatives for
    (phi o tau)^(j), then collecting the coefficient of each phi^(r).
    """
    depth = tau.shape[0]
    order = depth - 2
    if order < 0:
        raise ContractError("transfer table needs tau stack of order >= 1")
    batch = tau.shape[1:]
    tau1 = tau[1]
    # delta[n, r]: coefficient of phi^(r)(tau) in (phi o tau)^(n), n >= 1.
    delta = np.zeros((order + 1, order + 1) + batch, dtype=float)
    for n in range(1, order + 1):
        for r, parts, coef in composition_terms(n):
            term = np.full(batch, float(coef)) if batch else float(coef)
            for p in parts:
                term = term * tau[p]
            delta[n, r] = delta[n, r] + term
    alpha = np.zeros((order + 1, order + 1) + batch, dtype=float)
    for l in range(order + 1):
        alpha[l, l] = tau1 ** (l + 1) - 1.0
        if l == 0:
            continue
        alpha[l, 0] = tau[l + 1]
        for r in range(1, l):
            acc = comb(l, r) * tau[l + 1 - r] * tau1**r
            for j in range(r + 1, l + 1):
                acc = acc + comb(l, j) * tau[l + 1 - j] * delta[j, r]
            alpha[l, r] = acc
    return alpha


def tau_stack_grid(coeffs: "CoefficientSet", y: np.ndarray, z, order: int) -> np.ndarray:
    """Inverse-map stacks of the jump map over an array of base points.

    Returns shape (order+1, len(y)): row l holds tau^(l)(y) (row 0 is tau).
    `z` is one mark, or a 1-d array of marks, which broadcasts the solve to
    (order+1, len(y), len(z)).  Each column is the one-mark call's value,
    except in the last bits where a coefficient's numpy function rounds an
    array differently from a scalar (array `pow` in power laws).
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim > 1:
        raise ContractError("marks must be a scalar or a 1-d array")
    if z.ndim:
        y = np.broadcast_to(y[:, None], y.shape + z.shape)
    return _inverse_stack(*_jump_map(coeffs, z), y, order)


def tau_i_stack_grid(coeffs: "CoefficientSet", y: np.ndarray, i: int, order: int) -> np.ndarray:
    """Inverse-map stacks of the drift-step map over an array of base points."""
    y = np.asarray(y, dtype=float)
    return _inverse_stack(*_drift_map(coeffs, y, i), y, order)


def _transfer_at(y: float, tau: np.ndarray) -> TransferCoefficients:
    """Transfer coefficients at one point from its one-column inverse stack."""
    stack = DerivativeStack(float(y), tau[:, 0])
    return TransferCoefficients(float(y), stack, _alpha_from_tau(tau)[:, :, 0])


def transfer_alpha(
    coeffs: "CoefficientSet", y: float, z: float, order: int
) -> TransferCoefficients:
    """Transfer coefficients of the pre-jump pullback at one point.

    With tau = tau(., z) the inverse jump map, the returned table expands::

        [phi(tau(y)) tau'(y)]^(l) = phi^(l)(tau(y)) + sum_r table[l, r] phi^(r)(tau(y))

    for l = 0..order.  Needs y-derivatives of h up to order+1.
    """
    tau = tau_stack_grid(coeffs, np.asarray([y], dtype=float), z, order + 1)
    return _transfer_at(y, tau)


def transfer_beta(
    coeffs: "CoefficientSet", y: float, i: int, order: int
) -> TransferCoefficients:
    """Transfer coefficients of the drift-step pullback at one point.

    Same expansion as `transfer_alpha` for the map x -> x + b(x)/i.  The
    coefficients scale like 1/i: sum_r i * |table[l, r]| stays bounded as i
    grows, which is what keeps the drift surrogate stable.
    """
    tau = tau_i_stack_grid(coeffs, np.asarray([y], dtype=float), i, order + 1)
    return _transfer_at(y, tau)


def transfer_alpha_grid(
    coeffs: "CoefficientSet", y: np.ndarray, z, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `transfer_alpha`: returns (alpha[l, r, j], tau[l, j]).

    `z` may also be a 1-d array of marks; the pre-image solve then runs once
    over all (node, mark) pairs and returns (alpha[l, r, j, m], tau[l, j, m]).
    The operator build calls it this way, one block of marks at a time.
    """
    tau = tau_stack_grid(coeffs, y, z, order + 1)
    return _alpha_from_tau(tau), tau


def transfer_beta_grid(
    coeffs: "CoefficientSet", y: np.ndarray, i: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized `transfer_beta`: returns (beta[l, r, j], tau_i[l, j])."""
    tau = tau_i_stack_grid(coeffs, y, i, order + 1)
    return _alpha_from_tau(tau), tau
