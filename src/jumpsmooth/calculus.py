"""Higher-order calculus for monotone state maps.

The jump dynamics move a state y to y + h(y, z); the drift surrogate moves it
to y + b(y)/i.  Both maps are strictly increasing in y whenever the slope
condition 1 + dh/dy >= c0 > 0 holds, so they have well-defined inverses: the
*pre-jump map* tau(y, z) (the state that lands on y after a jump with mark z)
and the *pre-step map* tau_i(y).  Pulling a density backwards through either
map requires derivatives of the inverse and of compositions with it.

This module provides the three layers of that calculus:

* composition derivatives (`faa_di_bruno`) from integer partition tables,
* derivatives of inverse maps (`inverse_derivatives`; `tau_stack_grid` for
  the pre-jump map, `tau_i_stack_grid` for the pre-step map, whose row 0 is
  the pre-image itself),
* the transfer coefficients that expand the l-th derivative of a pulled-back
  density ``[phi(tau(y)) tau'(y)]^(l)`` over the stack ``phi^(r)(tau(y))``
  (`transfer_alpha_grid` for the jump map, `transfer_beta_grid` for the
  drift map).

The stacks and tables take one state or an array of states, and one order
rule (`_check_order`): a derivative order is an integer in [0, 16], for
which the partition tables are built on first use.  Both maps have the form
x -> x + step(x).  A jump amplitude affine in the state, h(y, z) = A(z) +
B(z) y (every y-factor `Affine`, as in every bench and README model), has
the closed-form pre-jump map tau = (y - A) / (1 + B): tau' = 1 / (1 + B)
and every higher row is 0.  Every other stack, jump or drift, comes from
one private pipeline: a bracketed pre-image solve, the forward stack at the
pre-image, and its inversion; only the increment and the initial bracket
radius differ.  Every transfer table comes from its stack by one path
(`_alpha_from_tau`; diagonal on an affine stack, whose jump table is formed
once per mark and broadcast over the nodes), and every Leibniz coefficient
C(l, r) s^(l-r) from one helper (`_leibniz_terms`).
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

_STACK_MAX = 16  # the one ceiling on a derivative order (`_check_order`)

# A map whose derivative falls below this threshold (in absolute value) is
# treated as non-invertible at that point.
SINGULAR_SLOPE = 1e-10

# Relative tolerance of every pre-image solve (`_bracketed_newton`).
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


def _check_order(l) -> None:
    """Refuse a derivative order that is not an integer in [0, _STACK_MAX]."""
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or not 0 <= l <= _STACK_MAX:
        raise ContractError(f"derivative order {l!r} outside [0, {_STACK_MAX}]")


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
    _check_order(n)
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
        acc = 0.0
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
    tau = np.empty_like(forward)
    tau[0] = 0.0
    tau[1] = 1.0 / slope
    # Solve (f o tau)^(n) = 0 for n >= 2: the only term containing tau^(n) is
    # f'(tau0) * tau^(n); every other term uses lower-order tau derivatives.
    for n in range(2, order + 1):
        acc = 0.0
        for r, parts, coef in composition_terms(n):
            if r == 1:  # the single-part term coef * f'(tau) * tau^(n)
                continue
            term = coef * forward[r]
            for p in parts:
                term = term * tau[p]
            acc = acc + term
        tau[n] = -acc / slope
    return tau


def inverse_derivatives(forward: DerivativeStack) -> DerivativeStack:
    """Derivative stack of the inverse map at the image point.

    ``forward`` holds f and its derivatives at tau0, to an order of at least
    1; the result holds the inverse map tau and its derivatives at
    y0 = f(tau0) to the same order, so ``result.values[0] == forward.point``.

    >>> st = inverse_derivatives(DerivativeStack(0.0, np.array([0.0, 1.0, 2.0, 0.0])))
    >>> st.values
    array([ 0.,  1., -2., 12.])
    >>> ex = inverse_derivatives(DerivativeStack(0.0, np.array([1.0, 1.0, 1.0, 1.0])))
    >>> ex.values  # inverse of exp at 1 is log
    array([ 0.,  1., -1.,  2.])
    """
    if forward.order < 1:
        raise ContractError("inverse stack order must be >= 1")
    tau = _invert_values(forward.values)
    tau[0] = forward.point
    return DerivativeStack(float(forward.values[0]), tau)


def _leibniz_terms(s, order: int | None = None) -> list:
    """Leibniz coefficients of a product with the stack `s` (order axis
    first, broadcasting): row l, entry r is comb(l, r) * s[l - r], the
    coefficient of b^(r) in (s b)^(l), for l = 0..order (default: the
    stack's order).  Where the binomial is 1 (r = 0 or l) the entry is the
    row s[l - r] itself, not a copy: read the entries, never write them."""
    if order is None:
        order = len(s) - 1
    return [[s[l - r] if r in (0, l) else comb(l, r) * s[l - r] for r in range(l + 1)]
            for l in range(order + 1)]


def leibniz_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Derivative stack of a product from the stacks of its factors
    (order axis first, broadcasting)."""
    order = min(a.shape[0], b.shape[0]) - 1
    out = np.empty((order + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=float)
    for n, row in enumerate(_leibniz_terms(a, order)):
        out[n] = sum((row[m] * b[m] for m in range(n, -1, -1)), 0.0)
    return out


# ---------------------------------------------------------------------------
# bracketed root solves for the pre-jump / pre-step maps
# ---------------------------------------------------------------------------

_MAX_BRACKET_GROWTH = 60
_MAX_NEWTON_ITER = 120
_UNBRACKETED = ("could not bracket the pre-image: monotonicity or the jump size bound "
                "is violated on this model")


def _bracketed_newton(fun, dfun, target, lo, hi, slope_floor: float = SINGULAR_SLOPE):
    """Vectorized safeguarded Newton for increasing maps.

    Solves fun(x) = target component-wise with fun increasing on [lo, hi]
    and fun(lo) <= target <= fun(hi).  Newton steps are clipped back to the
    shrinking bracket; a component converges when the residual is within
    `PREIMAGE_TOL` of its target or the bracket has collapsed (the latter carries
    exponentially small targets, whose absolute residuals mean nothing).
    With `slope_floor` > 0 a flat stretch raises; with 0 the solver falls
    back to bisection there instead, for maps that flatten legitimately.
    """
    # C-order copies, updated in place: the iterate and so the root take
    # their layout
    lo = np.array(lo, dtype=float, order="C")
    hi = np.array(hi, dtype=float, order="C")
    x = 0.5 * (lo + hi)
    ftol = PREIMAGE_TOL * np.maximum(np.abs(target), 1e-300)
    for _ in range(_MAX_NEWTON_ITER):
        f = fun(x) - target
        done = (np.abs(f) <= ftol) | (hi - lo <= PREIMAGE_TOL * np.maximum(1.0, np.abs(x)))
        if np.all(done):
            break
        move = ~done
        above = f > 0.0
        np.copyto(hi, x, where=above & move)
        np.copyto(lo, x, where=move & ~above)
        d = dfun(x)
        if slope_floor > 0.0:
            bad_slope = (np.abs(d) < slope_floor) & move
            if np.any(bad_slope):
                idx = int(np.flatnonzero(bad_slope)[0])
                raise NearSingularError(f"map slope below {slope_floor:.0e} at component {idx}")
        # the candidates of finished components are never read
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x - f / d
        outside = (cand <= lo) | (cand >= hi) | ~np.isfinite(cand)
        np.copyto(cand, 0.5 * (lo + hi), where=outside)
        np.copyto(cand, x, where=done)
        x = cand
    else:
        resid = np.max(np.abs(fun(x) - target))
        raise DomainEscapeError(f"root refinement stalled with residual {resid:.3e}")
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
    raise DomainEscapeError(_UNBRACKETED)


def _jump_map(coeffs: "CoefficientSet", z):
    """Increment h(., z) of the jump map (one derivative, and the stack) and
    its initial bracket radius, the jump size bound eta(z), for one mark or
    an array of marks."""
    radius = np.abs(np.asarray(coeffs.eta.value(z), dtype=float)) * (1.0 + 1e-9) + 1e-9
    return ((lambda x, l: coeffs.h.dy(x, z, l)), (lambda x, n: coeffs.h.y_stack(x, z, n)),
            radius)


def _affine_jump(coeffs: "CoefficientSet", z):
    """(A(z), 1 + B(z)) when the jump amplitude is A(z) + B(z) y, else None.

    A slope 1 + B that is not positive, or any value that is not finite,
    raises the bracket failure of the solve, and a positive slope at or
    below `SINGULAR_SLOPE` the flat-slope failure of its Newton, both before
    the map is evaluated.
    """
    affine = coeffs.h.affine(z)
    if affine is None:
        return None
    shift, scale = affine
    slope = 1.0 + scale
    if not (np.all((slope > 0.0) & (slope < np.inf)) and np.all(np.isfinite(shift))):
        raise DomainEscapeError(_UNBRACKETED)
    flat = np.flatnonzero(slope <= SINGULAR_SLOPE)
    if flat.size:  # the Newton's first flat (node, mark): node 0's first flat mark
        raise NearSingularError(f"map slope below {SINGULAR_SLOPE:.0e} at component {flat[0]}")
    return shift, slope


def _drift_map(coeffs: "CoefficientSet", y: np.ndarray, i: int):
    """Increment b/i of the drift-step map (one derivative, and the stack)
    and its initial bracket radius (|b(y)| + 1) / i around the post-step
    states y."""
    from .model import _check_drift_index  # model imports calculus (via presets)

    _check_drift_index(coeffs, i)
    radius = (np.abs(coeffs.b.value(y)) + 1.0) / i + 1e-9
    return ((lambda x, l: coeffs.b.derivative(x, l) / i), (lambda x, n: coeffs.b.stack(x, n) / i),
            radius)


def _preimage(step, radius, y: np.ndarray) -> np.ndarray:
    """The x with x + step(x, 0) = y, for an increasing map, by safeguarded
    Newton inside a bracket grown from [y - radius, y + radius]."""

    def fun(x):
        return x + step(x, 0)

    def dfun(x):
        return 1.0 + step(x, 1)

    lo, hi = _expand_bracket(fun, y, y, radius)
    return _bracketed_newton(fun, dfun, y, lo, hi)


def _inverse_stack(step, stack, radius, y: np.ndarray, order: int) -> np.ndarray:
    """Inverse-map stack of x -> x + step(x, 0) at y, shape (order+1,) +
    y.shape: the pre-image, the forward stack there (rows 0..order of
    `stack`), then its inversion; order 0 is the pre-image row alone.  One
    state is solved as a one-state array, to that array's bytes."""
    tau0 = _preimage(step, radius, np.atleast_1d(y))
    if order == 0:
        return tau0.reshape((1,) + np.shape(y))
    fwd = stack(tau0, order)
    fwd[0] += tau0
    fwd[1] += 1.0
    tau = _invert_values(fwd)
    tau[0] = tau0
    return tau.reshape((order + 1,) + np.shape(y))


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
    batch = tau.shape[1:]
    tau1 = tau[1, ...]  # a 0-d array at one state: its powers round as an array's
    # delta[n, r]: coefficient of phi^(r)(tau) in (phi o tau)^(n), summed
    # from zero; only r < n is read (phi^(n) enters alpha through tau1 ** n)
    delta = {}
    for n in range(2, order + 1):
        for r, parts, coef in composition_terms(n):
            if r == n:
                continue
            term = float(coef)
            for p in parts:
                term = term * tau[p]
            delta[n, r] = delta.get((n, r), 0.0) + term
    # lift[l][j] = C(l, j) tau^(l+1-j): the Leibniz factor of (phi o tau)^(j)
    lift = _leibniz_terms(tau[1:], order)
    alpha = np.zeros((order + 1, order + 1) + batch, dtype=float)
    for l in range(order + 1):
        alpha[l, l] = tau1 ** (l + 1) - 1.0
        if l == 0:
            continue
        alpha[l, 0] = lift[l][0]
        for r in range(1, l):
            acc = lift[l][r] * tau1**r
            for j in range(r + 1, l + 1):
                acc = acc + lift[l][j] * delta[j, r]
            alpha[l, r] = acc
    return alpha


def tau_stack_grid(coeffs: "CoefficientSet", y: np.ndarray, z, order: int) -> np.ndarray:
    """Inverse-map stacks of the jump map at one state or an array of states.

    Returns shape (order+1,) + y.shape: row l holds tau^(l)(y), and row 0 is
    the pre-jump state tau, the unique tau with tau + h(tau, z) = y (it
    exists by the slope condition 1 + dh/dy >= c0 > 0); `order` 0 returns
    that row alone.  `z` is one mark, or a 1-d array of marks, which
    broadcasts the solve to (order+1,) + y.shape + z.shape.  Each column is
    the one-mark call's value, except in the last bits where a coefficient's
    numpy function rounds an array differently from a scalar (array `pow` in
    power laws).  An amplitude affine in the state takes the closed form:
    tau = (y - A) / (1 + B), tau' = 1 / (1 + B), higher rows exactly 0.  Any
    other is solved by Newton in a bracket whose initial radius is the jump
    size bound eta(z), grown geometrically if the audit bound was optimistic.

    >>> from jumpsmooth import Affine, CoefficientSet, JumpAmplitude, JumpMeasureSpec, constant
    >>> h = JumpAmplitude(((Affine(1.0, 1.0), constant(1.0)),))  # h = 1 + y
    >>> m = CoefficientSet(constant(0), constant(1), h, constant(4), JumpMeasureSpec((0, np.inf)))
    >>> tau_stack_grid(m, 3.0, 0.5, 2)  # one state: tau = (3 - 1) / 2, tau' = 1 / 2
    array([1. , 0.5, 0. ])
    >>> tau_stack_grid(m, np.array([1.0, 3.0]), 0.5, 0)  # the pre-jump states alone
    array([[0., 1.]])
    """
    _check_order(order)
    y, z = _node_mark_batch(y, z)
    return _jump_stack(coeffs, y, z, _affine_jump(coeffs, z), order)


def _node_mark_batch(y, z):
    """States and marks as float arrays, the states broadcast to (nodes,
    marks) when `z` is a 1-d array of marks."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim > 1:
        raise ContractError("marks must be a scalar or a 1-d array")
    if z.ndim:
        y = np.broadcast_to(y[..., None], y.shape + z.shape)
    return y, z


def _jump_stack(coeffs: "CoefficientSet", y: np.ndarray, z: np.ndarray, affine,
                order: int) -> np.ndarray:
    """`tau_stack_grid` on a batch from `_node_mark_batch`, given its
    `_affine_jump` decision."""
    if affine is None:
        return _inverse_stack(*_jump_map(coeffs, z), y, order)
    shift, slope = affine
    tau = np.zeros((order + 1,) + y.shape)
    tau[0] = (y - shift) / slope
    if order:
        tau[1] = 1.0 / slope
    return tau


def tau_i_stack_grid(coeffs: "CoefficientSet", y: np.ndarray, i: int, order: int) -> np.ndarray:
    """Inverse-map stacks of the drift-step map at one state or an array of
    states, shape (order+1,) + y.shape; row 0 is the pre-step state tau_i,
    with tau_i + b(tau_i)/i = y, and `order` 0 returns that row alone.

    Requires i >= i0 = 2 * sup|b'| (audited on the model's window), which
    makes the map increasing with slope >= 1/2.

    >>> from jumpsmooth import Affine, CoefficientSet, JumpAmplitude, JumpMeasureSpec, constant
    >>> h = JumpAmplitude(((Affine(1.0, 1.0), constant(1.0)),))
    >>> m = CoefficientSet(constant(2), constant(1), h, constant(4), JumpMeasureSpec((0, np.inf)))
    >>> tau_i_stack_grid(m, 1.5, 4, 1)  # one state: tau_i = 1.5 - 2 / 4
    array([1., 1.])
    >>> tau_i_stack_grid(m, np.array([0.5, 1.5]), 4, 0)  # the pre-step states alone
    array([[0., 1.]])
    """
    _check_order(order)
    y = np.asarray(y, dtype=float)
    return _inverse_stack(*_drift_map(coeffs, y, i), y, order)


def transfer_alpha_grid(
    coeffs: "CoefficientSet", y: np.ndarray, z, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer coefficients of the pre-jump pullback at one state or an
    array of states: (alpha[l, r, ...], tau[l, ...]), tau the
    `tau_stack_grid` to order+1 and, for l = 0..order::

        [phi(tau(y)) tau'(y)]^(l) = phi^(l)(tau(y)) + sum_r alpha[l, r] phi^(r)(tau(y))

    `z` may also be a 1-d array of marks; the pre-image solve then runs once
    over all (node, mark) pairs and returns (alpha[l, r, j, m], tau[l, j, m]),
    as the operator build calls it, one block of nodes at a time.  On the
    closed-form stack of an amplitude affine in the state the table is
    diagonal, alpha[l, l] = tau'^(l+1) - 1, with +0.0 everywhere else, and
    depends on the mark only: it is formed once per mark, from the stack at
    the first node, and returned as a read-only view broadcast over the
    nodes.

    >>> from jumpsmooth import Affine, CoefficientSet, JumpAmplitude, JumpMeasureSpec, constant
    >>> h = JumpAmplitude(((Affine(1.0, 1.0), constant(1.0)),))  # h = 1 + y: tau' = 1 / 2
    >>> m = CoefficientSet(constant(0), constant(1), h, constant(4), JumpMeasureSpec((0, np.inf)))
    >>> alpha, tau = transfer_alpha_grid(m, 3.0, 0.5, 1)  # one state
    >>> alpha
    array([[-0.5 ,  0.  ],
           [ 0.  , -0.75]])
    >>> tau
    array([1. , 0.5, 0. ])
    """
    _check_order(order)
    _check_order(order + 1)  # the stack it reads, on every path, as `transfer_beta_grid`'s
    y, z = _node_mark_batch(y, z)
    affine = _affine_jump(coeffs, z)
    tau = _jump_stack(coeffs, y, z, affine, order + 1)
    if affine is None:
        return _alpha_from_tau(tau), tau
    first_node = (slice(None),) + (slice(0, 1),) * (tau.ndim - 1 - z.ndim)
    alpha = _alpha_from_tau(tau[first_node])
    return np.broadcast_to(alpha, alpha.shape[:2] + tau.shape[1:]), tau


def transfer_beta_grid(
    coeffs: "CoefficientSet", y: np.ndarray, i: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer coefficients of the drift-step pullback: the expansion of
    `transfer_alpha_grid` for the map x -> x + b(x)/i, returned as
    (beta[l, r, ...], tau_i[l, ...]).  The coefficients scale like 1/i:
    sum_r i * |beta[l, r]| stays bounded as i grows, which is what keeps
    the drift surrogate stable."""
    _check_order(order)
    tau = tau_i_stack_grid(coeffs, y, i, order + 1)
    return _alpha_from_tau(tau), tau
