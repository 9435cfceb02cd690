"""Preset scalar function families with exact derivative stacks.

Model coefficients (drift, jump rate, jump amplitude factors, jump size
bounds, measure densities) are built from a closed catalogue of families.
Each family evaluates its own derivatives of every order analytically, so
assumption audits and the inverse-map calculus never see finite-difference
noise.  All evaluations broadcast over numpy arrays.

The jump amplitude h(y, z) is a sum of separable terms f(y) * g(z)
(`JumpAmplitude`), which covers every model this toolkit ships, including the
degenerate rate-one counterexample with an indicator z-factor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import comb

import numpy as np

from .calculus import _compose_values, leibniz_product
from .errors import ContractError

_STACK_MAX = 16  # hard cap on requested derivative order


def _as_array(x):
    return np.asarray(x, dtype=float)


def _check_order(l) -> None:
    """Refuse a derivative order that is not an integer in [0, _STACK_MAX]."""
    if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or not 0 <= l <= _STACK_MAX:
        raise ContractError(f"derivative order {l!r} outside [0, {_STACK_MAX}]")


class Described:
    """A dataclass that describes itself as the config node it is built
    from: each field under its config key, valued as the config spells it.

    ``config_keys`` maps a config key to its field where the two differ.
    """

    config_keys = {}

    def describe(self) -> dict:
        key = {name: k for k, name in self.config_keys.items()}
        return {key.get(f.name, f.name): _node(getattr(self, f.name)) for f in fields(self)}


def _node(value):
    """`value` as a config node: described objects by their `describe`,
    tuples as lists, numpy scalars as Python ones (so a YAML safe dumper
    takes the node)."""
    if isinstance(value, Described):
        return value.describe()
    if isinstance(value, tuple):
        return [_node(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _min_smooth_order(fns) -> int | None:
    """The smallest finite `smooth_order` of `fns` (None: all infinitely smooth)."""
    finite = [o for o in (fn.smooth_order for fn in fns) if o is not None]
    return min(finite) if finite else None


class Function1D(Described):
    """One scalar function with analytic derivatives of every order.

    ``smooth_order`` is the largest derivative order that is globally
    continuous (None means infinitely smooth); `check_A` refuses smoothness
    budgets beyond it for the drift, the rate and the y-factors of h.

    Each family is a dataclass whose fields are its parameters, and names
    itself in the config by its plain class attribute ``family``.  It
    implements one primitive and the base class derives the other: a family
    whose orders are independent implements ``_derivative(x, l)``, one whose
    orders share work (a composition, one exp or tanh, one set of masks)
    implements ``_stack(x, order)``.  A family whose one order is as cheap
    as its value (ExpDecay) implements both, so that a single order costs
    one exp.  Row l of `stack` is `derivative` at l to the byte.
    `derivative` and `stack` refuse an order that is not an integer in
    [0, 16] with ContractError.

    >>> f = ExpDecay(2.0, 1.0)
    >>> f.stack([0.0, 1.0], 2)[2].tobytes() == f.derivative([0.0, 1.0], 2).tobytes()
    True
    >>> f.derivative(0.0, -1)
    Traceback (most recent call last):
    ...
    jumpsmooth.errors.ContractError: derivative order -1 outside [0, 16]
    """

    smooth_order: int | None = None

    def value(self, x):
        return self.derivative(x, 0)

    def derivative(self, x, l: int):
        """The l-th derivative at x."""
        _check_order(l)
        return self._derivative(_as_array(x), l)

    def stack(self, x, order: int) -> np.ndarray:
        """Derivatives 0..order, order axis first."""
        _check_order(order)
        return self._stack(_as_array(x), order)

    def _derivative(self, x: np.ndarray, l: int):
        return self._stack(x, l)[l]

    def _stack(self, x: np.ndarray, order: int) -> np.ndarray:
        out = np.empty((order + 1,) + x.shape)
        for l in range(order + 1):
            # through the public method, so that a subclass overriding
            # `derivative` stacks too
            out[l] = self.derivative(x, l)
        return out

    @property
    def is_zero(self) -> bool:
        return False

    def describe(self) -> dict:
        return {"family": self.family, **super().describe()}


@dataclass(frozen=True)
class Affine(Function1D):
    """a0 + a1 * x."""

    family = "affine"

    a0: float
    a1: float = 0.0

    def _derivative(self, x, l: int):
        if l == 0:
            return self.a0 + self.a1 * x
        if l == 1:
            return np.full_like(x, self.a1)
        return np.zeros_like(x)

    @property
    def is_zero(self) -> bool:
        return self.a0 == 0.0 and self.a1 == 0.0


def constant(c: float) -> Affine:
    return Affine(float(c), 0.0)


@dataclass(frozen=True)
class Sinusoidal(Function1D):
    """amp * sin(freq * x + phase)."""

    family = "sinusoidal"

    amp: float
    freq: float = 1.0
    phase: float = 0.0

    def _derivative(self, x, l: int):
        return self.amp * self.freq**l * np.sin(self.freq * x + self.phase + l * np.pi / 2.0)


@dataclass(frozen=True)
class ExpDecay(Function1D):
    """amp * exp(-rate * x)."""

    family = "exp_decay"

    amp: float
    rate: float = 1.0

    def _derivative(self, x, l: int):
        return (self.amp * (-self.rate) ** l) * np.exp(-self.rate * x)

    def _stack(self, x, order: int):
        coefs = [self.amp * (-self.rate) ** l for l in range(order + 1)]
        return np.multiply.outer(coefs, np.exp(-self.rate * x))


@dataclass(frozen=True)
class InversePower(Function1D):
    """amp * (offset + x) ** (-power), the half-line power-law tail."""

    family = "inverse_power"

    amp: float
    power: float
    offset: float = 1.0

    def _derivative(self, x, l: int):
        coef = self.amp
        for j in range(l):
            coef *= -self.power - j
        return coef * (self.offset + x) ** (-self.power - l)


@dataclass(frozen=True)
class IsoPower(Function1D):
    """amp * (1 + x**2) ** (-power / 2): a smooth whole-line power law."""

    family = "iso_power"

    amp: float
    power: float

    def _stack(self, x, order: int):
        # row 0 is amp * (1 + x * x) ** (-power / 2) itself
        u = 1.0 + x * x
        expo = -self.power / 2.0
        outer = np.empty((order + 1,) + x.shape)
        coef = self.amp
        for r in range(order + 1):
            outer[r] = coef * u ** (expo - r)
            coef *= expo - r
        if order == 0:
            return outer
        inner = np.zeros_like(outer)
        inner[0] = u
        inner[1] = 2.0 * x
        if order >= 2:
            inner[2] = 2.0
        return _compose_values(outer, inner)


@lru_cache(maxsize=None)
def _hermite_coeffs(l: int) -> tuple[float, ...]:
    """Coefficients of the l-th physicists' Hermite polynomial."""
    if l == 0:
        return (1.0,)
    if l == 1:
        return (0.0, 2.0)
    prev2 = np.array(_hermite_coeffs(l - 2))
    prev1 = np.array(_hermite_coeffs(l - 1))
    out = np.zeros(l + 1)
    out[1:] += 2.0 * prev1
    out[: l - 1] -= 2.0 * (l - 1) * prev2
    return tuple(out)


@dataclass(frozen=True)
class GaussBump(Function1D):
    """amp * exp(-((x - center) / width) ** 2)."""

    family = "gauss_bump"

    amp: float
    center: float = 0.0
    width: float = 1.0

    def _stack(self, x, order: int):
        u = (x - self.center) / self.width
        e = np.exp(-u * u)
        return np.stack([
            self.amp * (-1.0 / self.width) ** l
            * np.polynomial.polynomial.polyval(u, _hermite_coeffs(l)) * e
            for l in range(order + 1)
        ])


@lru_cache(maxsize=None)
def _tanh_poly(l: int) -> tuple[float, ...]:
    """Coefficients (in t = tanh) of the polynomial P_l with
    d^l/dx^l tanh(x) = P_l(tanh(x)); P_0 = t, P_{l+1} = P_l'(t) (1 - t^2)."""
    if l == 0:
        return (0.0, 1.0)
    prev = np.array(_tanh_poly(l - 1))
    dp = np.polynomial.polynomial.polyder(prev)
    out = np.polynomial.polynomial.polysub(dp, np.polynomial.polynomial.polymul(dp, (0.0, 0.0, 1.0)))
    return tuple(out)


@dataclass(frozen=True)
class TanhSigmoid(Function1D):
    """amp * tanh(rate * x)."""

    family = "tanh"

    amp: float
    rate: float = 1.0

    def _stack(self, x, order: int):
        t = np.tanh(self.rate * x)
        return np.stack([
            self.amp * self.rate**l * np.polynomial.polynomial.polyval(t, _tanh_poly(l))
            for l in range(order + 1)
        ])


@dataclass(frozen=True)
class StretchedExp(Function1D):
    """amp * exp(-rate * (offset + x) ** power)."""

    family = "stretched_exp"

    amp: float
    rate: float
    power: float
    offset: float = 1.0

    def _stack(self, x, order: int):
        base = self.offset + x
        inner = np.empty((order + 1,) + x.shape)
        coef = -self.rate
        for r in range(order + 1):
            inner[r] = coef * base ** (self.power - r)
            coef *= self.power - r
        # every derivative of exp is the value: one row read at every order
        outer = np.broadcast_to(self.amp * np.exp(inner[0]), inner.shape)
        return _compose_values(outer, inner)


@dataclass(frozen=True)
class Indicator(Function1D):
    """Sharp indicator of [lo, hi); not smooth, derivative treated as zero.

    Only legitimate where z-regularity is irrelevant (simulation, slope and
    boundedness audits); smoothness certificates refuse it.
    """

    family = "indicator"

    lo: float
    hi: float
    amp: float = 1.0

    smooth_order = -1

    def _derivative(self, x, l: int):
        if l == 0:
            return self.amp * ((x >= self.lo) & (x < self.hi)).astype(float)
        return np.zeros_like(x)


@lru_cache(maxsize=None)
def smoothstep_coefficients(order: int) -> tuple[float, ...]:
    """Polynomial coefficients of the degree 2*order+1 smoothstep on [0, 1].

    S(0) = 0, S(1) = 1, derivatives 1..order vanish at both ends, and
    S(1 - x) = 1 - S(x).
    """
    if order < 0:
        raise ContractError("smoothstep order must be >= 0")
    coeffs = np.zeros(2 * order + 2)
    for j in range(order + 1):
        coeffs[order + 1 + j] = comb(order + j, j) * comb(2 * order + 1, order - j) * (-1.0) ** j
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _smoothstep_derivative_coefficients(order: int, l: int) -> tuple[float, ...]:
    """Polynomial coefficients of the l-th derivative of the smoothstep."""
    return tuple(np.polynomial.polynomial.polyder(smoothstep_coefficients(order), l))


def _smoothstep_derivative(u, order: int, l: int):
    """l-th derivative of the smoothstep of the given order, evaluated on
    u clipped to [0, 1] (callers mask the outside), by Horner's rule in
    place: the multiply-then-add of `np.polynomial.polynomial.polyval`, with
    its bytes."""
    c = _smoothstep_derivative_coefficients(order, l)
    out = c[-1] + u * 0
    for ci in c[-2::-1]:
        out *= u
        out += ci
    return out


@dataclass(frozen=True)
class SmoothstepBump(Function1D):
    """Plateau bump: 0 outside [lo, hi], amp on [lo+ramp, hi-ramp], joined by
    smoothstep ramps of width ramp; globally C^order."""

    family = "smoothstep_bump"

    lo: float
    hi: float
    ramp: float = 1.0
    order: int = 3
    amp: float = 1.0

    def __post_init__(self):
        if self.hi - self.lo < 2.0 * self.ramp:
            raise ContractError("bump interval shorter than its two ramps")

    def _stack(self, x0, order: int):
        x = np.atleast_1d(x0)
        out = np.zeros((order + 1,) + x.shape)
        up = (x >= self.lo) & (x < self.lo + self.ramp)
        down = (x > self.hi - self.ramp) & (x <= self.hi)
        u_up = (x[up] - self.lo) / self.ramp
        u_down = (self.hi - x[down]) / self.ramp
        for l in range(order + 1):
            if u_up.size:
                out[l][up] = self.amp * _smoothstep_derivative(u_up, self.order, l) / self.ramp**l
            if u_down.size:
                out[l][down] = (self.amp * (-1.0) ** l
                                * _smoothstep_derivative(u_down, self.order, l) / self.ramp**l)
        out[0][(x >= self.lo + self.ramp) & (x <= self.hi - self.ramp)] = self.amp
        return out.reshape((order + 1,) + x0.shape)

    @property
    def smooth_order(self) -> int:  # type: ignore[override]
        return self.order


@dataclass(frozen=True)
class Tabulated(Function1D):
    """Natural cubic spline through tabulated nodes.

    Smooth to second order; derivatives above three vanish piecewise.  Useful
    for measured coefficients at low smoothness budgets.
    """

    family = "tabulated"
    smooth_order = 2

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        from scipy.interpolate import CubicSpline

        xs = _as_array(self.xs)
        ys = _as_array(self.ys)
        if xs.ndim != 1 or xs.size < 4 or xs.shape != ys.shape:
            raise ContractError("tabulated preset needs >= 4 matching nodes")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ContractError("tabulated preset needs finite nodes and values")
        if np.any(np.diff(xs) <= 0.0):
            raise ContractError("tabulated preset needs strictly increasing nodes")
        object.__setattr__(self, "xs", tuple(xs.tolist()))
        object.__setattr__(self, "ys", tuple(ys.tolist()))
        object.__setattr__(self, "_spline", CubicSpline(xs, ys, bc_type="natural"))

    def _derivative(self, x, l: int):
        if l > 3:
            return np.zeros_like(x)
        if l == 0:
            return _as_array(self._spline(x))
        return _as_array(self._spline.derivative(l)(x))


@dataclass(frozen=True, init=False)
class FunctionSum(Function1D):
    """Pointwise sum of functions, ``FunctionSum(f, g, ...)``."""

    family = "sum"

    parts: tuple[Function1D, ...]

    def __init__(self, *parts: Function1D):
        if not parts:
            raise ContractError("empty function sum")
        object.__setattr__(self, "parts", parts)

    def _derivative(self, x, l: int):
        # each part's one order, summed from zeros as row l of the stack
        out = np.zeros(x.shape)
        for p in self.parts:
            out += p.derivative(x, l)
        return out[()]

    def _stack(self, x, order: int):
        out = np.zeros((order + 1,) + x.shape)
        for p in self.parts:
            out += p.stack(x, order)
        return out

    @property
    def smooth_order(self) -> int | None:  # type: ignore[override]
        return _min_smooth_order(self.parts)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.parts)


@dataclass(frozen=True)
class FunctionProduct(Function1D):
    """Pointwise product of two functions (Leibniz stacks)."""

    family = "product"

    left: Function1D
    right: Function1D

    def _stack(self, x, order: int):
        return leibniz_product(self.left.stack(x, order), self.right.stack(x, order))

    @property
    def smooth_order(self) -> int | None:  # type: ignore[override]
        return _min_smooth_order((self.left, self.right))

    @property
    def is_zero(self) -> bool:
        return self.left.is_zero or self.right.is_zero


class JumpAmplitude(Described):
    """Jump amplitude h(y, z) as a sum of separable terms f_j(y) * g_j(z).

    Provides the mixed derivative stacks the calculus and kernel layers need:
    pure y-derivatives 0..k+1 and pure z-derivatives 0..k+1.  Its config
    node is the list of terms, each ``{y: f_j, z: g_j}``.
    """

    def __init__(self, terms):
        terms = tuple((fy, gz) for fy, gz in terms)
        if not terms:
            raise ContractError("jump amplitude needs at least one term")
        self.terms = terms

    def value(self, y, z):
        return self.dy(y, z, 0)

    def dy(self, y, z, l: int):
        """l-th derivative in the state variable."""
        return self._partial(y, z, l, 0)

    def dz(self, y, z, l: int):
        """l-th derivative in the mark variable."""
        return self._partial(y, z, 0, l)

    def _partial(self, y, z, ly: int, lz: int):
        """The sum over terms of f_j^(ly)(y) * g_j^(lz)(z), in term order."""
        y = _as_array(y)
        z = _as_array(z)
        out = None
        for fy, gz in self.terms:
            piece = fy.derivative(y, ly) * gz.derivative(z, lz)
            out = piece if out is None else out + piece
        return out

    def affine(self, z):
        """(A(z), B(z)) when h(y, z) = A(z) + B(z) y, that is when every
        y-factor is `Affine`, else None.  B sums the terms as row 1 of
        `y_stack` does, to the byte."""
        if not all(isinstance(fy, Affine) for fy, _ in self.terms):
            return None
        z = _as_array(z)
        shift = scale = None
        for fy, gz in self.terms:
            g = gz.value(z)
            a, b = fy.a0 * g, fy.a1 * g
            shift = a if shift is None else shift + a
            scale = b if scale is None else scale + b
        return shift, scale

    def y_stack(self, y, z, order: int) -> np.ndarray:
        """Rows l = 0..order of `dy`, from one stack of each y-factor."""
        return self._stack(y, z, order, True)

    def z_stack(self, y, z, order: int) -> np.ndarray:
        """Rows l = 0..order of `dz`, from one stack of each z-factor."""
        return self._stack(y, z, order, False)

    def _stack(self, y, z, order: int, in_y: bool) -> np.ndarray:
        """Stack in y (or in z) of the term sum, each term's factor stacked
        once; row l is `_partial` at that order, to the byte."""
        y = _as_array(y)
        z = _as_array(z)
        ndim = np.broadcast(y, z).ndim

        def lift(st):  # the order axis in front of the broadcast batch axes
            return st.reshape(st.shape[:1] + (1,) * (ndim + 1 - st.ndim) + st.shape[1:])

        out = None
        for fy, gz in self.terms:
            if in_y:
                piece = lift(fy.stack(y, order)) * gz.value(z)
            else:
                piece = fy.value(y) * lift(gz.stack(z, order))
            out = piece if out is None else out + piece
        return out

    @property
    def smooth_order_y(self) -> int | None:
        return _min_smooth_order(fy for fy, _ in self.terms)

    def describe(self) -> list:
        return [{"y": fy.describe(), "z": gz.describe()} for fy, gz in self.terms]
