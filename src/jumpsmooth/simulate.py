"""Pathwise simulation of the jumping dynamics by thinning.

One engine, `_thinning`, draws and classifies every candidate (thinning as
in Lewis & Shedler 1979 and Ogata 1981).  Candidates arrive as a Poisson
stream with intensity ubar * q(G), for G the mark window and ubar the
model's thinning bound, `CoefficientSet.rate_bound`.  Thinning is exact only
while the state-dependent rate stays in [0, ubar], so the engine puts every
rate it reads to the model's reach rule, `CoefficientSet.check_rate`.  Each
candidate carries a mark z ~ q|_G, a rate variable u uniform on (0, ubar)
and a filter variable v uniform on (0, 1), and becomes a jump when
u <= gamma(X-).  v is drawn whether or not a filtered kernel is checked, so
filtered and plain runs can be coupled.  Between candidates the state
follows the drift flow in classical RK4 steps (`_resolve_step`); the
drift-poissonized chain, whose density evolution the adjoint solver
mirrors, replaces the flow with kicks b(X)/i at rate i.

Random streams fan out into 32 PCG64DXSM substreams per (seed, stream) pair,
one per chunk of a batch's runs.  The engine advances a group of chunks in
lockstep, one candidate round at a time, each chunk drawing from its own
substream in a fixed order, so batch output is byte-identical for any
grouping of the chunks and any thread count (`simulate_batch`).
`simulate_exact`, `simulate_poissonized` and `sample_tau_n` are batches of
one on the caller's generator: the coupling between single paths and
batches holds by construction.  Every entry point checks its horizon
(`model._check_horizon`) and its starts (`model._initial_states`) before any
draw; only `sample_tau_n` may wait without a finite horizon, for its first
kept jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpError,
    ContractError,
    InvalidModelError,
    WindowTooSmallError,
)
from .fokker_planck import GridDensity, _cumulative_trapezoid
from .kernels import KernelDecomposition
from .model import (
    BLOW_UP, CoefficientSet, _check_drift_index, _check_flow_step, _check_horizon, _check_runs,
    _density_grid, _initial_states, _require_int,
)
from .presets import _check_order

N_CHUNKS = 32  # fixed RNG fan-out; results do not depend on thread count
GROUP_RUNS = 2**15  # runs the engine advances at once, unless one chunk holds more
FLOOR_MULT = 3.0  # a usable CF magnitude stands this many 1/sqrt(N) clear of 0
GUIDE_BUCKETS = 4096  # level bins of the mark sampler's guide table; a power of two
MARK_CDF_NODES = 4097  # equispaced marks of the mark sampler's trapezoid CDF
FLOW_TOL = 1e-10  # drift-flow error budget per unit time of the derived RK4 step

# The h^5 term of RK4's local error on a scalar autonomous x' = b(x):
#   b b'^4 / 120 - b^2 b'^2 b'' / 80 + b^3 b''^2 / 480
#   - b^3 b' b''' / 1440 - b^4 b'''' / 2880,
# as (|coefficient|, powers of b, b', b'', b''', b'''').
_RK4_ERROR_TERMS = (
    (1.0 / 120.0, (1, 4, 0, 0, 0)),
    (1.0 / 80.0, (2, 2, 1, 0, 0)),
    (1.0 / 480.0, (3, 0, 2, 0, 0)),
    (1.0 / 1440.0, (3, 1, 0, 1, 0)),
    (1.0 / 2880.0, (4, 0, 0, 0, 1)),
)


@dataclass(frozen=True)
class RngSpec:
    """Seed bookkeeping for reproducible streams.

    `stream` separates independent experiments under one seed; batch chunk c
    draws from the child sequence spawn_key=(stream, c).  Both are
    non-negative integers, as `np.random.SeedSequence` needs them.  Each
    sequence seeds a PCG64DXSM bit generator (O'Neill 2014), whose draws cost
    about half of Philox's; outputs at a seed differ from release 0.1.0,
    which drew from Philox.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            _require_int(value, name)
            if value < 0:
                raise ContractError(f"{name} must be a non-negative integer, got {value}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64DXSM(seq))

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, chunk))
        return np.random.Generator(np.random.PCG64DXSM(seq))


class MarkSampler:
    """Inverse-CDF sampler for the mark density restricted to an interval.

    The CDF is the trapezoid rule on MARK_CDF_NODES equispaced marks,
    inverted by linear interpolation.  `invert` finds each level's CDF cell
    through a guide table (Chen & Asau 1974; Devroye 1986, ch. III.2):
    bucket b of GUIDE_BUCKETS equal level bins stores the last node with
    cdf <= b / G, so a level's cell is at most a step or two past its
    bucket's entry, instead of a binary search over all nodes.  It then
    applies `np.interp`'s own arithmetic to the same cell, so the marks are
    the ones `np.interp` gives, bit for bit.
    """

    def __init__(self, spec, interval: tuple[float, float]):
        lo, hi = float(interval[0]), float(interval[1])
        if not hi > lo:
            raise ContractError("mark interval must have positive length")
        zs = np.linspace(lo, hi, MARK_CDF_NODES)
        cdf = _cumulative_trapezoid(zs, spec.density_at(zs))
        self.mass = float(cdf[-1])
        if self.mass <= 0.0:
            raise InvalidModelError("mark density vanishes on the sampling interval")
        self.interval = (lo, hi)
        self._zs = zs
        self._cdf = cdf = cdf / self.mass
        levels = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
        self._guide = np.searchsorted(cdf, levels, "right") - 1
        self._upper = cdf[1:]  # the right end of each cell
        with np.errstate(divide="ignore"):  # flat CDF cells, never interpolated in
            self._slope = np.diff(zs) / np.diff(cdf)

    def invert(self, uniforms: np.ndarray) -> np.ndarray:
        """Marks at the given CDF levels in [0, 1].

        A 1-d array of levels in [0, 1) goes through the guide table; the cell
        j is the last node with cdf[j] <= u, as in `np.interp`'s search, and
        the mark is (u - cdf[j]) * slope[j] + z[j], or z[j] where u hits the
        node, as in `np.interp`.  When every level lies in its bucket's cell,
        the usual case, the step-up passes are skipped.  Other input (1.0,
        NaN, other shapes) is left to `np.interp` itself.
        """
        u = np.asarray(uniforms, dtype=float)
        if u.ndim != 1 or u.size == 0 or not (u.min() >= 0.0 and u.max() < 1.0):
            return np.interp(u, self._cdf, self._zs)
        upper = self._upper
        # u * G is exact (G is a power of two), so guide[b] <= j for b = floor(u G)
        j = self._guide[(u * GUIDE_BUCKETS).astype(np.intp)]
        step = upper[j] <= u
        if step.any():
            j += step
            j += upper[j] <= u
            far = upper[j] <= u
            if far.any():
                j[far] = np.searchsorted(self._cdf, u[far], "right") - 1
        zj = self._zs[j]
        mark = u - self._cdf[j]
        hit = mark == 0.0  # u == cdf[j]
        with np.errstate(over="ignore", invalid="ignore"):
            mark *= self._slope[j]
            mark += zj
        np.copyto(mark, zj, where=hit)
        return mark

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.invert(rng.uniform(0.0, 1.0, size))


@dataclass(frozen=True)
class JumpEvent:
    """One candidate of the thinning stream and what became of it."""

    time: float
    kind: str  # "jump", "reject", "skip" (outside window), "drift"
    pre: float
    post: float
    mark: float = math.nan
    u: float = math.nan
    v: float = math.nan


@dataclass(frozen=True)
class Trajectory:
    x0: float
    t_end: float
    times: np.ndarray
    states: np.ndarray
    events: tuple[JumpEvent, ...]
    trunc: int

    @property
    def terminal(self) -> float:
        return float(self.states[-1])

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)


@dataclass(frozen=True)
class RegularizingJumpRecord:
    """First candidate accepted by both the rate and the filtered kernel."""

    tau: float
    pre: float
    post: float
    mark: float


def flow_step(coeffs: CoefficientSet) -> float:
    """The default RK4 step of the drift flow: the largest h with
    C(b) h^4 <= FLOW_TOL, for C(b) the bound on the h^5 term of RK4's local
    error (`_RK4_ERROR_TERMS`; Hairer, Norsett & Wanner, Solving ODEs I,
    II.1-3) with each derivative of b replaced by its sup M_d on the audit
    grid.  The budget is per unit time, so the step does not depend on the
    horizon.

    Orders d up to D = min(4, b.smooth_order) are read off the drift's exact
    derivatives.  Orders above D (a `tabulated` or `smoothstep_bump` drift)
    are bounded through the drift's rate L = max_{1<=d<=D} (M_d M_0^(d-1))^(1/d),
    as M_d = L^d / M_0^(d-1): the scaling that every order up to D obeys,
    under which each of the five terms is at most M_0 L^4.  For x' = -L x
    on |x| <= X this is M_0 = X L, M_1 = L and C = X L^5 / 120.  The bound
    holds on the audit window; the step is inf when it is 0 (a drift
    constant on the window, which RK4 follows exactly in one step).  A drift
    that is not Lipschitz (smooth order below 1) has no such bound and is
    refused: its step must be set as `max_step`.
    """
    order = coeffs.b.smooth_order
    top = 4 if order is None else min(4, order)
    if top < 1:
        raise ContractError(
            f"drift smooth order {order} gives no RK4 error bound; set max_step"
        )
    sups = [coeffs._grid_sup(coeffs.b, d, "drift") for d in range(top + 1)]
    m0 = sups[0]
    rate = max((sups[d] * m0 ** (d - 1)) ** (1.0 / d) for d in range(1, top + 1))
    sups += [rate**d / m0 ** (d - 1) if m0 > 0.0 else 0.0 for d in range(top + 1, 5)]
    bound = sum(
        c * math.prod(m**p for m, p in zip(sups, powers)) for c, powers in _RK4_ERROR_TERMS
    )
    return (FLOW_TOL / bound) ** 0.25 if bound > 0.0 else math.inf


def _resolve_step(coeffs: CoefficientSet, max_step: float | None, i: int | None) -> float | None:
    """One entry point's RK4 step: an explicit `max_step`, which must be
    positive and finite and is refused on the poissonized chain `i`
    (`model._check_flow_step`), else `flow_step`; None where nothing flows
    (a zero drift, or the poissonized chain), which never evaluates the
    rule."""
    _check_flow_step(max_step, i)
    if max_step is not None:
        return max_step
    if i is not None or coeffs.b.is_zero:
        return None
    return flow_step(coeffs)


def _drift_flow_batch(coeffs, x: np.ndarray, seg: np.ndarray, step: float) -> np.ndarray:
    """RK4 flow of each run over its own segment length.

    Run r takes ceil(seg_r / step) equal steps, at least one when seg_r > 0
    (an infinite step: one step per segment), so its arithmetic depends on
    its own segment alone.  The runs are sorted once, most steps first, so
    the runs still moving in each sweep are a prefix of the sorted arrays.
    """
    if x.size == 0 or coeffs.b.is_zero:
        return x
    steps = np.maximum(np.ceil(seg / step), seg > 0.0).astype(np.int64)
    order = np.argsort(-steps)
    steps = steps[order]
    hs = seg[order] / np.maximum(steps, 1)
    xs = x[order]
    # sweep k moves the runs with more than k steps: the first moving[k]
    moving = steps.size - np.searchsorted(steps[::-1], np.arange(steps[0]), "right")
    b = coeffs.b.value
    with np.errstate(over="ignore", invalid="ignore"):
        for m in moving:
            xm, hm = xs[:m], hs[:m]
            k1 = np.asarray(b(xm), dtype=float)
            k2 = np.asarray(b(xm + 0.5 * hm * k1), dtype=float)
            k3 = np.asarray(b(xm + 0.5 * hm * k2), dtype=float)
            k4 = np.asarray(b(xm + hm * k3), dtype=float)
            xs[:m] = xm + hm * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    if not np.all(np.isfinite(xs)) or np.max(np.abs(xs)) > BLOW_UP:
        raise BlowUpError("drift flow left the finite range in a batch segment")
    out = np.empty_like(xs)
    out[order] = xs
    return out


def _candidate_frame(coeffs: CoefficientSet, trunc: int, couple_top: int | None):
    """Sampling window, active window, and candidate rate for the thinning
    stream.  With coupling, marks are drawn from the larger window and those
    outside the active one are skipped, so streams at different truncations
    share every draw."""
    active = coeffs.q.trunc_interval(trunc)
    sample_from = active if couple_top is None else coeffs.q.trunc_interval(couple_top)
    if couple_top is not None and couple_top < trunc:
        raise ContractError("coupling window must contain the active truncation")
    ubar = coeffs.rate_bound()  # zero: no jump stream, pure drift
    if ubar == 0.0:
        return None, active, 0.0, 0.0
    sampler = MarkSampler(coeffs.q, sample_from)
    return sampler, active, ubar, ubar * sampler.mass


@dataclass(frozen=True)
class _Round:
    """One candidate for each alive run `idx`, in run order.

    `landed` marks candidates at or before t_end (a run whose candidate did
    not land has drifted to t_end and is done).  Of the landed ones, `kick`
    marks drift kicks, `acc` the accepted jumps and `kept` the jumps the
    filtered kernel also kept (None when not filtering).  `pre` and `post`
    are the states just before and after each candidate, `levels` the CDF
    levels of the marks (unset without a mark sampler); a recorder inverts
    the ones it reads with `MarkSampler.invert`, element by element, so
    each mark has the engine's bits.
    """

    idx: np.ndarray
    t_next: np.ndarray
    landed: np.ndarray
    kick: np.ndarray
    acc: np.ndarray
    kept: np.ndarray | None
    pre: np.ndarray
    post: np.ndarray
    levels: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _check_state(values: np.ndarray) -> None:
    # NaN fails the comparison, so this also refuses non-finite states
    if not np.all(np.abs(values) <= BLOW_UP):
        raise BlowUpError("state blew up at a thinning candidate")


def _thinning(
    coeffs, x: np.ndarray, t_end: float, gens: list[np.random.Generator], sizes: list[int],
    frame, i: int | None, step: float | None, on_round,
    kernels: KernelDecomposition | None = None, filter_n: int | None = None,
) -> np.ndarray:
    """The thinning engine: candidate rounds for a group of chunks, in lockstep.

    `x` holds the initial states, chunk after chunk (`sizes[c]` runs drawing
    from `gens[c]`), and is advanced in place to t_end >= 0 (a batch passes
    its group's slice of the terminal states); the return value is each
    run's number of accepted jumps.  Every buffer is sized by the group, so
    `simulate_batch` bounds this call's memory through GROUP_RUNS.  `frame`
    comes from `_candidate_frame`; `i` selects the drift-poissonized chain
    (None: the exact flow); `step` is the flow's RK4 step from
    `_resolve_step` (None when nothing flows); `filter_n` fills `kept` from
    the n-th filtered kernel.  The entry points check the horizon and the
    initial states (`_initial_states`) and resolve the step before they
    call here, so before any draw.

    The engine holds ids, clocks, states and jump counts for the alive runs
    only, in run order, in the front of buffers made once per call; after a
    round in which some candidate did not land it moves the others forward,
    through one index array of the landed ones.  Each chunk's share of a round is
    the slice `searchsorted(ids, offsets)` gives.  A run's terminal state and jump
    count are written out once: when its candidate does not land, or when
    `on_round` stops the engine.  Per round, every chunk with alive runs
    draws from its own generator, each sized by its alive count: gaps,
    [kick w], mark levels, u, v.  The draws go straight into one round
    buffer as standard exponentials and uniforms on [0, 1), and are scaled
    once per round (gaps by 1 / rate, u by ubar): numpy's `exponential(s)`
    and `uniform(0, ubar)` are those same products, so the bytes are theirs.
    A chunk's draws are therefore the same however chunks are grouped, and
    a batch of one on a caller's generator is the same run as inside a
    batch.

    Only the states that move are computed and checked: h and the filter
    ratio at the accepted jumps, b at the kicks of a nonzero drift (a zero
    drift's kicks move nothing), and the blow-up check on their new states
    (a state that did not move was checked when it was made, the initial
    ones by `_initial_states`).  Marks are inverted at the accepted
    candidates only; an accepted mark outside the active window (a wider
    coupling window's) is a skip.  A zero rate has no sampler and accepts
    nothing.  The round's largest and smallest rates are tested against
    [0, ubar] first; only when one fails (or is NaN) does the model's reach
    rule, `CoefficientSet.check_rate`, read the landed candidates.  With a
    zero bound the exact flow is one drift segment, and the rule reads its
    start and end states.  A round in which every candidate landed skips
    the compaction.  After the states are updated,
    `on_round` (if not None) gets the round's `_Round` (a callback, so no
    round's arrays outlive the next round's); a true return stops the
    engine, and its draws, there.  Compaction only moves values, it never
    recomputes them, so each run's arithmetic and bytes do not depend on
    which other runs are still alive.
    """
    sampler, active, ubar, lam = frame
    m = x.size
    jumps = np.zeros(m, dtype=np.int64)
    if lam == 0.0 and i is None:  # no jumps, no kicks: one drift segment
        coeffs.check_rate(x)
        x[:] = _drift_flow_batch(coeffs, x, np.full(m, t_end), step)
        coeffs.check_rate(x)
        return jumps
    offsets = np.cumsum([0] + list(sizes))
    total = lam if i is None else float(i) + lam
    drift = i is None and not coeffs.b.is_zero
    # a zero drift's kicks move nothing
    kicks_move = i is not None and not coeffs.b.is_zero
    # the alive runs, in run order, with their clocks, states and jump counts
    ids = np.arange(m)
    t = np.zeros(m)
    xs = x.copy()
    nj = np.zeros(m, dtype=np.int64)
    buffers = np.empty((4 if i is None else 5, m))
    while ids.size:
        n = ids.size
        bounds = np.searchsorted(ids, offsets)
        gaps, uni, u, v = buffers[:4, :n]
        wkick = buffers[4, :n] if i is not None else None
        for gen, lo, hi in zip(gens, bounds[:-1], bounds[1:]):
            if hi == lo:
                continue
            gen.standard_exponential(out=gaps[lo:hi])
            if i is not None:
                gen.random(out=wkick[lo:hi])
            if sampler is not None:
                gen.random(out=uni[lo:hi])
            gen.random(out=u[lo:hi])
            gen.random(out=v[lo:hi])
        gaps *= 1.0 / total
        u *= ubar
        t_next = gaps
        t_next += t
        landed = t_next <= t_end
        pre = xs
        if drift:
            pre = _drift_flow_batch(coeffs, xs, np.minimum(t_next, t_end) - t, step)
        gam = np.asarray(coeffs.gamma.value(pre), dtype=float)
        if not (gam.max() <= ubar and gam.min() >= 0.0):  # rare: did a landed one break it?
            coeffs.check_rate(pre[landed], gam[landed])
        acc = u <= gam if sampler is not None else np.zeros(n, dtype=bool)  # no marks, no jumps
        acc &= landed
        if i is None:
            kick = np.zeros(n, dtype=bool)
        else:
            kick = wkick <= i / total
            kick &= landed
            acc &= ~kick
        post = pre if on_round is None else pre.copy()
        kept = None if filter_n is None else np.zeros(n, dtype=bool)
        moved = []
        if acc.any():
            hit = np.flatnonzero(acc)
            za = sampler.invert(uni[hit])
            inside = (za >= active[0]) & (za <= active[1])
            if not inside.all():  # skips: marks outside the active window
                acc[hit[~inside]] = False
                za = za[inside]
            pa = pre[acc]
            moved.append(pa + np.asarray(coeffs.h.value(pa, za), dtype=float))
            post[acc] = moved[-1]
            if filter_n is not None:
                kept[acc] = v[acc] <= kernels.acceptance(filter_n, pa, za)
        nj += acc
        if kicks_move and kick.any():
            pk = pre[kick]
            moved.append(pk + np.asarray(coeffs.b.value(pk), dtype=float) / i)
            post[kick] = moved[-1]
        for values in moved:
            _check_state(values)
        if on_round is not None and on_round(
            _Round(ids, t_next, landed, kick, acc, kept, pre, post, uni, u, v)
        ):
            x[ids] = post
            jumps[ids] = nj
            return jumps
        done = np.flatnonzero(~landed)
        if done.size == 0:  # every candidate landed: nothing to compact
            t[:] = t_next
            if post is not xs:
                xs[:] = post
            continue
        # a run whose candidate did not land has drifted to t_end: write it
        # out, and move the others to the front of the alive-state buffers
        out = ids[done]
        x[out] = post[done]
        jumps[out] = nj[done]
        keep = np.flatnonzero(landed)
        alive = keep.size
        ids[:alive] = ids[keep]
        t[:alive] = t_next[keep]
        xs[:alive] = post[keep]
        nj[:alive] = nj[keep]
        ids, t, xs, nj = ids[:alive], t[:alive], xs[:alive], nj[:alive]
    return jumps


def _single_path(
    coeffs, x0: float, t_end: float, trunc: int, rng, couple_top, i, max_step
) -> Trajectory:
    """A batch of one of the thinning engine on `rng`, its landed candidates
    recorded as events."""
    _check_horizon(t_end)
    x = _initial_states(x0, 1).copy()
    step = _resolve_step(coeffs, max_step, i)
    frame = _candidate_frame(coeffs, trunc, couple_top)
    sampler, (lo, hi) = frame[0], frame[1]
    events: list[JumpEvent] = []

    def on_round(r: _Round) -> None:
        if not r.landed[0]:
            return
        if len(events) == 1_000_000:
            raise BlowUpError("event budget exhausted; rate is too large to record")
        z = math.nan if sampler is None else float(sampler.invert(r.levels[:1])[0])
        kind = ("drift" if r.kick[0] else "skip" if not lo <= z <= hi
                else "jump" if r.acc[0] else "reject")
        events.append(JumpEvent(
            float(r.t_next[0]), kind, float(r.pre[0]), float(r.post[0]),
            z, float(r.u[0]), float(r.v[0]),
        ))

    _thinning(coeffs, x, t_end, [rng], [1], frame, i, step, on_round)
    times = [0.0] + [e.time for e in events] + [float(t_end)]
    states = [float(x0)] + [e.post for e in events] + [float(x[0])]
    return Trajectory(
        float(x0), float(t_end), np.asarray(times), np.asarray(states), tuple(events), trunc
    )


def simulate_exact(
    coeffs: CoefficientSet,
    x0: float,
    t_end: float,
    trunc: int,
    rng: np.random.Generator,
    max_step: float | None = None,
    couple_top: int | None = None,
) -> Trajectory:
    """One path of the jumping diffusion with truncated marks.

    A batch of one of the thinning engine on `rng`: it draws (gap, mark, u,
    v) per candidate exactly as each run of `simulate_batch` does, so on
    `RngSpec(s).chunk_generator(0)` it is run 0 of a one-run batch under
    `RngSpec(s)`, bit for bit.  v is unused here but keeps the stream
    aligned with filtered runs.  With `couple_top`, marks come from that
    wider window and those outside the `trunc` window are recorded as
    skips, so paths at different truncations share every draw.  `max_step`
    is the drift flow's RK4 step; None derives it (`flow_step`).
    """
    return _single_path(coeffs, x0, t_end, trunc, rng, couple_top, None, max_step)


def simulate_poissonized(
    coeffs: CoefficientSet,
    x0: float,
    t_end: float,
    i: int,
    trunc: int,
    rng: np.random.Generator,
) -> Trajectory:
    """One path of the drift-poissonized chain: drift kicks b(X)/i at rate i
    superposed with the thinned jump stream, no continuous motion, so no RK4
    step bound.  A batch of one of the thinning engine, like `simulate_exact`."""
    _check_drift_index(coeffs, i)
    return _single_path(coeffs, x0, t_end, trunc, rng, None, i, None)


def sample_tau_n(
    coeffs: CoefficientSet,
    kernels: KernelDecomposition,
    x0: float,
    n: int,
    t_max: float,
    trunc: int,
    rng: np.random.Generator,
    max_step: float | None = None,
) -> RegularizingJumpRecord | None:
    """First jump kept by the n-th filtered kernel along one exact path.

    A batch of one of the thinning engine on `rng` that stops at its first
    kept jump, so it draws exactly what `simulate_exact` draws up to that
    candidate: under a common seed the record is one of the exact path's
    jumps.  Returns None when no filtered jump occurs before t_max, which
    may be infinite.  `max_step` is as in `simulate_exact`.
    """
    _check_horizon(t_max, "t_max", finite=False)
    x = _initial_states(x0, 1).copy()
    step = _resolve_step(coeffs, max_step, None)
    kernels._audit_rate(coeffs, n, trunc)
    frame = _candidate_frame(coeffs, trunc, None)
    found: list[RegularizingJumpRecord] = []

    def on_round(r: _Round) -> bool:
        if r.kept[0]:
            found.append(RegularizingJumpRecord(
                float(r.t_next[0]), float(r.pre[0]), float(r.post[0]),
                float(frame[0].invert(r.levels[:1])[0]),
            ))
        return bool(found)

    _thinning(coeffs, x, t_max, [rng], [1], frame, None, step, on_round, kernels, n)
    return found[0] if found else None


def _chunk_sizes(runs: int) -> list[int]:
    base, rem = divmod(runs, N_CHUNKS)
    return [base + 1 if c < rem else base for c in range(N_CHUNKS)]


def _chunk_groups(sizes: list[int], threads: int) -> list[np.ndarray]:
    """The chunks in contiguous groups of at most GROUP_RUNS runs, and at
    least `threads` groups where there are that many chunks.  A chunk is
    never split (that would change its draws), so a chunk of more runs is a
    group of its own.  With k = GROUP_RUNS // (largest chunk), at least 1,
    splitting the chunks into ceil(N_CHUNKS / k) or more parts makes no
    part of more than k chunks."""
    per_group = max(1, GROUP_RUNS // max(sizes))
    count = max(threads, -(-N_CHUNKS // per_group))
    return [g for g in np.array_split(np.arange(N_CHUNKS), count) if g.size]


def simulate_batch(
    coeffs: CoefficientSet,
    x0,
    t_end: float,
    trunc: int,
    rng_spec: RngSpec,
    runs: int,
    i: int | None = None,
    kernels: KernelDecomposition | None = None,
    filter_n: int | None = None,
    max_step: float | None = None,
    threads: int = 1,
) -> dict:
    """Monte Carlo batch of terminal states (and filtered first-jump times).

    `x0` is a common initial state or an array of per-run initial states
    (for matching a spread-out initial density), each finite.  Set `i` for
    the drift-poissonized chain, None for the exact flow.  When `filter_n`
    is given, `tau` holds the first time each run's jumps passed the n-th
    filtered kernel (inf if none did).  `t_end` must be finite.  `max_step`
    is the exact flow's RK4 step, refused with `i`: each run takes
    ceil(segment / max_step) equal steps per segment; None (the default)
    derives it from FLOW_TOL and the drift's bounds (`flow_step`), once.

    The 32 chunks go to the engine in contiguous groups of at most
    GROUP_RUNS runs (or one chunk, where a chunk holds more), and at least
    `threads` groups; they run one after another at `threads=1`, else on a
    pool of `threads` workers.  Each group writes its terminal states, jump
    counts and `tau` into its slice of arrays made once per batch, so the
    engine's buffers scale with the group, not the batch.  Every chunk
    draws from its own substream, so results are byte-identical for any
    grouping and any `threads` value under a fixed RngSpec.
    """
    _check_horizon(t_end)
    _require_int(runs, "runs")
    _require_int(threads, "threads")
    _check_runs(runs)
    if threads < 1:
        raise ContractError(f"threads must be at least 1, got {threads}")
    x0_all = _initial_states(x0, runs)
    if filter_n is not None:
        if kernels is None:
            raise ContractError("filtering needs a kernel decomposition")
        kernels._audit_rate(coeffs, filter_n, trunc)
    if i is not None:
        _check_drift_index(coeffs, i)
    step = _resolve_step(coeffs, max_step, i)
    frame = _candidate_frame(coeffs, trunc, None)
    sizes = _chunk_sizes(runs)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    terminal = np.empty(runs)
    jumps = np.empty(runs, dtype=np.int64)
    tau = None if filter_n is None else np.full(runs, np.inf)

    def run_group(chunks: np.ndarray) -> None:
        lo, hi = offsets[chunks[0]], offsets[chunks[-1] + 1]
        x = terminal[lo:hi]
        x[:] = x0_all[lo:hi]
        on_round = None
        if tau is not None:
            group_tau = tau[lo:hi]

            def on_round(r: _Round) -> None:
                hit = r.idx[r.kept]
                group_tau[hit] = np.minimum(group_tau[hit], r.t_next[r.kept])

        gens = [rng_spec.chunk_generator(int(c)) for c in chunks]
        jumps[lo:hi] = _thinning(coeffs, x, t_end, gens, [sizes[c] for c in chunks], frame,
                                 i, step, on_round, kernels, filter_n)

    groups = _chunk_groups(sizes, threads)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only where a pool is made

        with ThreadPoolExecutor(max_workers=min(threads, len(groups))) as pool:
            list(pool.map(run_group, groups))  # reads every result, so re-raises
    else:
        for group in groups:
            run_group(group)
    out = {
        "terminal": terminal,
        "jumps": jumps,
        "runs": runs,
        "t_end": float(t_end),
        "rate_bound": frame[2],
        "candidate_rate": frame[3],
    }
    if tau is not None:
        out["tau"] = tau
    return out


def _hermite_rows(s: np.ndarray, order: int) -> np.ndarray:
    rows = np.empty((order + 1,) + s.shape)
    rows[0] = 1.0
    if order >= 1:
        rows[1] = s
    for l in range(2, order + 1):
        rows[l] = s * rows[l - 1] - (l - 1) * rows[l - 2]
    return rows


# Binning bounds of the sample estimators (see their docstrings).
KDE_BIN_L1 = 1e-5  # per-sample L1 error of the KDE; int |phi''| = 4 phi(1)
KDE_REACH = 8.0  # kernel cut-off in bandwidths; beyond it e^{-32} ~ 1e-14
KDE_MAX_BINS = 1 << 20  # fine-grid length cap, 8 MB per array
CF_BIN_FLOOR = 0.05  # CF binning error as a fraction of the 1/sqrt(N) floor
_KDE_STEP = math.sqrt(2.0 * KDE_BIN_L1 * math.sqrt(2.0 * math.pi) * math.exp(0.5))


def _finite_samples(samples) -> np.ndarray:
    """The samples as a 1-d float array.  Empty or non-finite input is refused:
    binning would turn NaN or inf into arbitrary node indices."""
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ContractError(f"samples must be a non-empty 1-d array, got shape {s.shape}")
    bad = s.size - int(np.count_nonzero(np.isfinite(s)))
    if bad:
        raise ContractError(f"{bad} of {s.size} samples are not finite")
    return s


def estimate_density(
    samples,
    window: tuple[float, float],
    size: int = 512,
    order: int = 0,
    bandwidth: float | None = None,
) -> GridDensity:
    """Gaussian kernel density (with derivative rows) from terminal samples,
    as a `GridDensity` at time 0 on `size` nodes (an integer, at least 8)
    over a finite window with hi > lo.

    Bandwidth defaults to the Silverman rule; a near-zero sample spread means
    the law has (numerically) an atom and no density estimate is meaningful.

    The samples are linearly binned (Silverman 1982; Wand 1994) onto a fine
    grid that holds every output node, with step delta = spacing / r for the
    least integer r that keeps each sample's L1 binning error
    (delta / h)^2 phi(1) / 2 at or below KDE_BIN_L1.  Each row is then one FFT
    convolution with the sampled kernel (-1)^l He_l(u) phi(u) / h^l.  The
    fine grid reaches KDE_REACH bandwidths past the window; samples farther
    out are dropped, so its length depends on the window, not the samples.
    """
    _check_order(order)
    if order > 4:
        raise ContractError("derivative rows above order 4 are too noisy to estimate")
    lo, hi = _density_grid(window, size, "size")
    size = int(size)  # a numpy integer too: the FFT length takes `bit_length`
    s = _finite_samples(samples)
    if s.size < 100:
        raise ContractError("density estimation needs at least 100 samples")
    span = hi - lo
    if bandwidth is None:
        sd = float(np.std(s))
        q75, q25 = np.percentile(s, [75.0, 25.0])
        spread = min(sd, (q75 - q25) / 1.34) or sd
        bandwidth = 0.9 * spread * s.size ** (-0.2)
        if bandwidth < 1e-12 * span:
            # samples coincide to roundoff: render the atom as one narrow bump
            bandwidth = span / 100.0
    if not 0.0 < bandwidth < math.inf:
        raise ContractError("bandwidth must be positive and finite")
    refine = max(1, math.ceil(span / (size - 1) / (bandwidth * _KDE_STEP)))
    step = span / ((size - 1) * refine)
    reach = math.ceil(KDE_REACH * bandwidth / step)
    bins = (size - 1) * refine + 2 * reach + 1
    if bins > KDE_MAX_BINS:
        raise ContractError(
            f"bandwidth {bandwidth:.3g} is too narrow for {size} nodes on a window of "
            f"width {span:.3g}: binning within the bound needs {bins} bins"
        )
    pos = (s - lo) / step + reach
    pos = pos[(pos >= 0.0) & (pos <= bins - 1)]
    left = np.minimum(pos.astype(np.intp), bins - 2)
    frac = pos - left
    counts = np.bincount(left, 1.0 - frac, bins) + np.bincount(left + 1, frac, bins)
    u = np.arange(-reach, reach + 1) * (step / bandwidth)
    kern = _hermite_rows(u, order) * np.exp(-0.5 * u * u)
    kern *= ((-1.0 / bandwidth) ** np.arange(order + 1))[:, None]
    # linear convolution without wrap-around; node i sits at fine index
    # i * refine + reach, so it reads the product at i * refine + 2 * reach
    nfft = 1 << (bins + 2 * reach - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(counts, nfft) * np.fft.rfft(kern, nfft), nfft)
    stack = conv[:, 2 * reach : bins : refine] / (s.size * bandwidth * math.sqrt(2.0 * math.pi))
    grid = np.linspace(lo, hi, size)
    mass = float(np.trapezoid(stack[0], grid))
    if mass < 0.98:
        raise WindowTooSmallError(
            f"estimation window holds only {mass:.3f} of the sample mass"
        )
    return GridDensity(lo, hi, stack / mass)


def histogram_density(samples, window: tuple[float, float], bins: int = 64) -> GridDensity:
    """Bin-averaged density on `bins` bin centers (an integer, at least 8)
    at time 0, over a finite window with hi > lo; no derivative rows."""
    lo, hi = _density_grid(window, bins, "bins")
    s = _finite_samples(samples)
    counts, edges = np.histogram(s, bins=bins, range=(lo, hi))
    centers = 0.5 * (edges[1:] + edges[:-1])
    vals = counts / (s.size * np.diff(edges))
    return GridDensity(float(centers[0]), float(centers[-1]), vals[None, :])


@dataclass(frozen=True)
class CFEstimate:
    """Empirical characteristic function on a frequency grid.

    `binning_error` bounds |values - direct sum| at every frequency: the
    deterministic error of the gridded estimator, not sampling noise.
    """

    xi: np.ndarray
    values: np.ndarray
    n_samples: int
    binning_error: float = 0.0

    @property
    def stderr(self) -> float:
        return 1.0 / math.sqrt(self.n_samples)

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    def usable(self) -> np.ndarray:
        """Mask of frequencies where the magnitude stands FLOOR_MULT standard
        errors clear of the 1/sqrt(N) sampling floor."""
        return self.magnitude() >= FLOOR_MULT * self.stderr


def empirical_cf(samples, xi) -> CFEstimate:
    """Average of exp(i xi X) over the sample, from the sample on a grid.

    Each sample is spread onto the 4 grid nodes around it with cubic Lagrange
    weights.  Interpolating e^{i xi x} through 4 nodes of step h errs by at
    most (9/16) (xi h)^4 / 24 (Hermite-Genocchi), for each sample and so for
    their mean; h holds this to CF_BIN_FLOOR / sqrt(N) at the largest |xi|,
    and the estimate carries it as `binning_error`.  The grid is anchored at
    min(X), so a point mass sits on a node and is reproduced exactly.  The CF
    is then an exact sum over the occupied nodes, so time and memory scale
    with N plus that node count, whatever the sample's range.

    The grid may be symmetric about 0 or one-sided; values at -xi are the
    conjugates of those at xi by construction, and xi = 0 gives exactly 1.
    """
    s = _finite_samples(samples)
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size < 1 or not np.all(np.isfinite(xi)):
        raise ContractError("frequency grid must be a finite 1-d array")
    top = float(np.max(np.abs(xi)))
    target = CF_BIN_FLOOR / math.sqrt(s.size)
    h = (target * 24.0 * 16.0 / 9.0) ** 0.25 / top if top > 0.0 else 1.0
    x = np.sort(s)
    pos = (x - x[0]) / h
    base = np.floor(pos)
    t = pos - base
    starts = np.flatnonzero(np.concatenate([[True], np.diff(base) > 0.0]))
    # Lagrange weights of the nodes base + k, summed per occupied base node
    offsets = (-1.0, 0.0, 1.0, 2.0)
    node_w = np.empty((starts.size, 4))
    for col, k in enumerate(offsets):
        w = np.ones_like(t)
        for m in offsets:
            if m != k:
                w *= (t - m) / (k - m)
        node_w[:, col] = np.add.reduceat(w, starts)
    nodes = x[0] + base[starts] * h
    shift = np.exp(1j * np.multiply.outer(xi, h * np.asarray(offsets)))
    acc = np.zeros(xi.size, dtype=complex)
    for start in range(0, nodes.size, 4096):
        phase = np.exp(1j * np.multiply.outer(xi, nodes[start : start + 4096]))
        acc += np.sum((phase @ node_w[start : start + 4096]) * shift, axis=1)
    values = acc / s.size
    values[xi == 0.0] = 1.0  # each sample's weights sum to one
    return CFEstimate(xi, values, int(s.size), 9.0 / 16.0 * (top * h) ** 4 / 24.0)
