"""Density evolution: adjoint action, duality, mass, norm propagation."""

import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import jumpsmooth as js

from conftest import bench_workload


def _translate_model(beta=0.25):
    h = js.JumpAmplitude(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0,))
    return js.CoefficientSet(
        b=js.constant(beta), gamma=js.constant(0.0), h=h,
        eta=js.ExpDecay(0.1, 1.0), q=q, k=2, y_window=(-4.0, 4.0),
    )


# ---------------------------------------------------------------------------
# grid densities
# ---------------------------------------------------------------------------


def test_gaussian_density_mass_and_shape():
    g = js.gaussian_density((-8.0, 8.0), 2001, order=2, mean=0.5, sigma=1.0)
    assert g.mass() == pytest.approx(1.0, abs=1e-9)
    assert g.values.shape == (3, 2001)
    peak = g.grid[np.argmax(g.values[0])]
    assert peak == pytest.approx(0.5, abs=0.01)


def test_sobolev_norm_normal_oracle():
    # W^{1,1} of a standard normal: 1 + 2 phi(0) = 1 + 2/sqrt(2 pi)
    g = js.gaussian_density((-8.0, 8.0), 4001, order=1)
    want = 1.0 + 2.0 / math.sqrt(2.0 * math.pi)
    assert js.sobolev_norm(g) == pytest.approx(want, rel=1e-4)
    assert js.sobolev_norm(g, order=0) == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(js.ContractError):
        js.sobolev_norm(g, order=3)


@pytest.mark.parametrize(
    "window", [(8.0, -8.0), (1.0, 1.0), (-8.0, math.inf), (math.nan, 8.0)],
    ids=["reversed", "empty", "infinite", "nan"],
)
def test_grid_densities_share_the_density_window_rule(window):
    # a reversed window raised "empty density window", and an infinite one
    # was accepted by GridDensity and sampled as NaN by gaussian_density
    message = "density window must be finite with hi > lo"
    with pytest.raises(js.ContractError, match=message):
        js.gaussian_density(window, 64, 1)
    with pytest.raises(js.ContractError, match=message):
        js.GridDensity(window[0], window[1], np.ones((1, 64)))


def test_grid_density_validation():
    with pytest.raises(js.ContractError):
        js.GridDensity(0.0, 1.0, np.ones((1, 4)), 0.0)  # too few nodes
    with pytest.raises(js.ContractError):
        js.GridDensity(1.0, 1.0, np.ones((1, 32)), 0.0)  # empty window


# ---------------------------------------------------------------------------
# adjoint operator
# ---------------------------------------------------------------------------


def test_adjoint_vanishes_without_dynamics():
    m = _translate_model(0.0)
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(0.0), h=m.h, eta=m.eta, q=m.q,
        k=2, y_window=(-4.0, 4.0),
    )
    g = js.gaussian_density((-6.0, 6.0), 512, order=2)
    out = js.AdjointOperator(m, g, js.EvolutionConfig(i=8)).apply(g.values)
    assert np.max(np.abs(out)) <= 1e-10


def test_adjoint_mass_neutral(wobble_model):
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    out = js.AdjointOperator(wobble_model, g, js.EvolutionConfig(i=8, trunc=3)).apply(g.values)
    assert abs(np.trapezoid(out[0], dx=g.spacing)) <= 1e-8


@pytest.mark.parametrize("phi", [
    js.Affine(1.0, 0.0),
    js.Affine(0.0, 1.0),
    js.FunctionProduct(js.Affine(0.0, 1.0), js.Affine(0.0, 1.0)),  # y^2
    js.Sinusoidal(1.0, 1.0),
    js.GaussBump(1.0, 0.3, 1.2),
])
def test_duality_residual_small(wobble_model, phi):
    g = js.gaussian_density((-8.0, 8.0), 2048, order=2)
    out = js.duality_residual(wobble_model, g, phi, js.EvolutionConfig(i=8, trunc=3))
    assert out["residual"] <= 1e-6


# apply() at nine nodes per order, recorded with the per-step
# gather-and-contract operator that the assembled one replaced.  Wobble jumps
# translate the state (the jump transfer table vanishes); ripple jumps depend
# on the state, so its rates also pin the jump transfer terms.  Re-recorded
# when the jump part came to pull back the product gamma g: entries moved by
# at most 6.0e-8 (wobble) and 3.8e-6 (ripple) of the largest.
_RECORDED_RATES = {
    "wobble_model": (
        dict(window=(-8.0, 8.0), size=1024, sigma=1.0, trunc=3),
        np.linspace(320, 703, 9).round().astype(int),
        [[-0.0006991152703098632, 0.008694135250028406, 0.015229058221144343,
          -0.07269327464836273, -0.13273344744356264, 0.01809668333031711,
          0.10787180646649608, 0.04776721963249378, 0.006884247282697823],
         [0.002290473728708782, 0.023925264230126947, -0.036471603009863796,
          -0.1709735396236779, 0.07864112210285035, 0.24251944883717258,
          -0.019759432295732626, -0.08944729691441355, -0.02263079910462141],
         [0.01650872391258905, 0.019232584822698462, -0.20639479283341422,
          0.012130850954416017, 0.5070427037618248, -0.17242665475926056,
          -0.312046771940894, 0.07545928396857027, 0.06118191222432168]],
    ),
    "ripple_model": (
        dict(window=(-6.0, 6.0), size=512, sigma=0.8, trunc=1),
        np.linspace(160, 351, 9).round().astype(int),
        [[0.0018035145146891203, -0.016793539425984105, -0.10392627120494224,
          -0.19282727487926832, -0.04592356105271356, 0.17602567084528542,
          0.1456201788508963, 0.037249745301128984, 0.002261081273162501],
         [-0.003552419168440943, -0.08161473383785206, -0.21428592431843563,
          -0.00835764424451213, 0.48603891930787957, 0.19691399992674175,
          -0.21338139225859298, -0.12706195361903455, -0.01747803385254086],
         [-0.04690389136705814, -0.24289703305237864, -0.08600437700977848,
          0.8613594891953451, 0.36994507654576303, -1.0815394458819814,
          -0.18738958879889167, 0.289029641852777, 0.08748364464206226]],
    ),
}


@pytest.mark.parametrize("model_name", sorted(_RECORDED_RATES))
def test_adjoint_matches_recorded_rates(request, model_name):
    setup, nodes, want = _RECORDED_RATES[model_name]
    model = request.getfixturevalue(model_name)
    g = js.gaussian_density(setup["window"], setup["size"], order=2, sigma=setup["sigma"])
    op = js.AdjointOperator(model, g, js.EvolutionConfig(i=8, trunc=setup["trunc"]))
    rate = op.apply(g.values)
    np.testing.assert_allclose(rate[:, nodes], want, rtol=1e-12, atol=0.0)
    with pytest.raises(js.ContractError):
        op.apply(g.values[:, :-1])


# (model fixture, window, trunc) of the operator-build tests
_BUILDS = {
    "wobble_model": ((-8.0, 8.0), 3),
    "ripple_model": ((-6.0, 6.0), 1),
    "power_model": ((-6.0, 8.0), 1),
}


def _build(request, model_name, size=512, **cfg):
    window, trunc = _BUILDS[model_name]
    model = request.getfixturevalue(model_name)
    g = js.gaussian_density(window, size, order=2, sigma=0.8)
    return model, g, js.EvolutionConfig(i=8, trunc=trunc, **cfg)


def _counting(monkeypatch, name, fn=None):
    """Count the calls of fokker_planck's `name`, optionally replaced by fn."""
    calls = []
    inner = fn or getattr(js.fokker_planck, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(js.fokker_planck, name, counted)
    return calls


@pytest.mark.parametrize("model_name", sorted(_BUILDS))
def test_blocked_jump_build_matches_per_mark_reference(request, monkeypatch, model_name):
    # the reference solves the pre-images one scalar mark at a time; the
    # blocked build, one solve per block of nodes, must give the same
    # triples: exactly where the coefficients' array arithmetic rounds as
    # their scalar calls do (wobble), within 1e-15 of the largest entry
    # through power laws.  The Newton build (ripple) solves every block of
    # nodes; an amplitude h = A(z) its first block and its top edge rows.
    model, g, cfg = _build(request, model_name)
    blocked = _counting(monkeypatch, "transfer_alpha_grid")
    got = js.AdjointOperator(model, g, cfg).jump
    per_block = math.ceil(g.size / js.fokker_planck.JUMP_BLOCK_NODES)
    assert len(blocked) == (per_block if model_name == "ripple_model" else 2)

    def per_mark(coeffs, y, z, k):
        tables = [js.calculus.transfer_alpha_grid(coeffs, y, float(zm), k) for zm in z]
        return tuple(np.stack([t[c] for t in tables], axis=-1) for c in range(2))

    _counting(monkeypatch, "transfer_alpha_grid", per_mark)
    want = js.AdjointOperator(model, g, cfg).jump
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    if model_name == "wobble_model":
        np.testing.assert_array_equal(got.data, want.data)
    else:
        assert np.max(np.abs(got.data - want.data)) <= 1e-15 * np.max(np.abs(want.data))


def _bincount_product(mat, x):
    # a CSR product as a bincount over its stored entries, duplicates included
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    return np.bincount(rows, weights=x[mat.indices] * mat.data, minlength=mat.shape[0])


@pytest.mark.parametrize("model_name", sorted(_BUILDS))
def test_reduceat_apply_matches_bincount(request, model_name):
    # apply is the drift part plus T after Gamma; a T of one (size, size)
    # block reads each row of Gamma g
    model, g, cfg = _build(request, model_name)
    op = js.AdjointOperator(model, g, cfg)
    rng = np.random.default_rng(5)
    for vals in (g.values, rng.normal(size=g.values.shape)):
        rated = _bincount_product(op.rate, vals.ravel())
        if op.jump.shape[0] == g.size:
            pulled = np.concatenate([_bincount_product(op.jump, row)
                                     for row in rated.reshape(vals.shape)])
        else:
            pulled = _bincount_product(op.jump, rated)
        want = _bincount_product(op.drift, vals.ravel()) + pulled
        got = op.apply(vals).ravel()
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _bincount_merge(op, base, w, coef, first, blocks):
    # the per-block merge that the stencil product replaced: each block
    # (l, r) of `blocks` multiplies its coefficients into the weights and
    # bincounts the (node, stencil node) keys; a column's node comes from the
    # layout, (node, mark), over the nodes first, first + 1, ...
    n, nodes = op.size, base.shape[0]
    node = np.repeat(np.arange(nodes), base.shape[1])
    base, w = base.ravel(), w.reshape(-1, 4)
    low, high = np.full(nodes, np.iinfo(base.dtype).max), np.full(nodes, np.iinfo(base.dtype).min)
    np.minimum.at(low, node, base)
    np.maximum.at(high, node, base)
    width = int(np.max(high - low)) + 4
    keys = (((node * width - low[node]) + base)[:, None] + np.arange(4)).ravel()
    slots = np.arange(nodes * width)
    srow = first + slots // width
    scol = low[slots // width] + slots % width
    parts = []
    for b, (l, r) in enumerate(blocks):
        entry = coef[:, b, None] * w
        data = np.bincount(keys, weights=entry.ravel(), minlength=nodes * width)
        keep = data != 0.0
        parts.append((l * n + srow[keep], r * n + scol[keep], data[keep]))
    return parts


def _bench_evolution(name):
    """(model, initial stack, EvolutionConfig) of a bench workload."""
    cfg = bench_workload(name, load=True)
    ev = cfg.evolution
    init = js.gaussian_density(ev.window, ev.nodes, cfg.coeffs.k, ev.initial_mean,
                               ev.initial_sigma)
    econf = js.EvolutionConfig(i=ev.i, dt=ev.dt, trunc=ev.trunc, quad_nodes=ev.quad_nodes)
    return cfg.coeffs, init, econf


@pytest.mark.parametrize("setting", sorted(_BUILDS) + [
    "bench:power", "bench:wobble", "ragged:ripple_model", "ragged:wobble_model"])
def test_stencil_merge_matches_per_block_bincount(request, monkeypatch, setting):
    # one sparse product sums each slot in the bincount's (mark, offset)
    # order with the same products, so both parts repeat to the byte; the
    # ragged builds take 300 nodes: the Newton build's last block is short,
    # and the h = A(z) build merges its 12 bottom and 4 top edge rows
    kind, _, name = setting.rpartition(":")
    if kind == "bench":
        model, g, cfg = _bench_evolution(name)
    else:
        model, g, cfg = _build(request, name, **({"size": 300} if kind else {}))
    got = js.AdjointOperator(model, g, cfg)
    nodes = []
    monkeypatch.setattr(js.fokker_planck.AdjointOperator, "_merge_stencils",
                        lambda *a: nodes.append(len(a[1])) or _bincount_merge(*a))
    want = js.AdjointOperator(model, g, cfg)
    if kind == "ragged":
        block = js.fokker_planck.JUMP_BLOCK_NODES
        assert 300 % block
        layout = ([block] * (300 // block) + [300 % block] if name == "ripple_model"
                  else [12, 4])
        assert nodes[-len(layout):] == layout
    for part in ("drift", "jump"):
        a, b = getattr(got, part), getattr(want, part)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()


def _affine_slope_model():
    """The bench wobble model with jumps h = 0.4 e^(-z) + 0.1 y: affine in
    the state with B = 0.1, so its transfer table is diagonal but not zero."""
    model = _bench_evolution("wobble")[0]
    h = js.JumpAmplitude(((js.constant(0.4), js.ExpDecay(1.0, 1.0)),
                          (js.Affine(0.0, 0.1), js.constant(1.0))))
    return dataclasses.replace(model, h=h)


# the blocks (l, r) of T that each build merges at k = 3: B = 0 (wobble,
# power) leaves the one block (0, 0); B = 0.1, whose table is zero off the
# diagonal, and the ripple amplitude, not affine in the state, take every block
_EVERY_BLOCK = [(l, r) for l in range(4) for r in range(l + 1)]
_K3_BUILDS = {
    "wobble": ("bench", [(0, 0)]),
    "power": ("bench", [(0, 0)]),
    "affine": ("affine", _EVERY_BLOCK),
    "ripple": ("ripple_model", _EVERY_BLOCK),
}


@pytest.mark.parametrize("name", sorted(_K3_BUILDS))
def test_k3_jump_build_matches_the_inline_binomial_loops(request, monkeypatch, name):
    # at k = 3 the binomials are not all powers of 2, so each product's
    # rounding shows: T's coefficients (delta_lr + alpha[l, r]) wq, Gamma's
    # blocks C(l, r) gamma^(l - r) at the nodes and the local loss must
    # repeat the inline loops to the byte
    kind, blocks = _K3_BUILDS[name]
    if kind == "bench":
        model, init, cfg = _bench_evolution(name)
        window = (init.lo, init.hi)
    elif kind == "affine":
        model, window, cfg = _affine_slope_model(), (-8.0, 8.0), js.EvolutionConfig(i=8, trunc=2)
    else:
        model, g, cfg = _build(request, kind)
        window = (g.lo, g.hi)
    model = dataclasses.replace(model, k=3)
    g = js.gaussian_density(window, 256, 3, sigma=0.5)
    tables, merged, marks = [], [], []
    solve = js.fokker_planck.transfer_alpha_grid
    monkeypatch.setattr(js.fokker_planck, "transfer_alpha_grid",
                        lambda *a: tables.append(solve(*a)) or tables[-1])
    merge, part = js.AdjointOperator._merge_stencils, js.AdjointOperator._jump_part
    monkeypatch.setattr(js.AdjointOperator, "_merge_stencils",
                        lambda self, base, w, coef, first, bl:
                        merged.append((coef, bl)) or merge(self, base, w, coef, first, bl))
    monkeypatch.setattr(js.AdjointOperator, "_jump_part",
                        lambda self, z, wq: marks.append(wq) or part(self, z, wq))
    op = js.AdjointOperator(model, g, dataclasses.replace(cfg, quad_nodes=64))
    (wq,) = marks
    # the last merges, one per block of nodes, are the jump part's; each
    # merges the first rows of its solve (the h = A(z) build merges only the
    # bottom edge rows of its first block)
    assert len(tables) > 1
    jump_merges = merged[-len(tables):]
    assert all(bl == blocks for _, bl in jump_merges)
    for (alpha, _), (coef, _) in zip(tables, jump_merges):
        for b, (l, r) in enumerate(blocks):
            delta = 1.0 if l == r else 0.0
            want = np.stack([(delta + alpha[l, r, j]) * wq for j in range(len(coef) // wq.size)])
            assert coef[:, b].tobytes() == want.ravel().tobytes()
    n = g.size
    gamma = model.gamma.stack(op.grid, 3)
    rate = op.rate.toarray()
    for l in range(4):
        for r in range(4):
            block = rate[l * n:(l + 1) * n, r * n:(r + 1) * n]
            want = math.comb(l, r) * gamma[l - r] if r <= l else np.zeros(n)
            assert np.diag(block).tobytes() == want.tobytes()
            assert not np.any(block - np.diag(np.diag(block)))
    # each row of T ends with its local loss, on the diagonal
    last = op.jump.indptr[1:] - 1
    np.testing.assert_array_equal(op.jump.indices[last], np.arange(op.jump.shape[0]))
    assert np.all(op.jump.data[last] == -op.qmass)
    assert op.jump.shape[0] == (n if blocks == [(0, 0)] else 4 * n)


@pytest.mark.parametrize("name", ["wobble", "power"])
def test_build_stacks_the_rate_once_on_the_grid(monkeypatch, name):
    # Gamma takes the rate's derivatives at the nodes, in one stack; the
    # (node, mark) pre-images never see the rate
    model, g, cfg = _bench_evolution(name)
    gamma = model.gamma
    stacks, derivatives = [], []
    family = type(gamma)
    stack, derivative = family.stack, family.derivative

    def counted_stack(self, x, order):
        if self is gamma:
            stacks.append(np.shape(x))
        return stack(self, x, order)

    def counted_derivative(self, x, l):
        if self is gamma:
            derivatives.append(np.shape(x))
        return derivative(self, x, l)

    monkeypatch.setattr(family, "stack", counted_stack)
    monkeypatch.setattr(family, "derivative", counted_derivative)
    js.AdjointOperator(model, g, cfg)
    assert stacks == [(g.size,)]
    assert all(len(shape) < 2 for shape in derivatives)


def _rk4(op, vals, t_end, dt):
    """Classical RK4 of `op.apply` from `vals` to t_end, in equal steps of at
    most dt."""
    steps = math.ceil(t_end / dt)
    h = t_end / steps
    for _ in range(steps):
        k1 = op.apply(vals)
        k2 = op.apply(vals + 0.5 * h * k1)
        k3 = op.apply(vals + 0.5 * h * k2)
        k4 = op.apply(vals + h * k3)
        vals = vals + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return vals


# The grid error of the evolution, L1 per row 0 / 1 / 2 of the final stack:
# the gap between a run on `nodes` nodes and one on the 4x finer nested grid
# (4 (nodes - 1) + 1 nodes), both RK4 at a quarter of the stable step, so
# that the gap is the grid's alone.  (A fine run at a sixteenth of the step
# moves no gap in its first 3 digits, at 4x the time.)  `parent` is each
# gap as measured with this harness when the jump part still multiplied by
# the rate at the (node, mark) pre-images; pulling back the product gamma g
# must stay within 1.6x of it on every row.
# name: (model, window, nodes, t_end, trunc, sigma, parent), the model a
# bench workload's, a fixture's or the affine one's
_NESTED_GRIDS = {
    "wobble": ("wobble", (-8.0, 8.0), 1024, 0.2, 2, 0.5, [6.52e-08, 3.24e-07, 1.03e-06]),
    "power": ("power", (-6.0, 8.0), 1024, 0.15, 1, 0.5, [3.28e-08, 1.36e-07, 6.27e-07]),
    # the README model (the wobble workload's) on its `evolution` stanza
    "readme": ("wobble", (-8.0, 8.0), 512, 0.3, 2, 0.8, [2.60e-07, 7.00e-07, 1.63e-06]),
    # not affine in the state: the Newton pre-images and a full table
    "ripple": ("ripple_model", (-6.0, 6.0), 1024, 0.2, 1, 0.8, [4.77e-09, 1.19e-08, 3.67e-08]),
    "affine": ("affine", (-8.0, 8.0), 1024, 0.3, 2, 0.8, [1.61e-08, 3.32e-08, 8.38e-08]),
}


@pytest.mark.parametrize("name", sorted(_NESTED_GRIDS))
def test_nested_grid_error_within_the_parent_scheme(request, name):
    source, window, nodes, t_end, trunc, sigma, parent = _NESTED_GRIDS[name]
    if source == "affine":
        model = _affine_slope_model()
    elif source.endswith("_model"):
        model = request.getfixturevalue(source)
    else:
        model = _bench_evolution(source)[0]
    cfg = js.EvolutionConfig(i=8, trunc=trunc)
    runs = []
    for size in (nodes, 4 * (nodes - 1) + 1):
        g = js.gaussian_density(window, size, model.k, 0.0, sigma)
        op = js.AdjointOperator(model, g, cfg)
        runs.append(_rk4(op, g.values, t_end, op.stable_dt() / 4.0))
    coarse, fine = runs[0], runs[1][:, ::4]
    gap = np.trapezoid(np.abs(coarse - fine), dx=(window[1] - window[0]) / (nodes - 1), axis=1)
    assert np.all(gap <= 1.6 * np.asarray(parent)), gap


def test_collapse_build_raises_after_one_failing_block(collapse_model, monkeypatch):
    # marks in (1, 2) send every state to 0, so no pre-image can be
    # bracketed; the build stops in its first solve, over every mark of the
    # first block of nodes, with the message of the per-mark build
    calls = _counting(monkeypatch, "transfer_alpha_grid")
    g = js.gaussian_density((-3.0, 3.0), 512, order=1)
    cfg = js.EvolutionConfig(i=8)
    with pytest.raises(js.DomainEscapeError) as err:
        js.AdjointOperator(collapse_model, g, cfg)
    assert str(err.value) == (
        "could not bracket the pre-image: monotonicity or the jump size bound "
        "is violated on this model"
    )
    assert len(calls) == 1 and len(calls[0][2]) == cfg.quad_nodes
    assert len(calls[0][1]) == js.fokker_planck.JUMP_BLOCK_NODES


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 10])
def test_jump_block_size_moves_no_byte(request, monkeypatch, block):
    # each node's row takes its own columns in ascending mark order at any
    # block size, so both parts and the escape fraction repeat to the byte
    builds = [_build(request, name, size=256) for name in sorted(_BUILDS)]
    # a window that the marks leave: 8.6% of the mark mass escapes
    model, g, cfg = builds[-1]
    builds.append((model, js.gaussian_density((-0.6, 0.6), 256, 2, sigma=0.2), cfg))
    want = [js.AdjointOperator(*b) for b in builds]
    assert want[-1].escape_fraction > 0.08
    monkeypatch.setattr(js.fokker_planck, "JUMP_BLOCK_NODES", block)
    for args, ref in zip(builds, want):
        op = js.AdjointOperator(*args)
        assert op.escape_fraction == ref.escape_fraction
        for part in ("drift", "jump"):
            a, b = getattr(op, part), getattr(ref, part)
            for arr in ("indptr", "indices", "data"):
                assert getattr(a, arr).tobytes() == getattr(b, arr).tobytes()


def _tilt_amplitude():
    """Jumps h = 0.4 e^(-z) - 0.1: A(z) < 0 for z > ln 4, so those
    pre-images lie above their states and the top edge grows."""
    return js.JumpAmplitude(((js.constant(0.4), js.ExpDecay(1.0, 1.0)),
                             (js.constant(-0.1), js.constant(1.0))))


# setting: (model source, window, nodes); a source "bench:<name>" takes the
# workload's whole evolution stanza, "tilt" the wobble fixture with the
# jumps of _tilt_amplitude
_TILED_BUILDS = {
    "bench:wobble": ("bench:wobble", None, None),
    "bench:power": ("bench:power", None, None),
    "ragged:wobble": ("wobble_model", (-8.0, 8.0), 300),
    "ragged:power": ("power_model", (-6.0, 8.0), 300),
    # 8.6% of the mark mass leaves the window at its edges
    "escape": ("wobble_model", (-0.6, 0.6), 256),
    "negative": ("tilt", (-8.0, 8.0), 256),
    # the jumps span the window: the edge rows cover every node
    "fallback": ("wobble_model", (-0.2, 0.2), 100),
}


@pytest.mark.parametrize("setting", sorted(_TILED_BUILDS))
def test_tiled_jump_build_matches_the_per_row_build(request, monkeypatch, setting):
    # for h = A(z) the build solves the edge rows and one interior row, and
    # tiles that row over the interior; the per-row build solves every row.
    # Same pattern, edge rows to the byte, the rest within 1e-13 of the
    # largest entry; the interior reads at t in [3, size - 5] grid steps (the
    # edge rule's margin), so no interior pre-image leaves the window
    source, window, size = _TILED_BUILDS[setting]
    if source.startswith("bench:"):
        model, g, cfg = _bench_evolution(source[len("bench:"):])
    else:
        fixture = "wobble_model" if source == "tilt" else source
        model = request.getfixturevalue(fixture)
        if source == "tilt":
            model = dataclasses.replace(model, h=_tilt_amplitude())
        g = js.gaussian_density(window, size, 2, sigma=0.2 if setting == "escape" else 0.8)
        cfg = js.EvolutionConfig(i=8, trunc=_BUILDS[fixture][1])
    n = g.size
    edges, rule = [], js.AdjointOperator._edge_rows
    monkeypatch.setattr(js.AdjointOperator, "_edge_rows",
                        lambda self, shift: edges.append(rule(self, shift)) or edges[-1])
    solves = _counting(monkeypatch, "transfer_alpha_grid")
    tiled = js.AdjointOperator(model, g, cfg)
    ((low, high),), solved = edges, [len(c[1]) for c in solves]
    monkeypatch.setattr(js.AdjointOperator, "_edge_rows", lambda self, shift: (n, n))
    reads, weights = [], js.fokker_planck._interp_weights
    monkeypatch.setattr(js.fokker_planck, "_interp_weights",
                        lambda p, *a: reads.append(p) or weights(p, *a))
    per_row = js.AdjointOperator(model, g, cfg)
    a, b = tiled.jump, per_row.jump
    assert tiled.escape_fraction == per_row.escape_fraction
    if setting == "fallback":
        assert (low, high) == (n, n)
        for arr in ("indptr", "indices", "data"):
            assert getattr(a, arr).tobytes() == getattr(b, arr).tobytes()
        return
    assert low < high
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert np.max(np.abs(a.data - b.data)) <= 1e-13 * np.max(np.abs(b.data))
    for edge in (slice(0, a.indptr[low]), slice(a.indptr[high], None)):
        assert a.data[edge].tobytes() == b.data[edge].tobytes()
    t = (np.concatenate([p for p in reads if p.ndim == 2]) - g.lo) / g.spacing
    interior = t[low - 1:high]
    assert interior.min() >= 3.0 - 1e-9 and interior.max() <= n - 5.0 + 1e-9
    outside = (t < 0.0) | (t > n - 1.0)
    assert not outside[low:high].any()
    if setting == "escape":
        assert outside[:low].any() and tiled.escape_fraction > 0.08
    if setting == "negative":
        assert n - high > 4
    if source.startswith("bench:"):
        # the first block of nodes and the top edge rows, not one solve per block
        assert solved == [js.fokker_planck.JUMP_BLOCK_NODES, n - high]


def test_operator_build_memory_peak():
    # a bench build over every (node, mark) pair at once peaked at 49.7 MB
    # (wobble) and 51.6 MB (power) under numpy 2.4; a block of nodes at a
    # time holds its (node, mark) temporaries for that block only
    for name in ("wobble", "power"):
        args = _bench_evolution(name)
        js.AdjointOperator(*args)
        tracemalloc.start()
        try:
            js.AdjointOperator(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6, name


def test_with_drift_index_shares_the_jump_part(wobble_model, monkeypatch):
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    op = js.AdjointOperator(wobble_model, init, cfg)
    jump_builds = _counting(monkeypatch, "transfer_alpha_grid")
    derived = op.with_drift_index(16)
    assert not jump_builds and derived.jump is op.jump
    fresh = js.AdjointOperator(wobble_model, init, dataclasses.replace(cfg, i=16))
    assert derived.cfg == fresh.cfg and derived.stable_dt() == fresh.stable_dt()
    np.testing.assert_array_equal(derived.apply(init.values), fresh.apply(init.values))
    assert op.i == 8 and op.cfg == cfg
    with pytest.raises(js.ContractError, match="below i0"):
        op.with_drift_index(0)


def test_operator_build_checks_the_drift_index_once(request, monkeypatch):
    model, g, cfg = _build(request, "wobble_model")
    calls = []
    inner = js.CoefficientSet.min_drift_index

    def counted(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(js.CoefficientSet, "min_drift_index", counted)
    js.AdjointOperator(model, g, cfg)
    assert len(calls) == 1


def test_norm_growth_audit_builds_the_jump_part_once(wobble_model, monkeypatch):
    jump_parts = _counting(monkeypatch, "transfer_alpha_grid")
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    report = js.norm_growth_audit(wobble_model, init, 0.3, cfg)
    assert report["status"] == "ok"
    # one jump part, shared by i and 2 i: the solves of one build, its first
    # block of nodes and its 4 top edge rows
    audited = [(len(c[1]), len(c[2])) for c in jump_parts]
    jump_parts.clear()
    js.AdjointOperator(wobble_model, init, cfg)
    assert audited == [(len(c[1]), len(c[2])) for c in jump_parts]
    assert audited == [(js.fokker_planck.JUMP_BLOCK_NODES, cfg.quad_nodes), (4, cfg.quad_nodes)]


def test_gate5_fitted_rates_pinned(wobble_model, ripple_model):
    # the gate-5 audits' fitted rates, recorded with one operator build per
    # index, and re-recorded when the jump part came to pull back the product
    # gamma g: moved by 5.3e-8 (wobble) and 1.3e-6 (ripple) relative
    cases = (
        (wobble_model, (-8.0, 8.0), 640, 3, -0.3868145276980927, -0.38809695658006926),
        (ripple_model, (-6.0, 6.0), 512, 1, -0.07826904612489233, -0.07371626099780632),
    )
    for model, window, size, trunc, rate_i, rate_2i in cases:
        init = js.gaussian_density(window, size, order=2, sigma=0.8)
        rep = js.norm_growth_audit(model, init, 0.6, js.EvolutionConfig(i=8, trunc=trunc))
        assert rep["passed"]
        assert rep["fitted_rate_i"] == pytest.approx(rate_i, rel=1e-12, abs=0.0)
        assert rep["fitted_rate_2i"] == pytest.approx(rate_2i, rel=1e-12, abs=0.0)


def test_nan_mark_density_is_refused_in_the_build(wobble_model):
    # it used to surface as "dt must be positive and finite, got nan"
    q = dataclasses.replace(wobble_model.q, density=js.Affine(math.nan, 0.0))
    m = dataclasses.replace(wobble_model, q=q)
    g = js.gaussian_density((-8.0, 8.0), 128, order=2)
    with pytest.raises(js.InvalidModelError, match="mark density non-finite at z="):
        js.AdjointOperator(m, g, js.EvolutionConfig(i=8, trunc=3))


def _small_jump_model(gamma=None, density=None, window=(-1.0, 1.0)):
    h = js.JumpAmplitude(((js.constant(0.05), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), density or js.constant(1.0), (3.0,))
    return js.CoefficientSet(b=js.constant(0.0), gamma=gamma or js.constant(1.0), h=h,
                             eta=js.ExpDecay(0.05, 1.0), q=q, k=2, y_window=window)


@pytest.mark.parametrize("model, message", [
    # 0.1 + y on the audit window (-1, 1), and 1 - 0.6 z on the marks (0, 3):
    # each used to evolve without error
    (_small_jump_model(gamma=js.Affine(0.1, 1.0)), r"^jump rate negative at y=-1\.0$"),
    (_small_jump_model(density=js.Affine(1.0, -0.6)), "^mark density negative at z="),
    # 1 + y holds on the audit window (-0.5, 0.5), not at the grid's nodes below -1
    (_small_jump_model(gamma=js.Affine(1.0, 1.0), window=(-0.5, 0.5)),
     r"^jump rate negative at y=-2\.0$"),
], ids=["rate", "density", "rate-past-the-audit-window"])
def test_evolve_refuses_a_negative_rate_or_mark_density(model, message):
    g = js.gaussian_density((-2.0, 2.0), 128, 2, sigma=0.3)
    with pytest.raises(js.InvalidModelError, match=message):
        js.evolve(model, g, 0.2, js.EvolutionConfig(i=8))


@pytest.mark.parametrize("t_end", [0.3, 2.0])
def test_evolve_refuses_a_rate_past_its_bound_at_a_node(reach_model, t_end):
    # 1 + y / 2 reaches 7 on the grid, past its bound 1.575: to t = 0.3 the
    # run returned without a warning, at 2.3x Euler's true step budget, and
    # to t = 2 it failed at t = 0.98 with a MassConservationError
    g = js.gaussian_density((-0.15, 12.0), 1024, 2, mean=6.0)
    with pytest.raises(js.InvalidModelError, match=r"^jump rate above its bound 1\.575\d* at y=1\.1"):
        js.evolve(reach_model, g, t_end, js.EvolutionConfig(i=8, trunc=2))


def test_evolve_reads_a_rate_that_is_zero_on_the_audit_window(off_window_rate_model):
    # gamma_sup is 0, so no jump part was built, and the density near y = 2,
    # where the rate is 1, came back unchanged
    g = js.gaussian_density((-2.0, 6.0), 256, 2, mean=2.0)
    with pytest.raises(js.InvalidModelError, match=r"^jump rate above its bound 0\.0 at y=1\.0"):
        js.evolve(off_window_rate_model, g, 0.5, js.EvolutionConfig(i=8, trunc=2))


def test_apply_generator_reads_the_mark_density_by_the_same_rule():
    m = _small_jump_model(density=js.Affine(1.0, -0.6))
    with pytest.raises(js.InvalidModelError, match="^mark density negative at z="):
        js.apply_generator(m, np.sin, np.linspace(-1.0, 1.0, 5), js.EvolutionConfig(i=8))


def test_nan_drift_is_refused_in_the_build(wobble_model):
    # it used to surface as "could not bracket the pre-image"
    m = dataclasses.replace(wobble_model, b=js.Affine(math.nan, 0.0))
    g = js.gaussian_density((-8.0, 8.0), 128, order=2)
    with pytest.raises(js.InvalidModelError, match=r"drift derivative 0 non-finite at y=-8\.0"):
        js.AdjointOperator(m, g, js.EvolutionConfig(i=8, trunc=3))


def test_duality_accepts_plain_callable(wobble_model):
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    out = js.duality_residual(
        wobble_model, g, lambda y: np.cos(y), js.EvolutionConfig(i=8, trunc=3)
    )
    assert out["residual"] <= 1e-6


def test_duality_residual_takes_a_sequence(wobble_model):
    g = js.gaussian_density((-8.0, 8.0), 1024, order=2)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    phis = [js.GaussBump(1.0, 0.3, 1.2), lambda y: np.cos(y)]
    out = js.duality_residual(wobble_model, g, phis, cfg)
    singles = [js.duality_residual(wobble_model, g, phi, cfg) for phi in phis]
    assert out["lhs"] == [r["lhs"] for r in singles]
    assert out["rhs"] == [r["rhs"] for r in singles]
    assert out["residual"] == max(r["residual"] for r in singles)


def test_generator_constant_test_function_is_null(wobble_model):
    y = np.linspace(-6, 6, 257)
    vals = js.apply_generator(wobble_model, js.constant(3.0), y, js.EvolutionConfig(i=8, trunc=3))
    assert np.max(np.abs(vals)) <= 1e-10


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_translation_oracle():
    m = _translate_model(0.25)
    init = js.gaussian_density((-4.0, 5.0), 1024, order=2, mean=0.0, sigma=0.5)
    cfg = js.EvolutionConfig(i=2000, trunc=1)
    res = js.evolve(m, init, 0.5, cfg)
    assert res.mass_drift <= 1e-4
    want = js.gaussian_density((-4.0, 5.0), 1024, order=0, mean=0.125, sigma=0.5)
    l1 = np.trapezoid(np.abs(res.final.values[0] - want.values[0]), dx=init.spacing)
    assert l1 <= 0.02


def test_evolve_compound_poisson_cf_oracle(uniform_jump_model):
    # b = 0: kicks are null, jumps add uniform marks at unit rate, so
    # p_t(xi) = p_0(xi) exp(t ((e^{i xi} - 1)/(i xi) - 1))
    init = js.gaussian_density((-3.0, 5.0), 1024, order=1, mean=0.0, sigma=0.4)
    # explicit dt well under the stability cap: the Euler bias is O(dt)
    res = js.evolve(uniform_jump_model, init, 0.5, js.EvolutionConfig(i=8, trunc=1, dt=0.004))
    xi = np.array([0.5, 1.0, 2.0, 4.0])
    grid = res.final.grid
    cf_evolved = np.trapezoid(
        res.final.values[0][None, :] * np.exp(1j * xi[:, None] * grid[None, :]),
        dx=res.final.spacing, axis=1,
    )
    cf0 = np.exp(1j * xi * 0.0 - 0.5 * (0.4 * xi) ** 2)
    jump_sym = (np.exp(1j * xi) - 1.0) / (1j * xi)
    want = cf0 * np.exp(0.5 * (jump_sym - 1.0))
    assert np.max(np.abs(cf_evolved - want)) <= 2e-3


def test_evolve_snapshots_and_mass_track(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 768, order=2, sigma=0.8)
    res = js.evolve(
        wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3),
        snapshot_times=(0.0, 0.3, 0.6),
    )
    assert len(res.snapshots) == 3
    assert res.snapshots[0].time == pytest.approx(0.0)
    assert res.snapshots[1].time == pytest.approx(0.3, abs=1e-9)
    assert res.mass_drift <= 1e-4
    assert res.steps == len(res.times) - 1
    # derivative row consistency after evolution
    d = res.final
    num = np.gradient(d.values[0], d.grid)
    tame = np.abs(d.values[0]) > 1e-3
    err = np.abs(num - d.values[1])[tame]
    assert np.median(err / np.maximum(np.abs(d.values[1][tame]), 0.1)) < 0.05


def test_evolve_time_error_is_richardson_estimate(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 512, order=2, sigma=0.8)
    coarse = js.evolve(wobble_model, init, 0.3, js.EvolutionConfig(i=8, trunc=3))
    dt = coarse.dt
    fine = js.evolve(wobble_model, init, 0.3, js.EvolutionConfig(i=8, trunc=3, dt=dt / 2))
    ref = js.evolve(wobble_model, init, 0.3, js.EvolutionConfig(i=8, trunc=3, dt=dt / 16))
    gap = np.trapezoid(np.abs(coarse.final.values[0] - ref.final.values[0]), dx=init.spacing)
    assert gap / 1.25 <= coarse.time_error <= 1.25 * gap
    # first order in time: halving dt halves the error
    assert 0.4 <= fine.time_error / coarse.time_error <= 0.6


def test_evolve_and_picard_build_the_operator_once(wobble_model, monkeypatch):
    built = []

    class Counting(js.AdjointOperator):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(js.fokker_planck, "AdjointOperator", Counting)
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    res = js.evolve(wobble_model, init, 0.1, cfg)
    assert len(built) == 1 and res.time_error > 0.0
    js.picard_validate(wobble_model, init, 0.02, cfg)
    assert len(built) == 2


def test_norm_growth_audit_runs_one_euler_pass_per_index(wobble_model, monkeypatch):
    # one pass at i and one at 2 i, at the stable step and without the dt/2
    # companion; every other config field reaches the passes unchanged (a set
    # dt is refused, see test_norm_growth_audit_refuses_a_set_dt)
    calls = []
    euler = js.fokker_planck._euler

    def counting(op, initial, t_end, dt, snapshot_times=()):
        calls.append((op.cfg, dt, op.stable_dt(), len(snapshot_times)))
        return euler(op, initial, t_end, dt, snapshot_times)

    monkeypatch.setattr(js.fokker_planck, "_euler", counting)
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    cfg = js.EvolutionConfig(i=8, trunc=3, quad_nodes=128)
    report = js.norm_growth_audit(wobble_model, init, 0.3, cfg)
    assert report["status"] == "ok"
    assert [c[0] for c in calls] == [
        dataclasses.replace(cfg, i=8), dataclasses.replace(cfg, i=16)
    ]
    assert all(dt == stable and snaps == 11 for _, dt, stable, snaps in calls)


def test_evolve_rejects_unstable_step(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 512, order=2)
    with pytest.raises(js.StabilityError):
        js.evolve(wobble_model, init, 0.5, js.EvolutionConfig(i=8, trunc=3, dt=0.5))


def test_evolve_window_escape_raises():
    m = _translate_model(2.0)
    init = js.gaussian_density((-2.0, 2.0), 256, order=2, sigma=0.5)
    cfg = js.EvolutionConfig(i=50, trunc=1)
    with pytest.raises((js.WindowTooSmallError, js.MassConservationError)):
        js.evolve(m, init, 2.0, cfg)


def test_evolve_refuses_a_window_the_marks_leave():
    # h = 3 e^{-z} on marks in [0, 1] moves every state by 1.1 to 3, so at
    # the first interior state of (-2, 2) every pre-image lies outside
    h = js.JumpAmplitude(((js.constant(3.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (1.0,))
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.ExpDecay(3.0, 1.0), q=q, k=2, y_window=(-4.0, 4.0),
    )
    init = js.gaussian_density((-2.0, 2.0), 256, order=2, sigma=0.5)
    with pytest.raises(js.WindowTooSmallError, match=(
        r"^100\.00% of transported mark mass leaves the window at interior "
        r"states; widen the window$"
    )):
        js.evolve(m, init, 0.5, js.EvolutionConfig(i=8, trunc=1))


@pytest.mark.parametrize("call, match", [
    (lambda g, s: js.estimate_density(s, (-3.0, 3.0), order=-1), "derivative order -1 outside"),
    (lambda g, s: js.estimate_density(s, (-3.0, 3.0), order=2.5),
     "derivative order 2.5 outside"),
    (lambda g, s: js.estimate_density([], (-3.0, 3.0), order=-1), "derivative order -1 outside"),
    (lambda g, s: js.sobolev_norm(g, -1), "derivative order -1 outside"),
    (lambda g, s: js.sobolev_norm(g, 1.5), "derivative order 1.5 outside"),
    (lambda g, s: js.gaussian_density((-3.0, 3.0), 64, 1, sigma=0.0), "sigma must be positive"),
    (lambda g, s: js.gaussian_density((-3.0, 3.0), 64, 1, sigma=-0.5), "sigma must be positive"),
    (lambda g, s: js.gaussian_density((-3.0, 3.0), 64, 1, sigma=math.nan),
     "sigma must be positive"),
], ids=["kde-negative", "kde-fraction", "kde-order-first", "norm-negative", "norm-fraction",
        "sigma-zero", "sigma-negative", "sigma-nan"])
def test_orders_and_widths_out_of_range_are_refused(call, match):
    # these raised IndexError, TypeError or ZeroDivisionError, or returned a
    # norm of 0.0 or a density of mass -1; an order is checked before the samples
    g = js.gaussian_density((-3.0, 3.0), 64, order=2)
    samples = js.RngSpec(5).generator().normal(size=1000)
    with pytest.raises(js.ContractError, match=match):
        call(g, samples)


@pytest.mark.parametrize("size", [64.5, 64.0, True])
def test_gaussian_density_refuses_a_size_that_is_not_an_integer(size):
    # 64.5 raised numpy's TypeError from linspace
    with pytest.raises(js.ContractError, match=f"^size must be an integer, got {size!r}$"):
        js.gaussian_density((-3.0, 3.0), size, 1)
    with pytest.raises(js.ContractError, match="^size must be an integer"):
        js.GridDensity.from_function(js.GaussBump(1.0), (-3.0, 3.0), size, 1)
    assert js.gaussian_density((-3.0, 3.0), np.int64(64), 1).size == 64


def test_evolve_argument_validation(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 256, order=2)
    with pytest.raises(js.ContractError):
        js.evolve(wobble_model, init, -1.0, js.EvolutionConfig(i=8, trunc=3))
    with pytest.raises(js.ContractError):
        js.evolve(
            wobble_model, init, 0.5, js.EvolutionConfig(i=8, trunc=3),
            snapshot_times=(0.9,),
        )
    # a NaN time passed the range check and was dropped without a snapshot
    with pytest.raises(js.ContractError, match=r"^snapshot time nan outside \[0, 0.5\]$"):
        js.evolve(wobble_model, init, 0.5, js.EvolutionConfig(i=8, trunc=3),
                  snapshot_times=(0.25, math.nan))
    with pytest.raises(js.ContractError):
        js.evolve(wobble_model, init, 0.5, js.EvolutionConfig(i=0, trunc=3))


@pytest.mark.parametrize("times, shown", [((0.025, math.nan), "nan"), ((0.9,), "0.9"),
                                          ((-0.1, 0.02), "-0.1")])
def test_evolve_refuses_snapshot_times_before_the_build(wobble_model, monkeypatch, times, shown):
    # the times were checked only after the operator had been built
    builds, build = [], js.AdjointOperator.__init__
    monkeypatch.setattr(js.AdjointOperator, "__init__",
                        lambda self, *a: builds.append(a) or build(self, *a))
    init = js.gaussian_density((-8.0, 8.0), 128, order=2)
    cfg = js.EvolutionConfig(i=8, trunc=3)
    with pytest.raises(js.ContractError,
                       match=rf"^snapshot time {re.escape(shown)} outside \[0, 0.05\]$"):
        js.evolve(wobble_model, init, 0.05, cfg, snapshot_times=times)
    assert not builds
    js.evolve(wobble_model, init, 0.05, cfg, snapshot_times=(0.025,))
    assert len(builds) == 1


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_evolution_rejects_nonpositive_or_nonfinite_dt(wobble_model, dt):
    # dt = 0 used to loop forever and dt < 0 ran time backwards
    init = js.gaussian_density((-8.0, 8.0), 128, order=2)
    cfg = js.EvolutionConfig(i=8, trunc=3, dt=dt)
    with pytest.raises(js.ContractError, match="dt must be positive and finite"):
        js.evolve(wobble_model, init, 0.5, cfg)
    with pytest.raises(js.ContractError, match="dt must be positive and finite"):
        js.picard_validate(wobble_model, init, 0.05, cfg)


def test_picard_short_horizon_agreement(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 512, order=2, sigma=0.8)
    out = js.picard_validate(wobble_model, init, 0.05, js.EvolutionConfig(i=8, trunc=3))
    assert out["l1_gap"] <= 5e-4


@pytest.mark.parametrize("t_short", [-1.0, math.nan, math.inf])
def test_picard_refuses_a_bad_horizon(wobble_model, t_short):
    # a NaN horizon used to return l1_gap = nan, an infinite one was refused
    # only after the build, as "too long"
    g = js.gaussian_density((-8.0, 8.0), 64, order=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(js.ContractError, match="t_short must be"):
            js.picard_validate(wobble_model, g, t_short, js.EvolutionConfig(i=8, trunc=1))


def test_norm_growth_audit_smooth_model(wobble_model):
    init = js.gaussian_density((-8.0, 8.0), 640, order=2, sigma=0.8)
    rep = js.norm_growth_audit(wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3))
    assert rep["status"] == "ok"
    assert rep["passed"]
    assert rep["envelope_ok_i"] and rep["envelope_ok_2i"]
    assert rep["rate_stable"]


def test_norm_growth_audit_refuses_a_set_dt(wobble_model):
    # both runs take the stable step; a set dt (even -5.0) used to be ignored
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    for dt in (-5.0, 1e-3):
        cfg = js.EvolutionConfig(i=8, trunc=3, dt=dt)
        with pytest.raises(js.ContractError, match="stable step"):
            js.norm_growth_audit(wobble_model, init, 0.6, cfg)


def test_norm_growth_audit_reports_numerical_failure():
    m = _translate_model(2.0)
    init = js.gaussian_density((-2.0, 2.0), 256, order=2, sigma=0.5)
    rep = js.norm_growth_audit(m, init, 2.0, js.EvolutionConfig(i=50, trunc=1))
    assert rep["status"] == "numerical_failure"
    assert not rep["passed"]


def test_norm_growth_audit_raises_a_stack_order_mismatch(wobble_model):
    # a caller's error, raised as evolve raises it, not an audit verdict
    init = js.gaussian_density((-8.0, 8.0), 256, order=1, sigma=0.8)
    with pytest.raises(js.ContractError, match="density stack order 1 != model budget k=2"):
        js.norm_growth_audit(wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3))


def test_norm_growth_audit_propagates_programming_errors(wobble_model, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a numerical failure")

    # the audit steps each operator with the internal Euler loop
    monkeypatch.setattr(js.fokker_planck, "_euler", broken)
    init = js.gaussian_density((-8.0, 8.0), 256, order=2, sigma=0.8)
    with pytest.raises(TypeError, match="not a numerical failure"):
        js.norm_growth_audit(wobble_model, init, 0.6, js.EvolutionConfig(i=8, trunc=3))


@pytest.mark.parametrize("t_end", [-1.0, math.nan, math.inf])
def test_evolve_refuses_a_bad_horizon_at_once(wobble_model, t_end):
    # the one horizon rule of the simulator and the config: a NaN horizon
    # used to return an evolution at once, an infinite one ran until the
    # stack diverged
    g = js.gaussian_density((-8.0, 8.0), 64, order=2)
    with pytest.raises(js.ContractError, match="t_end must be"):
        js.evolve(wobble_model, g, t_end, js.EvolutionConfig(i=8, trunc=1))


# The `evolve` final on the evolution stanza of each bench workload, recorded
# before the operator parts became scipy CSR matrices: rows 0-2 at 9 nodes
# 24 apart from the first node named, then time_error and mass_drift.  A
# change of the integrator moves these figures and re-records them.  They were
# re-recorded when the jump part came to pull back the product gamma g: rows
# moved by at most 4.2e-8 (wobble) and 1.6e-7 (power) of the largest entry,
# time_error by 1.5e-7 and 1.6e-8 relative, the wobble mass_drift from 6.64e-9
# to 6.63e-9 and the power one from 9.9e-10 to 2.2e-16.  The wobble mass_drift
# was re-recorded when the interior rows of an h = A(z) jump part came to be
# tiled from one row: a difference of nearly equal masses, it moved by 1.7e-8
# relative (6.63111099e-9 to 6.63111088e-9) while the rows moved by at most
# 1.2e-15 of each row's largest entry.
_EVOLVE_PINS = {
    "wobble": (
        416,
        [
            [
                0.010452185085034935, 0.06755057286787614, 0.2502991331822027,
                0.5499081996000441, 0.7349385036120863, 0.6084826430014988,
                0.31540726304678623, 0.10254850245540029, 0.020761091863444395,
            ],
            [
                0.0600722056771109, 0.2846312451941118, 0.6958322531602753,
                0.7836605797050729, 0.09433863826187583, -0.6873785231515934,
                -0.7477074917538935, -0.371125562789067, -0.10168667568159857,
            ],
            [
                0.30098555116769654, 0.9329386983801, 1.007103130867824,
                -0.8207944868691112, -2.482350364027741, -1.2426464197983995,
                0.7302006148061995, 0.9987843577273924, 0.42617342984457557,
            ],
        ],
        0.0008934683096961341,
        6.631110882615587e-09,
    ),
    "power": (
        320,
        [
            [
                0.003369459946734145, 0.02315840215066724, 0.10391969164640953,
                0.3059977944542869, 0.5965243728417243, 0.7762338444554269,
                0.6711656486198097, 0.3808195896240919, 0.14164297234212628,
            ],
            [
                0.02197146641371507, 0.12084339815392135, 0.4079827492136387,
                0.8123918760071814, 0.8440875182499145, 0.14437209296534861,
                -0.7244412349251511, -0.9032003727477187, -0.5162105515380465,
            ],
            [
                0.1298759362750526, 0.5390047114080609, 1.1955113893050004,
                0.9866420207236782, -1.0335536162212229, -2.9075996450287787,
                -1.8472333451123, 0.6474459847041742, 1.3412878846730096,
            ],
        ],
        0.0006529582155181843,
        2.220446049250313e-16,
    ),
}


@pytest.mark.parametrize("name", sorted(_EVOLVE_PINS))
def test_evolve_pinned_on_bench_settings(name):
    model, init, econf = _bench_evolution(name)
    result = js.evolve(model, init, bench_workload(name, load=True).evolution.t_end, econf)
    start, rows, time_error, mass_drift = _EVOLVE_PINS[name]
    nodes = np.arange(start, start + 9 * 24, 24)
    np.testing.assert_allclose(result.final.values[:, nodes], rows, rtol=1e-12, atol=0.0)
    assert result.time_error == pytest.approx(time_error, rel=1e-12, abs=0.0)
    assert result.mass_drift == pytest.approx(mass_drift, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t_end", [-1.0, 0.0, math.nan, math.inf])
def test_norm_growth_audit_refuses_a_bad_horizon(wobble_model, t_end):
    # an infinite horizon used to warn from np.linspace and come back as a
    # numerical_failure report, and a zero one, whose checkpoints coincide,
    # to end in numpy's LinAlgError from the growth fit; a bad horizon is
    # the caller's error
    g = js.gaussian_density((-8.0, 8.0), 64, order=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(js.ContractError, match="t_end must be"):
            js.norm_growth_audit(wobble_model, g, t_end, js.EvolutionConfig(i=8, trunc=1))


# sha256 of indptr, indices and data, in that order, of the `drift`, `jump`
# and `rate` CSR parts built on each bench workload's evolution settings.  A
# build change that keeps every byte keeps these.  The `jump` digests were
# re-recorded when the affine amplitudes of both workloads took the
# closed-form pre-images (same sparsity pattern, entries moved by at most
# 5.0e-15 (wobble) and 2.7e-15 (power) of the largest entry), and again when
# the jump part came to pull back the product gamma g: `jump` became the one
# (size, size) block of T - qmass I (nnz 30,340 on wobble and 41,241 on power,
# against 182,040 and 247,446 for the six blocks before), and `rate` is new.
# `jump` was re-recorded again when the Gauss-Legendre rule came from numpy's
# `leggauss` (same pattern, entries moved by at most 7.1e-16 (wobble) and
# 1.4e-15 (power) of the largest entry), and again when the interior rows of
# an h = A(z) jump part came to be tiled from one row (same pattern and nnz,
# entries moved by at most 1.8e-14 (wobble) and 5.6e-14 (power) of the
# largest entry).
_OPERATOR_PINS = {
    "power": {
        "drift": "13f4aafd8f5311dd836cb1b1ced9fb5bd53bf2177ed0062f766e53aa0d780ec5",
        "jump": "29b5d6b264ba1e4b1236cdea1470cc526fb25f9765e7fc8c2262877405cacdf5",
        "rate": "1b5f2d90edc3a63eb0f7da0d88259dcca68f83b8a8b1fba38cd8875212e3a2a7",
    },
    "wobble": {
        "drift": "b3014c9238ad9588bd85cf286476e374b42c575dc5727ca23ca03aa1a3c7fd6f",
        "jump": "a004faa6267e5823cd6f0f795f28143f8d996b4377cabac4ca60da8439330634",
        "rate": "b729f8ce8280bd1206eb3bc891a653396087fa56d66fd5e6fcc2781172bf04b4",
    },
}


def _digests(op):
    """sha256 of indptr, indices and data of each CSR part of `op`."""
    out = {}
    for part in ("drift", "jump", "rate"):
        mat = getattr(op, part)
        digest = hashlib.sha256()
        for arr in (mat.indptr, mat.indices, mat.data):
            digest.update(arr.tobytes())
        out[part] = digest.hexdigest()
    return out


@pytest.mark.parametrize("name", ["wobble", "power"])
def test_bench_operators_pinned(name):
    assert _digests(js.AdjointOperator(*_bench_evolution(name))) == _OPERATOR_PINS[name]


# The same digests on the builds whose jump amplitude depends on the state,
# at 512 nodes: the ripple fixture (Newton pre-images, the _BUILDS setting)
# and the affine B = 0.1 model, on (-8, 8) with sigma 0.8 and trunc 2.
# Recorded before the interior rows of an h = A(z) jump part came to be tiled:
# these builds solve every row, and keep every byte.
_STATE_DEPENDENT_PINS = {
    "affine": {
        "drift": "a163b999bd38935727aac1e7b71da6b6f09977c58bc1c2e83476e2d762438e05",
        "jump": "6980a99154c1d2797260f20fe32248cb1638b7efe72617f9a9366fd5217e9f9a",
        "rate": "d2b6c22d9d22f326b779504eb128ac5c1650f59926eb5d183dec19d4d5e0f47f",
    },
    "ripple": {
        "drift": "84f02426c7245326bce89c46d70c3d6d77ea38bcff3699deb708bc29c25ca42e",
        "jump": "fd02d1b4d363a34113724b303c0a1502f4c10d1f9655ed8df5e0d73bb46da9e4",
        "rate": "051867717c70cd0a9499614f841c6ff4a3b398303d487ad751d67395cc931e84",
    },
}


@pytest.mark.parametrize("name", sorted(_STATE_DEPENDENT_PINS))
def test_state_dependent_operators_pinned(request, name):
    if name == "ripple":
        args = _build(request, "ripple_model")
    else:
        args = (_affine_slope_model(), js.gaussian_density((-8.0, 8.0), 512, 2, sigma=0.8),
                js.EvolutionConfig(i=8, trunc=2))
    assert _digests(js.AdjointOperator(*args)) == _STATE_DEPENDENT_PINS[name]
