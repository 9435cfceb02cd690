"""Path simulation: thinning, poissonized drift, filtered jumps, estimators."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import jumpsmooth as js
from jumpsmooth import kernels as kernels_module
from jumpsmooth import simulate as simulate_module
from jumpsmooth.simulate import FLOW_TOL, _drift_flow_batch, flow_step


def _thin_model(rate_fn=None, amp=0.01, trunc=(2.0,), window=(-6.0, 6.0), b=None):
    h = js.JumpAmplitude(((js.constant(amp), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), trunc)
    return js.CoefficientSet(
        b=b if b is not None else js.constant(0.0),
        gamma=rate_fn if rate_fn is not None else js.constant(1.0),
        h=h, eta=js.ExpDecay(max(amp, 0.05), 1.0), q=q, k=2, y_window=window,
    )


def _drift_model(b, gamma=0.0):
    h = js.JumpAmplitude(((js.constant(0.1), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0,))
    return js.CoefficientSet(
        b=b, gamma=js.constant(gamma), h=h, eta=js.ExpDecay(0.1, 1.0), q=q,
        k=2, y_window=(-6.0, 6.0),
    )


def _gapped_collapse(collapse_model):
    """The collapse model with marks only on [1, 2) and [3, 5): its mark CDF
    is flat on (0, 1), (2, 3) and (5, 6)."""
    density = js.FunctionSum(js.Indicator(1.0, 2.0, 1.0), js.Indicator(3.0, 5.0, 0.5))
    q = js.JumpMeasureSpec((0.0, np.inf), density, (6.0,))
    return dataclasses.replace(collapse_model, q=q)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": 3, "stream": -2}, "stream must be a non-negative integer, got -2"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": 3, "stream": 1.0}, "stream must be an integer, got 1.0"),
], ids=["seed-negative", "stream-negative", "seed-fraction", "seed-bool", "stream-float"])
def test_rng_spec_refuses_a_seed_that_is_not_a_non_negative_integer(kwargs, message):
    # these passed here and failed later, in np.random.SeedSequence: a
    # negative seed or stream with a ValueError, a float one with a TypeError;
    # True seeded the stream of seed 1
    with pytest.raises(js.ContractError, match=f"^{re.escape(message)}$"):
        js.RngSpec(**kwargs)
    assert js.RngSpec(np.int64(3), np.int32(1)).generator().random() == (
        js.RngSpec(3, 1).generator().random())


def test_generators_are_pcg64dxsm_on_the_spawned_seed_sequences():
    spec = js.RngSpec(2024, stream=3)

    def pcg(*key):
        return np.random.PCG64DXSM(np.random.SeedSequence(entropy=2024, spawn_key=key))

    assert spec.generator().bit_generator.state == pcg(3).state
    firsts = set()
    for c in range(simulate_module.N_CHUNKS):
        gen = spec.chunk_generator(c)
        assert gen.bit_generator.state == pcg(3, c).state, c
        firsts.add(gen.random())
    assert len(firsts) == simulate_module.N_CHUNKS


def test_exact_trajectory_deterministic_under_seed():
    m = _thin_model(js.FunctionSum(js.constant(0.6), js.Sinusoidal(0.3, 1.0)), amp=0.2)
    a = js.simulate_exact(m, 0.4, 3.0, 1, js.RngSpec(77).generator())
    b = js.simulate_exact(m, 0.4, 3.0, 1, js.RngSpec(77).generator())
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.events == b.events
    c = js.simulate_exact(m, 0.4, 3.0, 1, js.RngSpec(77, stream=1).generator())
    assert not np.array_equal(a.times, c.times)


def test_trajectory_bookkeeping():
    m = _thin_model(amp=0.3)
    tr = js.simulate_exact(m, 0.0, 4.0, 1, js.RngSpec(5).generator())
    assert np.all(np.diff(tr.times) >= 0)
    assert tr.terminal == tr.states[-1]
    kinds = {e.kind for e in tr.events}
    assert kinds <= {"jump", "reject", "skip"}
    assert tr.count("jump") + tr.count("reject") + tr.count("skip") == len(tr.events)
    # acceptance ratio near gamma/ubar = 1/1.05
    total = tr.count("jump") + tr.count("reject")
    if total >= 5:
        assert tr.count("jump") >= 1


def test_batch_thread_count_does_not_change_results(wobble_model):
    base = js.simulate_batch(wobble_model, 0.2, 1.5, 1, js.RngSpec(11), 3001, threads=1)
    four = js.simulate_batch(wobble_model, 0.2, 1.5, 1, js.RngSpec(11), 3001, threads=4)
    assert np.array_equal(base["terminal"], four["terminal"])
    assert np.array_equal(base["jumps"], four["jumps"])
    assert base["runs"] == 3001


# sha256 of the batch outputs, recorded when the substreams moved from
# Philox to PCG64DXSM; every thread count and grouping must reproduce them
# byte for byte.  The drift batches were recorded at the fixed step 1e-3 and
# spell it out
PINNED_BATCHES = {
    "exact_drift": {
        "terminal": "ff618796c9becd2d8a4710cbe6793e2a88d03dfbccae11f5e6d4f80b9ae1d507",
        "jumps": "e9b75075464939794e840f65bf32df6285a5681489cd92372b2038b1f5534e61",
    },
    "exact_sparse": {
        "terminal": "281b54b760baa0e56aa3bc1bf3dc049ece5fae7961435e6fd321da7d0b0e44c2",
        "jumps": "8ecddf0eeb695507f5eab40ea3e59fcfc32cbf21f6794f99f67149aa0c3abd91",
    },
    "poissonized": {
        "terminal": "bc71b959397f042de29acfea4703daab89817db00be47ad7142827329493d36d",
        "jumps": "7e6d5df64d62af46617a1e3c04e0fa39db4c84d57de40e918fa27adcd0b0bd2a",
    },
    "exact_power": {
        "terminal": "ed765a15ea4062cb7fd60736c4fffe7ae9ecba8c65bafcc51b5bd5a068c8294e",
        "jumps": "02eb09c3d5c28034c229e13b15cb9cfb887b70a8b414197111d83c36aee4d4f2",
    },
    "exact_collapse": {
        "terminal": "2c0a8aa49a1772305d99829d7bc92ac6d205bdb88a4fd7fcb5a2ea0f1fbf035a",
        "jumps": "02f618e3d21002668268b8cd7265ef1cf9b0d5f81893d473e7b337ca40da1b26",
    },
    "filtered": {
        "terminal": "5f7b882dc2bd98e5f0a4e847cce37dd34df4970eadc65d1c4ca19841d02eb262",
        "jumps": "6334efb88d295cdc543be64e0c46af1c36b843953048d56d4c3b58bc05eb08f4",
        "tau": "4cf35afd8f5e2509e10f1c18584c27eb286ccc35dc069f1bb89eafdb993822da",
    },
}


@pytest.mark.parametrize(
    "threads, group_runs",
    [pytest.param(t, None, id=str(t)) for t in (1, 2, 3, 5)]
    # many groups in sequence, and several groups per worker
    + [pytest.param(t, 64, id=f"{t}-groups64") for t in (1, 2)],
)
@pytest.mark.parametrize("case", sorted(PINNED_BATCHES))
def test_batch_outputs_pinned(
    case, threads, group_runs, monkeypatch,
    wobble_model, exp_unit_model, power_model, collapse_model,
):
    if group_runs is not None:
        monkeypatch.setattr(simulate_module, "GROUP_RUNS", group_runs)
    engine, groups = simulate_module._thinning, []

    def spy(coeffs, x, *args, **kwargs):
        groups.append(x.size)
        return engine(coeffs, x, *args, **kwargs)

    monkeypatch.setattr(simulate_module, "_thinning", spy)
    if case == "exact_drift":  # runs need different RK4 step counts
        out = js.simulate_batch(
            wobble_model, 0.2, 1.5, 1, js.RngSpec(2024), 645, max_step=1e-3, threads=threads
        )
    elif case == "exact_sparse":  # fewer runs than chunks: most chunks are empty
        out = js.simulate_batch(
            wobble_model, 0.2, 1.5, 1, js.RngSpec(2024), 20, max_step=1e-3, threads=threads
        )
    elif case == "poissonized":
        out = js.simulate_batch(
            wobble_model, np.linspace(-1.0, 1.0, 2000), 1.5, 2, js.RngSpec(2025), 2000,
            i=8, threads=threads,
        )
    elif case == "exact_power":  # zero drift, 40-wide mark window: about 60 rounds
        out = js.simulate_batch(power_model, 0.0, 1.5, 2, js.RngSpec(2027), 1500, threads=threads)
    elif case == "exact_collapse":  # flat stretches in the mark CDF, an atom at 0
        out = js.simulate_batch(
            _gapped_collapse(collapse_model), 0.5, 1.5, 1, js.RngSpec(2028), 1500,
            threads=threads,
        )
    else:
        kd = js.make_kernels(exp_unit_model, (2,), theta=4.2)
        out = js.simulate_batch(
            exp_unit_model, 0.0, 1.0, 1, js.RngSpec(2026), 2000,
            kernels=kd, filter_n=2, threads=threads,
        )
    digests = {
        key: hashlib.sha256(np.ascontiguousarray(out[key]).tobytes()).hexdigest()
        for key in PINNED_BATCHES[case]
    }
    assert digests == PINNED_BATCHES[case]
    # a group holds at most GROUP_RUNS runs, or one chunk where a chunk holds more
    runs = out["runs"]
    assert sum(groups) == runs and len(groups) >= min(threads, simulate_module.N_CHUNKS)
    assert max(groups) <= max(simulate_module.GROUP_RUNS, -(-runs // simulate_module.N_CHUNKS))


def test_batch_rejects_nonpositive_threads(wobble_model):
    for threads in (0, -1):
        with pytest.raises(js.ContractError, match="threads"):
            js.simulate_batch(wobble_model, 0.0, 0.1, 1, js.RngSpec(1), 8, threads=threads)


def test_batch_accepts_per_run_initial_states(wobble_model):
    x0 = np.linspace(-1, 1, 500)
    out = js.simulate_batch(wobble_model, x0, 0.0, 1, js.RngSpec(1), 500)
    # t_end = 0: terminal states equal initial states
    assert np.allclose(out["terminal"], x0, atol=1e-12)


# ---------------------------------------------------------------------------
# jump-count laws
# ---------------------------------------------------------------------------


def test_jump_count_poisson_chisquare():
    # constant rate 1 and tiny displacement: counts are Poisson(q(G) t)
    m = _thin_model(amp=0.01, trunc=(2.0,))
    out = js.simulate_batch(m, 0.0, 1.5, 1, js.RngSpec(42), 20000)
    lam = 2.0 * 1.5
    counts = np.bincount(out["jumps"], minlength=16)[:16]
    pmf = stats.poisson.pmf(np.arange(16), lam)
    pmf[-1] = 1.0 - pmf[:-1].sum()
    keep = pmf * 20000 >= 5
    chi2, pval = stats.chisquare(
        np.concatenate([counts[keep], [counts[~keep].sum()]]),
        np.concatenate([pmf[keep] * 20000, [pmf[~keep].sum() * 20000]]),
    )
    assert pval > 0.01


def test_thinning_matches_discretized_chain():
    # state-dependent rate bounded by 0.9; compare jump-count laws against a
    # brute-force time-discretized chain
    rate = js.FunctionSum(js.constant(0.5), js.Sinusoidal(0.4, 1.0))
    m = _thin_model(rate, amp=0.3, trunc=(1.0,))
    runs, t_end, dt = 100_000, 0.25, 1e-4
    out = js.simulate_batch(m, 0.3, t_end, 1, js.RngSpec(7), runs)
    thinned = np.bincount(out["jumps"], minlength=8)[:8] / runs

    rng = np.random.default_rng(123456)
    x = np.full(runs, 0.3)
    njump = np.zeros(runs, dtype=np.int64)
    steps = int(round(t_end / dt))
    for _ in range(steps):
        gam = 0.5 + 0.4 * np.sin(x)
        fire = rng.random(runs) < gam * dt
        if np.any(fire):
            z = rng.random(fire.sum())  # marks uniform on (0, 1]
            x[fire] += 0.3 * np.exp(-z)
            njump[fire] += 1
    chain = np.bincount(njump, minlength=8)[:8] / runs
    tv = 0.5 * np.abs(thinned - chain).sum()
    assert tv <= 0.01


def test_rate_bound_breach_is_detected():
    rate = js.FunctionSum(
        js.constant(0.1), js.FunctionProduct(js.Affine(0.0, 1.0), js.Affine(0.0, 1.0))
    )  # 0.1 + y^2, audited only on (-1, 1)
    m = _thin_model(rate, amp=0.0, trunc=(4.0,), window=(-1.0, 1.0))
    with pytest.raises(js.InvalidModelError, match=r"^jump rate above its bound .* at y=3\.0$"):
        js.simulate_exact(m, 3.0, 5.0, 1, js.RngSpec(3).generator())


def test_a_rate_that_is_not_finite_at_a_landed_candidate_is_refused():
    # (1 + y)^-1.5 is NaN below y = -1, far outside the audited (0, 8); a NaN
    # rate passed the bound check, accepted no candidate and left every path
    # unmoved
    m = _thin_model(js.InversePower(1.0, 1.5), window=(0.0, 8.0))
    message = r"^jump rate non-finite at y=-3\.0$"
    with np.errstate(invalid="ignore"):
        with pytest.raises(js.InvalidModelError, match=message):
            js.simulate_batch(m, -3.0, 1.0, 1, js.RngSpec(1), 64)
        with pytest.raises(js.InvalidModelError, match=message):
            js.simulate_exact(m, -3.0, 1.0, 1, js.RngSpec(1).generator())
        # a candidate that did not land has not met the rate
        out = js.simulate_batch(m, -3.0, 1e-9, 1, js.RngSpec(1), 64)
    assert np.all(out["terminal"] == -3.0) and not out["jumps"].any()
    # the model's reach rule, on rates the caller already holds: gamma_sup is
    # 1 at y = 0, so the bound is 1.05
    y = np.array([0.0, 1.0, 2.0])
    with pytest.raises(js.InvalidModelError, match=r"^jump rate non-finite at y=1\.0$"):
        m.check_rate(y, np.array([0.5, np.inf, 9.0]))
    with pytest.raises(js.InvalidModelError, match=r"^jump rate above its bound 1\.05 at y=1\.0$"):
        m.check_rate(y[:2], np.array([0.5, 9.0]))
    # -inf passed `gamma <= ubar` and read as no jump
    with pytest.raises(js.InvalidModelError, match=r"^jump rate non-finite at y=2\.0$"):
        m.check_rate(y, np.array([0.5, 1.0, -np.inf]))
    with pytest.raises(js.InvalidModelError, match=r"^jump rate negative at y=1\.0$"):
        m.check_rate(y, np.array([0.5, -0.25, 9.0]))
    assert m.check_rate(y, np.array([0.0, 0.5, 1.05])).tolist() == [0.0, 0.5, 1.05]


def test_a_negative_rate_on_the_audit_window_is_refused_before_any_draw():
    # 0.1 + y on (-1, 1): the batch used to read the negative rate as zero
    # (mean jumps 0.0 from x0 = -0.8)
    m = _thin_model(js.Affine(0.1, 1.0), window=(-1.0, 1.0))
    with pytest.raises(js.InvalidModelError, match=r"^jump rate negative at y=-1\.0$"):
        js.simulate_batch(m, -0.8, 1.0, 1, js.RngSpec(1), 64)


def test_a_negative_rate_at_a_landed_candidate_is_refused():
    # 1 - y is positive on the audited (-0.5, 0.5) but -2 at x0 = 3, where a
    # run used to stop jumping (mean jumps 0.0 over 64 runs to t = 5)
    m = _thin_model(js.Affine(1.0, -1.0), window=(-0.5, 0.5))
    message = r"^jump rate negative at y=3\.0$"
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_batch(m, 3.0, 5.0, 1, js.RngSpec(1), 64)
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_exact(m, 3.0, 5.0, 1, js.RngSpec(1).generator())


def test_a_rate_past_its_bound_at_the_start_is_refused_before_any_output(reach_model):
    # 1 + y / 2 is 4 at x0 = 6, past its bound 1.575: the batch used to refuse
    # it with ContractError, as the evolution did not
    message = r"^jump rate above its bound 1\.575\d* at y=6\.0$"
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_batch(reach_model, 6.0, 0.3, 2, js.RngSpec(1), 64)
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_batch(reach_model, 6.0, 0.3, 2, js.RngSpec(1), 64, i=8)


def test_a_rate_zero_on_the_audit_window_is_read_where_the_runs_are(off_window_rate_model):
    # the rate is 1 at x0 = 2 and its bound is 0: one drift segment used to
    # leave every run unjumped (mean jumps 0.0) without reading the rate
    m, message = off_window_rate_model, r"^jump rate above its bound 0\.0 at y=2\.0$"
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_batch(m, 2.0, 5.0, 1, js.RngSpec(1), 64)
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_exact(m, 2.0, 5.0, 1, js.RngSpec(1).generator())
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_poissonized(m, 2.0, 5.0, 8, 1, js.RngSpec(1).generator())
    # the end state is read too: a drift from 0 to 1.5 meets the rate there
    drifting = dataclasses.replace(m, b=js.constant(0.75))
    with pytest.raises(js.InvalidModelError, match=r"^jump rate above its bound 0\.0 at y=1\.5$"):
        js.simulate_batch(drifting, 0.0, 2.0, 1, js.RngSpec(1), 4)
    assert np.all(js.simulate_batch(drifting, 0.0, 1.0, 1, js.RngSpec(1), 4)["terminal"] == 0.75)


def test_a_zero_bound_drift_segment_is_read_between_its_ends(off_window_rate_model):
    # a drift of 3 from 0 to t = 2 crosses the rate's support [1, 5) and
    # leaves it: both ends read rate 0, and every run used to end at 6.0
    # with no jump and no error
    m = dataclasses.replace(off_window_rate_model, b=js.constant(3.0))
    message = r"^jump rate above its bound 0\.0 at y=1\.0$"
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_batch(m, 0.0, 2.0, 1, js.RngSpec(1), 64)
    with pytest.raises(js.InvalidModelError, match=message):
        js.simulate_exact(m, 0.0, 2.0, 1, js.RngSpec(1).generator())
    # a segment short of the support runs
    out = js.simulate_batch(m, 0.0, 0.3, 1, js.RngSpec(1), 4)
    np.testing.assert_allclose(out["terminal"], 0.9, rtol=1e-12)


def test_max_step_is_refused_on_the_drift_poissonized_chain(wobble_model):
    # the chain has no flow: a set step used to be ignored, byte for byte
    with pytest.raises(js.ContractError, match=r"^max_step=1e-06 is the drift flow's RK4 step"):
        js.simulate_batch(wobble_model, 0.0, 0.1, 1, js.RngSpec(1), 8, i=8, max_step=1e-6)


def test_a_batch_refuses_zero_runs_and_a_filter_without_kernels():
    m = _thin_model()
    with pytest.raises(js.ContractError, match=r"^runs must be at least 1, got 0$"):
        js.simulate_batch(m, 0.0, 1.0, 1, js.RngSpec(1), 0)
    with pytest.raises(js.ContractError, match="^filtering needs a kernel decomposition$"):
        js.simulate_batch(m, 0.0, 1.0, 1, js.RngSpec(1), 64, filter_n=2)


def _thrown_model():
    # rate 1 + y^2, audited on (-0.5, 0.5) only, so ubar = 1.05 * 1.25; every
    # jump moves the state by 2 e^{-z} >= 0.7, out of the window, where the
    # rate is at least 1.49 > ubar
    y = js.Affine(0.0, 1.0)
    rate = js.FunctionSum(js.constant(1.0), js.FunctionProduct(y, y))
    return _thin_model(rate, amp=2.0, trunc=(1.0,), window=(-0.5, 0.5))


def test_jumps_out_of_the_window_break_the_rate_bound(monkeypatch):
    m = _thrown_model()
    real, checked = js.CoefficientSet.check_rate, []

    def spy(self, y, gam=None):
        checked.append(np.size(y))
        return real(self, y, gam)

    monkeypatch.setattr(js.CoefficientSet, "check_rate", spy)
    above = "^jump rate above its bound " + re.escape(repr(m.rate_bound())) + " at y="
    # no run reaches t = 1000 before its first jump: every round is one in
    # which all candidates landed, and all 64 runs are still alive
    with pytest.raises(js.InvalidModelError, match=above):
        js.simulate_batch(m, 0.0, 1000.0, 1, js.RngSpec(4), 64)
    assert checked == [64]
    # at t_end = 1 the runs thrown out meet the bound while others finish
    with pytest.raises(js.InvalidModelError, match=above):
        js.simulate_batch(m, 0.0, 1.0, 1, js.RngSpec(4), 64)
    with pytest.raises(js.InvalidModelError, match=above):
        js.simulate_exact(m, 0.0, 1000.0, 1, js.RngSpec(4).generator())
    # from outside the window at t_end = 0.5 about half the first candidates
    # land: the round has finished runs, and only the landed ones are checked
    checked.clear()
    with pytest.raises(js.InvalidModelError, match=above + r"3\.0$"):
        js.simulate_batch(m, 3.0, 0.5, 1, js.RngSpec(4), 64)
    assert 0 < checked[0] < 64
    # a run whose candidate did not land has not met the rate: no refusal
    out = js.simulate_batch(m, 3.0, 1e-9, 1, js.RngSpec(4), 64)
    assert np.all(out["terminal"] == 3.0) and not out["jumps"].any()
    tr = js.simulate_exact(m, 3.0, 1e-9, 1, js.RngSpec(4).generator())
    assert tr.terminal == 3.0 and not tr.events


def test_thinning_candidates_blow_up():
    blown = "state blew up at a thinning candidate"
    # h = (1 + 1e4 y) e^{-z}: the first jump from 0 moves the state by at
    # most 1, the third leaves [-1e8, 1e8], so the check of moved states
    # after round one catches it
    m = _thin_model()
    m = dataclasses.replace(
        m, h=js.JumpAmplitude(((js.Affine(1.0, 1e4), js.ExpDecay(1.0, 1.0)),))
    )
    with pytest.raises(js.BlowUpError, match=blown):
        js.simulate_batch(m, 0.0, 50.0, 1, js.RngSpec(8), 64)
    with pytest.raises(js.BlowUpError, match=blown):
        js.simulate_exact(m, 0.0, 50.0, 1, js.RngSpec(8).generator())
    # kicks x + x^2 / i of the poissonized chain grow without bound
    quad = _drift_model(js.FunctionProduct(js.Affine(0.0, 1.0), js.Affine(0.0, 1.0)))
    i = quad.min_drift_index()
    with pytest.raises(js.BlowUpError, match=blown):
        js.simulate_batch(quad, 2.0, 50.0, 1, js.RngSpec(8), 64, i=i)
    with pytest.raises(js.BlowUpError, match=blown):
        js.simulate_poissonized(quad, 2.0, 50.0, i, 1, js.RngSpec(8).generator())


def test_blow_up_check_takes_two_reductions():
    # min/max reductions: NaN, +-inf and the floats just past +-BLOW_UP are
    # refused wherever they sit; the bounds themselves and no states pass
    check, top = simulate_module._check_state, simulate_module.BLOW_UP
    bad = (np.nan, np.inf, -np.inf, np.nextafter(top, np.inf), np.nextafter(-top, -np.inf))
    for value in bad:
        for states in (np.array([value]), np.array([0.0, value, 1.0])):
            with pytest.raises(js.BlowUpError, match="state blew up at a thinning candidate"):
                check(states)
    check(np.array([-top, 0.0, top]))
    check(np.empty(0))


@pytest.mark.parametrize(
    "probe, message",
    [
        # numpy's broadcast ValueError before
        ("batch_shape", "x0 must be one state or 10 states, got shape (5,)"),
        # these three raised BlowUpError in the engine's first round
        ("batch_nan", "x0 must be finite, got nan"),
        ("batch_one_inf", "x0 must be finite: 1 of 64 initial states are not"),
        ("exact_nan", "x0 must be finite, got nan"),
        ("poissonized_inf", "x0 must be finite, got inf"),
        ("tau_nan", "x0 must be finite, got nan"),
        ("gaussian_nan", "mean must be finite, got nan"),
        ("gaussian_inf", "mean must be finite, got inf"),
        # finite starts beyond BLOW_UP: a batch raised BlowUpError in its first
        # round, and where the drift flow carried the start back into range,
        # whether it was refused depended on the seed (5 ran to the end)
        ("batch_beyond", "x0 must lie within +-1e+08: 64 of 64 initial states do not, "
                         "the first 200000000.0"),
        ("poissonized_batch_beyond", "x0 must lie within +-1e+08: 64 of 64 initial states"),
        ("filtered_batch_beyond", "x0 must lie within +-1e+08: 1 of 64 initial states do not, "
                                  "the first -150000000.0"),
        ("exact_drift_beyond", "x0 must lie within +-1e+08: 1 of 1 initial states do not, "
                               "the first 200000000.0"),
        ("poissonized_beyond", "x0 must lie within +-1e+08: 1 of 1 initial states"),
        ("tau_beyond", "x0 must lie within +-1e+08: 1 of 1 initial states"),
    ],
    ids=["batch_shape", "batch_nan", "batch_one_inf", "exact_nan", "poissonized_inf",
         "tau_nan", "gaussian_nan", "gaussian_inf", "batch_beyond", "poissonized_batch_beyond",
         "filtered_batch_beyond", "exact_drift_beyond", "poissonized_beyond", "tau_beyond"],
)
def test_initial_states_that_are_not_finite_are_refused(
    probe, message, monkeypatch, wobble_model, exp_unit_model
):
    # refused before any draw: the engine is never reached
    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(simulate_module, "_thinning", engine)
    m, rng = _thin_model(), js.RngSpec(8).generator()
    inward = dataclasses.replace(wobble_model, b=js.Affine(0.0, -1.0))  # flows 2e8 to 1e7 by t = 3
    i = wobble_model.min_drift_index()
    kd = js.make_kernels(exp_unit_model, (2,), theta=4.2)
    calls = {
        "batch_shape": lambda: js.simulate_batch(m, np.zeros(5), 0.5, 1, js.RngSpec(1), 10),
        "batch_nan": lambda: js.simulate_batch(m, math.nan, 1.0, 1, js.RngSpec(8), 64),
        "batch_one_inf": lambda: js.simulate_batch(
            m, np.r_[np.zeros(63), math.inf], 1.0, 1, js.RngSpec(8), 64
        ),
        "exact_nan": lambda: js.simulate_exact(m, math.nan, 1.0, 1, rng),
        "poissonized_inf": lambda: js.simulate_poissonized(
            wobble_model, math.inf, 1.0, wobble_model.min_drift_index(), 1, rng
        ),
        "tau_nan": lambda: js.sample_tau_n(
            exp_unit_model, js.make_kernels(exp_unit_model, (2,), theta=4.2),
            math.nan, 2, 1.0, 1, rng,
        ),
        "gaussian_nan": lambda: js.gaussian_density((-4.0, 4.0), 64, 1, mean=math.nan),
        "gaussian_inf": lambda: js.gaussian_density((-4.0, 4.0), 64, 1, mean=math.inf),
        "batch_beyond": lambda: js.simulate_batch(inward, 2e8, 3.0, 1, js.RngSpec(5), 64),
        "poissonized_batch_beyond": lambda: js.simulate_batch(
            wobble_model, 2e8, 1.0, 1, js.RngSpec(5), 64, i=i
        ),
        "filtered_batch_beyond": lambda: js.simulate_batch(
            exp_unit_model, np.r_[np.zeros(63), -1.5e8], 1.0, 1, js.RngSpec(5), 64,
            kernels=kd, filter_n=2,
        ),
        "exact_drift_beyond": lambda: js.simulate_exact(
            inward, 2e8, 3.0, 1, js.RngSpec(5).generator()
        ),
        "poissonized_beyond": lambda: js.simulate_poissonized(wobble_model, 2e8, 1.0, i, 1, rng),
        "tau_beyond": lambda: js.sample_tau_n(exp_unit_model, kd, 2e8, 2, 1.0, 1, rng),
    }
    with pytest.raises(js.ContractError, match=re.escape(message)):
        calls[probe]()


@pytest.mark.parametrize("k", [1, 2, 3, 1000])
def test_engine_draw_identities(k):
    # the engine draws standard exponentials and uniforms on [0, 1) straight
    # into its round buffer and scales them once per round; that these are
    # numpy's exponential(s) and uniform(0, ubar), byte for byte, is what keeps
    # its bytes those of the per-call draws
    s, ubar = 1.0 / 42.7, 1.05 * 1.3
    for c in (0, 31):
        want = js.RngSpec(2029, stream=1).chunk_generator(c)
        got = js.RngSpec(2029, stream=1).chunk_generator(c)
        expected = [want.exponential(s, k), want.uniform(0.0, 1.0, k), want.uniform(0.0, ubar, k)]
        gaps, level, u = np.empty(k), np.empty(k), np.empty(k)
        got.standard_exponential(out=gaps)
        got.random(out=level)
        got.random(out=u)
        gaps *= s
        u *= ubar
        assert gaps.tobytes() == expected[0].tobytes()
        assert level.tobytes() == expected[1].tobytes()
        assert u.tobytes() == expected[2].tobytes()


def test_truncation_coupling_shares_jump_times():
    # constant rate: acceptance does not depend on the state, so the narrow
    # run's jumps are exactly the wide run's jumps with marks in the narrow
    # window, under a shared candidate stream
    m = _thin_model(js.constant(0.8), amp=0.2, trunc=(1.0, 3.0))
    wide = js.simulate_exact(m, 0.0, 6.0, 2, js.RngSpec(21).generator(), couple_top=2)
    narrow = js.simulate_exact(m, 0.0, 6.0, 1, js.RngSpec(21).generator(), couple_top=2)
    wide_jumps = [(e.time, e.mark) for e in wide.events if e.kind == "jump"]
    narrow_jumps = [(e.time, e.mark) for e in narrow.events if e.kind == "jump"]
    expected = [(t, z) for (t, z) in wide_jumps if z <= 1.0]
    assert narrow_jumps == expected
    skips = {e.mark for e in narrow.events if e.kind == "skip"}
    assert all(z > 1.0 for z in skips)


def test_coupling_window_must_contain_active():
    m = _thin_model(js.constant(0.8), amp=0.2, trunc=(1.0, 3.0))
    with pytest.raises(js.ContractError):
        js.simulate_exact(m, 0.0, 1.0, 2, js.RngSpec(1).generator(), couple_top=1)


def test_mark_sampler_restricted_exponential():
    spec = js.JumpMeasureSpec((0.0, np.inf), js.ExpDecay(1.0, 1.0), (2.0,))
    sampler = js.MarkSampler(spec, (0.0, 2.0))
    assert sampler.mass == pytest.approx(1.0 - math.exp(-2.0), rel=1e-6)
    draws = sampler.sample(js.RngSpec(9).generator(), 100_000)
    assert np.all((draws >= 0.0) & (draws <= 2.0))
    cdf = lambda z: (1.0 - np.exp(-z)) / (1.0 - math.exp(-2.0))
    _, pval = stats.kstest(draws, cdf)
    assert pval > 0.01


@pytest.mark.parametrize("law", ["wobble", "power", "collapse", "gapped", "steep"])
def test_mark_sampler_invert_is_np_interp_bit_for_bit(
    law, wobble_model, power_model, collapse_model
):
    # the guide table must find np.interp's cell and repeat its arithmetic:
    # flat CDF stretches (gapped), cells crowded into few buckets (steep,
    # where the binary-search fallback runs), exact node hits, u = 0; u = 1
    # and 2-d input go to np.interp itself.  The engine's inner step takes
    # each array's levels in [0, 1) as one 1-d array, unchecked, and repairs
    # node hits only where some level hits a node (none in u past the nodes)
    steep = js.JumpMeasureSpec((0.0, np.inf), js.ExpDecay(1.0, 8.0), (6.0,))
    spec, interval = {
        "wobble": (wobble_model.q, wobble_model.q.trunc_interval(3)),
        "power": (power_model.q, power_model.q.trunc_interval(2)),
        "collapse": (collapse_model.q, collapse_model.q.trunc_interval(1)),
        "gapped": (_gapped_collapse(collapse_model).q, (0.0, 6.0)),
        "steep": (steep, (0.0, 6.0)),
    }[law]
    sampler = js.MarkSampler(spec, interval)
    cdf, zs = sampler._cdf, sampler._zs
    u = js.RngSpec(71).generator().uniform(0.0, 1.0, 1_000_000)
    u[: cdf.size - 1] = cdf[:-1]  # every node below 1, u = 0 among them
    for levels in (u, u[:1], u[cdf.size - 1 :], np.array([0.0, 1.0, 0.5, 1.0]),
                   u[:4096].reshape(64, 64)):
        assert sampler.invert(levels).tobytes() == np.interp(levels, cdf, zs).tobytes()
        inner = levels.ravel()[levels.ravel() < 1.0]
        assert sampler._invert(inner).tobytes() == np.interp(inner, cdf, zs).tobytes()


# ---------------------------------------------------------------------------
# degenerate rates and drift surrogates
# ---------------------------------------------------------------------------


def test_zero_rate_exact_is_pure_flow():
    m = _drift_model(js.Affine(0.0, -1.0))
    tr = js.simulate_exact(m, 2.0, 1.0, 1, js.RngSpec(4).generator())
    assert tr.events == ()
    assert tr.terminal == pytest.approx(2.0 * math.exp(-1.0), rel=1e-9)
    out = js.simulate_batch(m, 2.0, 1.0, 1, js.RngSpec(4), 64)
    assert np.allclose(out["terminal"], 2.0 * math.exp(-1.0), rtol=1e-9)
    assert out["candidate_rate"] == 0.0


class _CountingDrift(js.Function1D):
    """Linear decay -x/10 that counts how many states it was evaluated at."""

    def __init__(self):
        self.evals = 0

    def derivative(self, x, l: int):
        x = np.asarray(x, dtype=float)
        if l == 0:
            self.evals += x.size
            return -0.1 * x
        return np.full_like(x, -0.1) if l == 1 else np.zeros_like(x)


def test_batch_drift_steps_honour_max_step():
    # pure drift over t=10 at max_step 1e-3: 10 000 RK4 steps of 4 drift
    # evaluations for every run, with no cap on the step count
    drift = _CountingDrift()
    m = _drift_model(drift)
    runs = 5
    drift.evals = 0
    out = js.simulate_batch(
        m, 2.0, 10.0, 1, js.RngSpec(8), runs, max_step=1e-3
    )
    assert drift.evals == 4 * 10_000 * runs
    assert np.allclose(out["terminal"], 2.0 * math.exp(-1.0), rtol=1e-12)


def test_derived_step_meets_the_flow_tolerance_on_wobble(wobble_model):
    # the default step against a fixed-step 1e-5 reference: the terminal
    # states agree within FLOW_TOL per unit time, and every jump count is equal
    t_end = 0.05
    got = js.simulate_batch(wobble_model, 0.2, t_end, 1, js.RngSpec(41), 300)
    ref = js.simulate_batch(wobble_model, 0.2, t_end, 1, js.RngSpec(41), 300, max_step=1e-5)
    assert np.array_equal(got["jumps"], ref["jumps"]) and got["jumps"].any()
    assert np.max(np.abs(got["terminal"] - ref["terminal"])) <= FLOW_TOL * t_end


@pytest.mark.parametrize("slope", [20.0, 40.0])
def test_derived_step_meets_the_flow_tolerance_on_a_steep_drift(slope):
    # x' = slope * x has the closed-form flow x0 e^(slope t), here from
    # e^-5 [-3, 3] to [-3, 3] inside the audit window, where a flow error
    # grows with the state.  The old fixed step 1e-3 misses FLOW_TOL per
    # unit time; the derived step meets it
    m = _drift_model(js.Affine(0.0, slope))
    t_end = 5.0 / slope
    x0 = np.linspace(-3.0, 3.0, 7) * math.exp(-5.0)
    exact = x0 * math.exp(slope * t_end)
    gap = {
        step: np.max(np.abs(
            js.simulate_batch(m, x0, t_end, 1, js.RngSpec(5), x0.size, max_step=step)["terminal"]
            - exact
        ))
        for step in (None, 1e-3)
    }
    assert gap[None] <= FLOW_TOL * t_end < gap[1e-3]


def test_flow_step_reads_the_drift_up_to_its_smooth_order():
    # tabulated (C^2) and smoothstep (C^3) drifts get a finite step from
    # their derivatives up to that order; a drift constant on the window gets
    # one exact step per segment; a drift that is not Lipschitz is refused
    xs = np.linspace(-6.0, 6.0, 9)
    for b in (js.Tabulated(xs, 0.3 * np.sin(xs)), js.SmoothstepBump(-2.0, 2.0, 1.0, 3, 0.5)):
        assert 0.0 < flow_step(_drift_model(b)) < math.inf
    still = _drift_model(js.constant(0.8))
    assert flow_step(still) == math.inf
    tr = js.simulate_exact(still, 0.1, 1.5, 1, js.RngSpec(2).generator())
    assert tr.terminal == pytest.approx(0.1 + 0.8 * 1.5, rel=1e-15)
    with pytest.raises(js.ContractError, match="set max_step"):
        js.simulate_batch(_drift_model(js.Indicator(0.0, 1.0)), 0.5, 1.0, 1, js.RngSpec(2), 4)
    out = js.simulate_batch(
        _drift_model(js.Indicator(0.0, 1.0)), 0.5, 1.0, 1, js.RngSpec(2), 4, max_step=1e-2
    )
    assert np.all(out["terminal"] == out["terminal"][0])


def test_flow_step_is_not_evaluated_without_a_flow(wobble_model, power_model, monkeypatch):
    # a zero drift and the poissonized chain never evaluate the step rule
    def refuse(coeffs):
        raise AssertionError("the step rule was evaluated")

    monkeypatch.setattr(simulate_module, "flow_step", refuse)
    js.simulate_batch(power_model, 0.0, 0.5, 1, js.RngSpec(3), 64)
    js.simulate_exact(power_model, 0.0, 0.5, 1, js.RngSpec(3).generator())
    js.simulate_batch(wobble_model, 0.0, 0.5, 1, js.RngSpec(3), 64, i=8)
    js.simulate_poissonized(wobble_model, 0.0, 0.5, 8, 1, js.RngSpec(3).generator())
    with pytest.raises(AssertionError, match="step rule"):
        js.simulate_batch(wobble_model, 0.0, 0.5, 1, js.RngSpec(3), 64)


def test_drift_flow_steps_are_per_run(wobble_model):
    # segments 100-fold apart in one call: run r takes ceil(seg_r / max_step)
    # steps of its own, so it gets the bytes it gets when flowed alone
    max_step = 1e-3
    x = np.linspace(-2.0, 2.0, 7)
    seg = np.array([0.005, 0.5, 0.0123, 0.0, 0.5, 0.00731, 0.2])
    drift = _CountingDrift()
    for m in (_drift_model(drift), wobble_model):
        together = _drift_flow_batch(m, x, seg, max_step)
        for r in range(x.size):
            alone = _drift_flow_batch(m, x[r : r + 1], seg[r : r + 1], max_step)
            assert together[r : r + 1].tobytes() == alone.tobytes()
    drift.evals = 0
    _drift_flow_batch(_drift_model(drift), x, seg, max_step)
    assert drift.evals == 4 * sum(math.ceil(s / 1e-3) for s in seg)


def test_poissonized_kick_moments():
    # gamma = 0: X_t = x0 + beta N_t / i with N_t Poisson(i t)
    m = _drift_model(js.constant(0.8))
    i, t, runs = 10, 2.0, 20000
    out = js.simulate_batch(m, 0.0, t, 1, js.RngSpec(31), runs, i=i)
    mean, var = out["terminal"].mean(), out["terminal"].var()
    want_mean = 0.8 * t
    want_var = 0.8**2 * t / i
    assert abs(mean - want_mean) <= 4.0 * math.sqrt(want_var / runs)
    assert abs(var - want_var) <= 0.1 * want_var


def test_poissonized_single_path_matches_kick_grid():
    m = _drift_model(js.constant(1.0))
    tr = js.simulate_poissonized(m, 0.0, 1.0, 8, 1, js.RngSpec(12).generator())
    kicks = tr.count("drift")
    assert tr.terminal == pytest.approx(kicks * 1.0 / 8.0, abs=1e-12)


def test_poissonized_index_floor(wobble_model):
    # sup|b'| = 0.2: i0 = 1, so i = 0 is invalid through the batch entry
    with pytest.raises(js.ContractError):
        js.simulate_batch(wobble_model, 0.0, 1.0, 1, js.RngSpec(1), 8, i=0)


def test_drift_blow_up_raises():
    m = _drift_model(js.FunctionProduct(js.Affine(0.0, 1.0), js.Affine(0.0, 1.0)))
    with pytest.raises(js.BlowUpError):
        js.simulate_exact(m, 2.0, 2.0, 1, js.RngSpec(2).generator())
    with pytest.raises(js.BlowUpError):
        js.simulate_batch(m, 2.0, 2.0, 1, js.RngSpec(2), 16)


def test_thinning_rejects_negative_horizon(wobble_model, exp_unit_model):
    # a negative horizon used to return x0 with no jumps and no error
    with pytest.raises(js.ContractError, match="horizon"):
        js.simulate_batch(wobble_model, 0.5, -1.0, 1, js.RngSpec(3), 64)
    with pytest.raises(js.ContractError, match="horizon"):
        js.simulate_exact(wobble_model, 0.5, -1.0, 1, js.RngSpec(3).generator())
    with pytest.raises(js.ContractError, match="horizon"):
        js.simulate_poissonized(wobble_model, 0.5, -1.0, 8, 1, js.RngSpec(3).generator())
    kd = js.make_kernels(exp_unit_model, (2, 3), theta=4.2)
    with pytest.raises(js.ContractError, match="horizon"):
        js.sample_tau_n(exp_unit_model, kd, 0.0, 2, -1.0, 1, js.RngSpec(3).generator())


def test_infinite_horizon_is_refused_at_once(exp_unit_model):
    # every candidate lands before an infinite horizon, so batches and single
    # paths never returned.  These models end quickly even unchecked: no jumps
    # and no drift, or kicks that blow up
    still = _drift_model(js.constant(0.0))
    with pytest.raises(js.ContractError, match="finite"):
        js.simulate_batch(still, 0.0, math.inf, 1, js.RngSpec(3), 64)
    with pytest.raises(js.ContractError, match="finite"):
        js.simulate_exact(still, 0.0, math.inf, 1, js.RngSpec(3).generator())
    growth = _drift_model(js.Affine(0.0, 1.0))
    with pytest.raises(js.ContractError, match="finite"):
        js.simulate_poissonized(growth, 1.0, math.inf, 2, 1, js.RngSpec(3).generator())
    # sample_tau_n may still wait as long as it takes for its first kept jump
    kd = js.make_kernels(exp_unit_model, (2,), theta=4.2)
    rec = js.sample_tau_n(exp_unit_model, kd, 0.0, 2, math.inf, 1, js.RngSpec(3).generator())
    assert rec is not None and math.isfinite(rec.tau)


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
def test_ode_options_reject_bad_max_step(wobble_model, bad):
    # 0 and NaN used to skip the drift flow; a negative step ran the minimum
    with pytest.raises(js.ContractError, match="max_step must be positive and finite"):
        js.simulate_batch(wobble_model, 0.0, 1.0, 1, js.RngSpec(3), 8, max_step=bad)
    with pytest.raises(js.ContractError, match="max_step must be positive and finite"):
        js.simulate_exact(wobble_model, 0.0, 1.0, 1, js.RngSpec(3).generator(), max_step=bad)


# ---------------------------------------------------------------------------
# filtered jumps
# ---------------------------------------------------------------------------


def test_sample_tau_n_record_invariants(exp_unit_model):
    kd = js.make_kernels(exp_unit_model, (2, 3), theta=4.2)
    rng = js.RngSpec(100).generator()
    seen = 0
    for _ in range(40):
        rec = js.sample_tau_n(exp_unit_model, kd, 0.0, 2, 50.0, 1, rng)
        if rec is None:
            continue
        seen += 1
        assert 0.0 < rec.tau <= 50.0
        assert rec.post == pytest.approx(
            rec.pre + float(exp_unit_model.h.value(rec.pre, rec.mark)), abs=1e-12
        )
        # kept marks lie where the cutoff is positive: w = z in (1, n+3)
        assert 1.0 < rec.mark < 5.0
    assert seen >= 35  # filtered rate 3 over half a century of horizon


def test_sample_tau_n_rejects_foreign_kernels(exp_unit_model, wobble_model):
    kd_other = js.make_kernels(wobble_model, (2,), theta=14.0)
    with pytest.raises(js.ContractError):
        js.sample_tau_n(exp_unit_model, kd_other, 0.0, 2, 1.0, 1, js.RngSpec(1).generator())


def test_sample_tau_n_rejects_undeclared_index(exp_unit_model):
    kd = js.make_kernels(exp_unit_model, (2,), theta=4.2)
    with pytest.raises(js.ContractError):
        js.sample_tau_n(exp_unit_model, kd, 0.0, 5, 1.0, 1, js.RngSpec(1).generator())


def test_filtered_rate_clipped_by_truncation():
    h = js.JumpAmplitude(((js.constant(1.0), js.ExpDecay(1.0, 1.0)),))
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0, 12.0))
    m = js.CoefficientSet(
        b=js.constant(0.0), gamma=js.constant(1.0), h=h,
        eta=js.ExpDecay(1.0, 1.0), q=q, k=2, y_window=(-3.0, 3.0),
    )
    kd = js.make_kernels(m, (2,), theta=4.2)
    with pytest.raises(js.ContractError, match="clips"):
        js.sample_tau_n(m, kd, 0.0, 2, 1.0, 1, js.RngSpec(1).generator())
    rec = js.sample_tau_n(m, kd, 0.0, 2, 50.0, 2, js.RngSpec(1).generator())
    assert rec is None or rec.tau > 0.0


def test_filtered_rate_audited_once_per_index_and_truncation(exp_unit_model, monkeypatch):
    calls = []
    real = kernels_module.cutoff_window_mass

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels_module, "cutoff_window_mass", counted)
    kd = js.make_kernels(exp_unit_model, (2,), theta=4.2)
    counts = []
    for _ in range(2):
        js.sample_tau_n(exp_unit_model, kd, 0.0, 2, 1.0, 1, js.RngSpec(1).generator())
        counts.append(len(calls))
    assert counts == [25, 25]  # 25 audit states, then the passed audit is reused
    # a failing audit is not remembered
    q = js.JumpMeasureSpec((0.0, np.inf), js.constant(1.0), (2.0,))
    clipped = dataclasses.replace(exp_unit_model, q=q)
    kd = js.make_kernels(clipped, (2,), theta=4.2)
    for _ in range(2):
        with pytest.raises(js.ContractError, match="clips"):
            js.sample_tau_n(clipped, kd, 0.0, 2, 1.0, 1, js.RngSpec(1).generator())
    assert len(calls) == 75


def test_filtered_survival_rate(exp_unit_model):
    # the n-th filtered kernel fires at rate mass(n) = n + 1
    n, t_end, runs = 2, 1.0, 20000
    kd = js.make_kernels(exp_unit_model, (n,), theta=4.2)
    out = js.simulate_batch(
        exp_unit_model, 0.0, t_end, 1, js.RngSpec(55), runs, kernels=kd, filter_n=n
    )
    surv = float(np.mean(out["tau"] > 0.5))
    want = math.exp(-3.0 * 0.5)
    sigma = math.sqrt(want * (1.0 - want) / runs)
    assert abs(surv - want) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# single paths: batch-of-one runs of the thinning core
# ---------------------------------------------------------------------------

# recorded when the substreams moved from Philox to PCG64DXSM
SCALAR_PINS = Path(__file__).parent / "data" / "scalar_paths.json"


def _path_record(tr) -> dict:
    return {
        "kinds": [e.kind for e in tr.events],
        "draws": [[e.time, e.mark, e.u, e.v] for e in tr.events],
        "pre": [e.pre for e in tr.events],
        "post": [e.post for e in tr.events],
        "states": tr.states.tolist(),
    }


def _scalar_paths(wobble, ripple, power, exp_unit) -> dict:
    out = {}
    step = 1e-3  # the drift paths were recorded at this fixed step
    for s in (3, 7, 11):
        tr = js.simulate_exact(wobble, 0.2, 1.5, 1, js.RngSpec(s).generator(), max_step=step)
        out[f"exact/wobble/{s}"] = _path_record(tr)
    for s in (5, 9):  # marks from the trunc-2 window, skipped outside trunc 1
        tr = js.simulate_exact(
            ripple, 0.0, 1.0, 1, js.RngSpec(s).generator(), max_step=step, couple_top=2
        )
        out[f"exact/ripple-coupled/{s}"] = _path_record(tr)
    tr = js.simulate_exact(
        _drift_model(js.Affine(0.0, -1.0)), 2.0, 1.0, 1, js.RngSpec(4).generator(), max_step=step
    )
    out["exact/zero-rate/4"] = _path_record(tr)
    for s in (6, 12):
        tr = js.simulate_poissonized(wobble, 0.2, 1.0, 8, 1, js.RngSpec(s).generator())
        out[f"poissonized/wobble/{s}"] = _path_record(tr)
        tr = js.simulate_poissonized(power, 0.5, 1.0, 4, 1, js.RngSpec(s).generator())
        out[f"poissonized/power/{s}"] = _path_record(tr)
    kd = js.make_kernels(exp_unit, (2,), theta=4.2)
    rng = js.RngSpec(100).generator()  # shared: each call starts where the last stopped
    recs = [js.sample_tau_n(exp_unit, kd, 0.0, 2, 2.0, 1, rng) for _ in range(12)]
    out["tau/exp-unit/100"] = [
        None if r is None else [r.tau, r.pre, r.post, r.mark] for r in recs
    ]
    return out


def test_scalar_paths_pinned(wobble_model, ripple_model, power_model, exp_unit_model):
    # draws and event kinds must repeat exactly; states may move at rounding level
    want = json.loads(SCALAR_PINS.read_text())
    got = _scalar_paths(wobble_model, ripple_model, power_model, exp_unit_model)
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        if key.startswith("tau/"):
            assert [r is None for r in g] == [r is None for r in w]
            hits = [(a, b) for a, b in zip(g, w) if b is not None]
            assert len(hits) >= 4
            for a, b in hits:
                assert a[3] == b[3]  # the mark
                np.testing.assert_allclose(a[:3], b[:3], rtol=1e-12, atol=0.0)
            continue
        assert g["kinds"] == w["kinds"], key
        assert g["draws"] == w["draws"], key
        for field in ("pre", "post", "states"):
            np.testing.assert_allclose(g[field], w[field], rtol=1e-12, atol=0.0, err_msg=key)


def test_scalar_paths_are_batches_of_one(wobble_model, ripple_model, power_model, exp_unit_model):
    # one thinning engine: a single path on chunk 0's generator is run 0 of a
    # one-run batch under the same RngSpec, bit for bit
    max_step = 1e-2
    for m in (wobble_model, ripple_model, power_model):
        for s in range(40):
            spec = js.RngSpec(s)
            tr = js.simulate_exact(m, 0.2, 1.0, 1, spec.chunk_generator(0), max_step=max_step)
            out = js.simulate_batch(m, 0.2, 1.0, 1, spec, 1, max_step=max_step)
            assert tr.states[-1:].tobytes() == out["terminal"].tobytes(), (m.label, s)
            assert tr.count("jump") == out["jumps"][0]
            tr = js.simulate_poissonized(m, 0.2, 1.0, 8, 1, spec.chunk_generator(0))
            out = js.simulate_batch(m, 0.2, 1.0, 1, spec, 1, i=8)
            assert tr.states[-1:].tobytes() == out["terminal"].tobytes(), (m.label, s)
            assert tr.count("jump") == out["jumps"][0]
    # the filtered first jump is one of the exact path's jumps under a common seed
    kd = js.make_kernels(exp_unit_model, (2,), theta=4.2)
    hits = 0
    for s in range(30):
        rec = js.sample_tau_n(exp_unit_model, kd, 0.0, 2, 2.0, 1, js.RngSpec(s).generator())
        tr = js.simulate_exact(exp_unit_model, 0.0, 2.0, 1, js.RngSpec(s).generator())
        if rec is not None:
            hits += 1
            jumps = [(e.time, e.pre, e.post, e.mark) for e in tr.events if e.kind == "jump"]
            assert (rec.tau, rec.pre, rec.post, rec.mark) in jumps
    assert hits >= 20


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_estimate_density_normal_l1():
    rng = js.RngSpec(60).generator()
    s = rng.normal(0.0, 1.0, 100_000)
    dens = js.estimate_density(s, (-5.0, 5.0), size=1024)
    assert dens.mass() == pytest.approx(1.0, abs=1e-10)
    ref = stats.norm.pdf(dens.grid)
    l1 = np.trapezoid(np.abs(dens.values[0] - ref), dens.grid)
    assert l1 <= 0.02


def test_estimate_density_derivative_row():
    rng = js.RngSpec(61).generator()
    s = rng.normal(0.0, 1.0, 200_000)
    dens = js.estimate_density(s, (-5.0, 5.0), size=1024, order=1)
    total_var = np.trapezoid(np.abs(dens.values[1]), dens.grid)
    assert total_var == pytest.approx(2.0 / math.sqrt(2.0 * math.pi), rel=0.05)


def test_estimate_density_atom_becomes_bump():
    s = np.full(500, 1.294)
    dens = js.estimate_density(s, (0.0, 2.0), size=512)
    assert dens.mass() == pytest.approx(1.0, abs=1e-10)
    assert abs(dens.grid[np.argmax(dens.values[0])] - 1.294) < 0.02


def test_estimate_density_guards():
    rng = js.RngSpec(62).generator()
    with pytest.raises(js.ContractError):
        js.estimate_density(rng.normal(size=50), (-3.0, 3.0))
    with pytest.raises(js.WindowTooSmallError):
        js.estimate_density(rng.normal(size=1000), (10.0, 12.0))
    with pytest.raises(js.ContractError):
        js.estimate_density(rng.normal(size=1000), (-3.0, 3.0), bandwidth=-0.1)
    with pytest.raises(js.ContractError):
        js.estimate_density(rng.normal(size=1000), (-3.0, 3.0), order=5)


@pytest.mark.parametrize("size", [100.5, 100.0, True])
def test_estimate_density_refuses_a_size_that_is_not_an_integer(size):
    # 100.5 raised numpy's TypeError ("Cannot cast array data ...")
    s = js.RngSpec(62).generator().normal(size=1000)
    with pytest.raises(js.ContractError, match=f"^size must be an integer, got {size!r}$"):
        js.estimate_density(s, (-4.0, 4.0), size=size)
    assert js.estimate_density(s, (-4.0, 4.0), size=np.int64(100)).size == 100


@pytest.mark.parametrize("bins", [10.5, 10.0, True])
def test_histogram_density_refuses_bins_that_are_not_an_integer(bins):
    # 10.5 raised numpy's TypeError ("`bins` must be an integer ...")
    s = js.RngSpec(62).generator().normal(size=1000)
    with pytest.raises(js.ContractError, match=f"^bins must be an integer, got {bins!r}$"):
        js.histogram_density(s, (-4.0, 4.0), bins=bins)
    assert js.histogram_density(s, (-4.0, 4.0), bins=np.int64(10)).size == 10


@pytest.mark.parametrize(
    "bins, window, message",
    [
        (0, (-4.0, 4.0), "bins must be at least 8, got 0"),
        (-3, (-4.0, 4.0), "bins must be at least 8, got -3"),
        (1, (-4.0, 4.0), "bins must be at least 8, got 1"),
        (7, (-4.0, 4.0), "bins must be at least 8, got 7"),
        (64, (4.0, -4.0), "density window must be finite with hi > lo"),
        (64, (0.0, math.inf), "density window must be finite with hi > lo"),
        # a density on [0.53, 1.47], a window the caller never asked for
        (64, (1.0, 1.0), "density window must be finite with hi > lo"),
    ],
    ids=["bins0", "bins-3", "bins1", "bins7", "reversed", "infinite", "empty"],
)
def test_histogram_density_refuses_bad_grids(bins, window, message):
    # numpy raised ValueErrors for bins 0 and -3 and the first two windows,
    # and bins 1-7 a GridDensity error that did not name bins
    s = js.RngSpec(62).generator().normal(size=1000)
    with pytest.raises(js.ContractError, match=re.escape(message)):
        js.histogram_density(s, window, bins=bins)
    if bins == 64:  # the rule is estimate_density's
        with pytest.raises(js.ContractError, match=re.escape(message)):
            js.estimate_density(s, window, size=bins)


def test_histogram_density_mass():
    rng = js.RngSpec(63).generator()
    s = rng.normal(0.0, 1.0, 50_000)
    hist = js.histogram_density(s, (-6.0, 6.0), bins=80)
    assert hist.mass() == pytest.approx(1.0, abs=2e-3)


def test_histogram_density_refuses_non_finite_samples():
    # dropping them would leave a density of mass 0.95 and no error
    s = js.RngSpec(63).generator().normal(0.0, 1.0, 10_000)
    s[::20] = np.nan
    with pytest.raises(js.ContractError, match="500 of 10000 samples are not finite"):
        js.histogram_density(s, (-6.0, 6.0), bins=80)


def test_empirical_cf_point_mass_and_zero_frequency():
    s = np.full(1000, 0.7)
    cf = js.empirical_cf(s, np.array([0.0, 1.0, 5.0]))
    assert cf.values[0] == pytest.approx(1.0 + 0.0j, abs=0)
    assert np.allclose(cf.magnitude(), 1.0, atol=1e-12)
    assert cf.values[1] == pytest.approx(np.exp(1j * 0.7), abs=1e-12)


def test_empirical_cf_exponential_law():
    rng = js.RngSpec(64).generator()
    s = rng.exponential(1.0, 200_000)
    cf = js.empirical_cf(s, np.array([1.0]))
    # exp(1): |cf(1)| = 1/sqrt(2)
    assert abs(cf.magnitude()[0] - 1.0 / math.sqrt(2.0)) <= 3.0 * cf.stderr


def test_empirical_cf_symmetric_grid_conjugate():
    rng = js.RngSpec(65).generator()
    s = rng.normal(size=5000)
    xi = np.linspace(-3, 3, 13)
    cf = js.empirical_cf(s, xi)
    assert np.allclose(cf.values, np.conj(cf.values[::-1]), atol=1e-12)
    with pytest.raises(js.ContractError):
        js.empirical_cf(s, np.array([[1.0, 2.0]]))


def test_estimators_refuse_bad_samples():
    good = js.RngSpec(66).generator().normal(size=1000)
    for bad, count in ((np.nan, 1), (np.inf, 1), (-np.inf, 3)):
        s = good.copy()
        s[:count] = bad
        with pytest.raises(js.ContractError, match=f"{count} of 1000 samples are not finite"):
            js.estimate_density(s, (-4.0, 4.0))
        with pytest.raises(js.ContractError, match=f"{count} of 1000 samples are not finite"):
            js.empirical_cf(s, np.array([1.0]))
    for empty in (np.array([]), np.zeros((10, 10))):
        with pytest.raises(js.ContractError, match="non-empty 1-d"):
            js.empirical_cf(empty, np.array([1.0]))
    # a kernel far narrower than the node step would need ~1e9 fine bins
    with pytest.raises(js.ContractError, match="too narrow"):
        js.estimate_density(good, (-4.0, 4.0), bandwidth=1e-6)


def _direct_cf(s, xi):
    return np.exp(1j * np.multiply.outer(s, xi)).mean(axis=0)


@pytest.mark.parametrize("law", ["normal", "exponential", "atom_mixture", "cauchy"])
def test_empirical_cf_within_binning_error_of_direct_sum(law):
    rng = js.RngSpec(67).generator()
    n = 20_000
    s = {
        "normal": lambda: rng.normal(0.3, 1.0, n),
        "exponential": lambda: rng.exponential(1.0, n),
        "atom_mixture": lambda: np.where(rng.random(n) < 0.2, 0.5, rng.normal(0.0, 1.0, n)),
        "cauchy": lambda: 10.0 * rng.standard_cauchy(n),
    }[law]()
    if law == "cauchy":
        assert np.ptp(s) >= 1e5
    xi = np.concatenate([-np.geomspace(0.5, 14.0, 24)[::-1], [0.0], np.geomspace(0.5, 14.0, 24)])
    cf = js.empirical_cf(s, xi)
    assert 0.0 < cf.binning_error <= 0.1 * cf.stderr
    assert np.max(np.abs(cf.values - _direct_cf(s, xi))) <= cf.binning_error


def _direct_kde_rows(s, grid, h, order):
    rows = np.zeros((order + 1, grid.size))
    for block in np.array_split(s, 10):
        u = (grid[None, :] - block[:, None]) / h
        weight = np.exp(-0.5 * u * u) / (s.size * h * math.sqrt(2.0 * math.pi))
        herm = [np.ones_like(u), u]
        for l in range(2, order + 1):
            herm.append(u * herm[l - 1] - (l - 1) * herm[l - 2])
        rows += [(-1.0 / h) ** l * np.sum(herm[l] * weight, axis=0) for l in range(order + 1)]
    return rows / np.trapezoid(rows[0], grid)


def test_estimate_density_matches_direct_sum():
    rng = js.RngSpec(68).generator()
    n = 20_000
    s = np.where(rng.random(n) < 0.3, rng.normal(-1.5, 0.4, n), rng.normal(1.0, 0.8, n))
    s[:50] = 40.0  # beyond the kernel reach of the window: dropped, still counted
    dens = js.estimate_density(s, (-5.0, 5.0), size=300, order=2)
    sd = float(np.std(s))
    q75, q25 = np.percentile(s, [75.0, 25.0])
    h = 0.9 * min(sd, (q75 - q25) / 1.34) * n ** (-0.2)
    ref = _direct_kde_rows(s, dens.grid, h, 2)
    gap = np.trapezoid(np.abs(dens.values - ref), dens.grid, axis=1)
    size = np.trapezoid(np.abs(ref), dens.grid, axis=1)
    assert gap[0] <= 1e-4
    assert np.all(gap[1:] <= 1e-3 * size[1:])


def test_batch_memory_holds_only_the_alive_runs(collapse_model):
    # the engine keeps ids, clocks and states for the alive runs only and
    # writes each terminal state once; the engine that gathered from and
    # scattered into full-size arrays every round peaked at 38.7 MB here
    tracemalloc.start()
    try:
        js.simulate_batch(collapse_model, 0.5, 1.5, 1, js.RngSpec(70), 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 39e6


def test_batch_memory_is_bounded_by_the_group(collapse_model):
    # the engine's buffers are sized by a group of at most GROUP_RUNS runs,
    # and only the outputs by the batch: the engine that advanced a worker's
    # whole share of the batch at once peaked at 165 B per run here
    runs = 400_000
    tracemalloc.start()
    try:
        js.simulate_batch(collapse_model, 0.5, 0.5, 1, js.RngSpec(71), runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / runs < 60.0


def test_estimate_density_memory_does_not_scale_with_nodes_times_samples():
    s = js.RngSpec(69).generator().normal(size=200_000)
    tracemalloc.start()
    try:
        js.estimate_density(s, (-5.0, 5.0), size=512, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
