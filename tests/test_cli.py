"""Command line: exit codes, output files, manifests, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from jumpsmooth import cli, presets
from jumpsmooth.cli import main
from jumpsmooth.config import build_model, load_config
from jumpsmooth.errors import ConfigError
from jumpsmooth.simulate import flow_step

from conftest import BENCH_WORKLOADS, bench_workload


def _base_config(out_dir):
    return {
        "label": "wobble-cli",
        "seed": 11,
        "output": str(out_dir),
        "model": {
            "k": 2,
            "window": [-8.0, 8.0],
            "label": "wobble-cli",
            "drift": {"family": "sinusoidal", "amp": 0.2, "freq": 1.0},
            "rate": {
                "family": "sum",
                "parts": [0.7, {"family": "sinusoidal", "amp": 0.3, "freq": 1.0}],
            },
            "amplitude": [
                {
                    "y": {"family": "constant", "c": 0.4},
                    "z": {"family": "exp_decay", "amp": 1.0, "rate": 1.0},
                }
            ],
            "envelope": {"family": "exp_decay", "amp": 0.4, "rate": 1.0},
            "marks": {"support": [0.0, float("inf")], "truncations": [2.0, 4.0, 6.0]},
        },
        "simulation": {"x0": 0.0, "t_end": 0.4, "runs": 2000},
        "evolution": {
            "i": 8,
            "t_end": 0.3,
            "window": [-8.0, 8.0],
            "nodes": 384,
            "trunc": 2,
        },
        "kernels": {"n_values": [2, 4], "theta": 12.0},
        "diagnostics": {"runs": 4000, "t_end": 0.5, "x0": 0.0},
    }


def _write(tmp_path, cfg, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_check_passes_and_writes_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write(tmp_path, _base_config(out))
    assert main(["check", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sorted(lines) == [
        "inversion_budget: PASS",
        "slope: PASS",
        "smoothness_budget: PASS",
    ]
    reports = json.loads((out / "assumptions.json").read_text())
    assert set(reports) == {"slope", "smoothness_budget", "inversion_budget"}
    assert all(r["passed"] for r in reports.values())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check"
    assert manifest["status"] == 0
    assert manifest["seed"] == 11
    assert manifest["config_sha256"] == hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert manifest["outputs"] == ["assumptions.json", "manifest.json"]


def test_check_degenerate_model_exits_1(tmp_path):
    cfg = _base_config(tmp_path / "out")
    # displacement -y on marks (1,2): violates the non-degeneracy slope floor
    cfg["model"]["k"] = 1
    cfg["model"]["amplitude"] = [
        {"y": {"family": "affine", "a0": 0.0, "a1": -1.0},
         "z": {"family": "indicator", "lo": 1.0, "hi": 2.0, "amp": 1.0}}
    ]
    cfg["model"]["envelope"] = {"family": "indicator", "lo": 1.0, "hi": 2.0, "amp": 1.0}
    cfg["model"]["marks"] = {"support": [0.0, float("inf")], "truncations": [6.0]}
    path = _write(tmp_path, cfg)
    assert main(["check", "--config", path]) == 1
    reports = json.loads((tmp_path / "out" / "assumptions.json").read_text())
    assert not reports["slope"]["passed"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == 1


def test_malformed_or_missing_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed\n  nonsense: {")
    assert main(["check", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["check", "--config", str(tmp_path / "nope.yaml")]) == 2
    cfg = _base_config(tmp_path / "out")
    cfg["mystery"] = 1
    assert main(["check", "--config", _write(tmp_path, cfg, "unknown.yaml")]) == 2
    cfg = _base_config(tmp_path / "out")
    cfg["simulation"] = {"runs": "many"}
    assert main(["check", "--config", _write(tmp_path, cfg, "badfield.yaml")]) == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_an_unreadable_config_exits_2_with_no_output(tmp_path, capsys, kind):
    # each used to end in a traceback (IsADirectoryError, UnicodeDecodeError)
    # and exit 1
    path = tmp_path / "exp.yaml"
    if kind == "directory":
        path.mkdir()
        message = f"config error: cannot read config file {path}: Is a directory"
    else:
        path.write_bytes(yaml.safe_dump(_base_config(tmp_path / "out")).encode() + b"# \xff\n")
        message = f"config error: config file {path} is not UTF-8: 'utf-8' codec can't decode byte 0xff"
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("audit_points", 241), ("c0_tol", 1e-8)])
def test_a_retired_audit_setting_is_an_unknown_key(tmp_path, capsys, key, value):
    # the audit resolution is fixed: the model stanza has no key for it
    cfg = _base_config(tmp_path / "out")
    cfg["model"][key] = value
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"config error: model: unknown keys: ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_unstable_evolution_exits_3(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["evolution"]["dt"] = 0.5  # stability cap for i=8 is ~0.019
    path = _write(tmp_path, cfg)
    assert main(["evolve", "--config", path]) == 3
    assert "numerical failure: StabilityError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_simulate_outputs_thread_invariant(tmp_path):
    cfg = _base_config(tmp_path / "out")
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "b"), "--threads", "2"]) == 0
    bytes_a = (tmp_path / "a" / "terminal.txt").read_bytes()
    bytes_b = (tmp_path / "b" / "terminal.txt").read_bytes()
    assert bytes_a == bytes_b
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["runs"] == 2000
    assert summary["trunc"] == 3
    assert summary["candidate_rate"] > summary["rate_bound"] * 5.9  # extent 6
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["threads"] == 2
    assert "terminal.txt" in manifest["outputs"]
    terminal = np.loadtxt(tmp_path / "a" / "terminal.txt")
    assert terminal.shape == (2000,)


def test_simulate_with_a_filter_writes_the_filtered_jump_times(tmp_path):
    # the unit-rate exponential-displacement model: its long mark window
    # leaves the second filtered kernel its full rate
    cfg = _base_config(tmp_path / "out")
    cfg["model"].update(
        window=[-4.0, 9.0], drift=0.0, rate=1.0,
        amplitude=[{"y": {"family": "constant", "c": 1.0},
                    "z": {"family": "exp_decay", "amp": 1.0, "rate": 1.0}}],
        envelope={"family": "exp_decay", "amp": 1.0, "rate": 1.0},
        marks={"support": [0.0, float("inf")], "truncations": [12.0, 24.0, 56.0]},
    )
    cfg["kernels"] = {"n_values": [2], "theta": 4.2}
    cfg["simulation"].update(runs=300, filter_n=2)
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    out = tmp_path / "out"
    tau = np.loadtxt(out / "tau.txt")
    assert tau.shape == (300,)
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["tau_finite_fraction"] <= 1.0
    assert summary["tau_finite_fraction"] == float(np.mean(np.isfinite(tau)))
    # the second filtered kernel fires at rate 3: a filtered jump by t_end
    # with probability 1 - e^{-3 t_end}, within 4 binomial sigma
    want = 1.0 - math.exp(-3.0 * cfg["simulation"]["t_end"])
    assert abs(summary["tau_finite_fraction"] - want) <= 4.0 * math.sqrt(want * (1.0 - want) / 300)
    assert "tau.txt" in json.loads((out / "manifest.json").read_text())["outputs"]


def test_simulate_honours_max_step(tmp_path):
    cfg = _base_config(tmp_path / "out")
    cfg["simulation"]["runs"] = 200
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "a")]) == 0
    # the derived default, spelled out
    cfg["simulation"]["max_step"] = flow_step(build_model(cfg["model"]))
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "b")]) == 0
    cfg["simulation"]["max_step"] = 0.25
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(tmp_path / "c")]) == 0
    default = (tmp_path / "a" / "terminal.txt").read_bytes()
    assert (tmp_path / "b" / "terminal.txt").read_bytes() == default
    assert (tmp_path / "c" / "terminal.txt").read_bytes() != default


def test_max_step_with_the_drift_poissonized_chain_exits_2(tmp_path, capsys):
    # the chain has no flow: `simulate` used to ignore the step, byte for byte
    cfg = _base_config(tmp_path / "out")
    cfg["simulation"].update(i=8, max_step=1e-6)
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: simulation.max_step: max_step=1e-06 is the drift flow's RK4 step")
    with pytest.raises(ConfigError, match="^simulation.max_step: "):
        load_config(path)
    # `certify` runs the exact flow, which reads the step
    assert load_config(path, "certify").simulation.max_step == 1e-6
    assert not (tmp_path / "out").exists()


def test_nonpositive_max_step_or_threads_exit_2(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    for bad in (0.0, -1e-3):
        cfg["simulation"]["max_step"] = bad
        assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 2
        assert "max_step must be positive" in capsys.readouterr().err
    path = _write(tmp_path, _base_config(tmp_path / "out"), "good.yaml")
    assert main(["simulate", "--config", path, "--threads", "0"]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, stanza, key, bad, message",
    [
        ("evolve", "evolution", "dt", 0.0, "dt must be positive"),
        ("evolve", "evolution", "dt", -0.01, "dt must be positive"),
        ("evolve", "evolution", "t_end", -1.0, "t_end must be >= 0"),
        ("simulate", "simulation", "t_end", -1.0, "t_end must be >= 0"),
        ("simulate", "simulation", "runs", 0, "runs must be at least 1"),
        ("certify", "diagnostics", "t_end", -1.0, "t_end must be >= 0"),
        ("certify", "diagnostics", "runs", 0, "runs must be at least 1"),
        ("certify", "diagnostics", "xi_min", 0.0, "xi_min must be positive and finite"),
        ("certify", "diagnostics", "xi_points", 0, "xi_points must be at least 10"),
        # the certify band: each exited 1 as a rejected model after make_kernels
        ("certify", "diagnostics", "xi_max", 1.0, "frequency band [1.0, 1.0] is empty"),
        ("certify", "diagnostics", "xi_max", 0.5, "frequency band [1.0, 0.5] is empty"),
        ("certify", "diagnostics", "xi_max", math.inf, "frequency band [1.0, inf] is empty"),
        ("certify", "diagnostics", "runs", 50, "frequency band [1.0, 0.7071067811865476]"),
        # theta: certify exited 0 with a negative or NaN predicted exponent, or
        # raised ZeroDivisionError at theta = -t_end; check and kernels ran
        ("certify", "kernels", "theta", -1.0, "theta must be finite and >= 0, got -1.0"),
        ("certify", "kernels", "theta", -0.5, "theta must be finite and >= 0, got -0.5"),
        ("certify", "kernels", "theta", math.nan, "theta must be finite and >= 0, got nan"),
        ("kernels", "kernels", "theta", math.nan, "theta must be finite and >= 0, got nan"),
        ("check", "kernels", "theta", math.inf, "theta must be finite and >= 0, got inf"),
        # the density-window rule: a reversed window exited 1 ("empty density
        # window"), an infinite one 1 with an InvalidModelError naming the drift
        ("evolve", "evolution", "window", [8.0, -8.0], "density window must be finite"),
        ("evolve", "evolution", "window", [8.0, 8.0], "density window must be finite"),
        ("evolve", "evolution", "window", [-8.0, math.inf], "density window must be finite"),
        ("evolve", "evolution", "window", [math.nan, 8.0], "density window must be finite"),
        # a width that overflows exited 1 too, naming the drift at y=nan
        ("evolve", "evolution", "window", [-1e308, 1e308], "density window must be finite"),
        # the model window: each command exited 1 ("model rejected: ...
        # non-finite at y=nan") after numpy warnings
        ("check", "model", "window", [-math.inf, math.inf], "audit window must be finite"),
        ("evolve", "model", "window", [-1e308, 1e308], "audit window must be finite"),
        ("simulate", "model", "window", [-8.0, math.nan], "audit window must be finite"),
        ("kernels", "model", "window", [8.0, -8.0], "audit window must be finite"),
    ],
)
def test_out_of_range_stanza_values_exit_2(tmp_path, capsys, command, stanza, key, bad, message):
    cfg = _base_config(tmp_path / "out")
    cfg[stanza][key] = bad
    assert main([command, "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{stanza}: {message}" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, key, bad, message",
    [
        ("simulate", "simulation.filter_n", 3, "kernel index 3 was not declared"),
        ("simulate", "simulation.trunc", 9, "truncation index 9 outside 1..3"),
        ("evolve", "evolution.trunc", 9, "truncation index 9 outside 1..3"),
        ("simulate", "simulation.i", 0, "drift surrogate index i=0 below i0=1"),
        ("evolve", "evolution.i", 0, "drift surrogate index i=0 below i0=1"),
        ("kernels", "kernels.n_values", [0, 2], "kernel indices must be positive integers"),
        # these two exited 1, after make_kernels, or check_S and check_A, had run
        ("kernels", "kernels.n_values", [4], "kernel audit needs at least two kernel indices"),
        ("check", "kernels.n_values", [1], "check_B needs n_max >= 2"),
        # exited 0, fitted through one index counted twice
        ("kernels", "kernels.n_values", [4, 4], "kernel indices must be distinct"),
    ],
)
def test_values_the_model_refuses_exit_2_before_any_output(tmp_path, capsys, command, key,
                                                          bad, message):
    # each is checked at load by the rule the run would apply, and named by
    # its stanza key
    out = tmp_path / "out"
    cfg = _base_config(out)
    _set(cfg, key, bad)
    path = _write(tmp_path, cfg)
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}: {message}" in err
    assert not out.exists() or not any(out.iterdir())
    # without a command, every value is checked
    with pytest.raises(ConfigError, match=f"^{key}: {message}"):
        load_config(path)


def test_evolve_takes_the_drift_slope_on_the_audit_grid_once(tmp_path, capsys, monkeypatch):
    # the drift-index rule runs at load and again in the build; the model
    # takes sup |b'| over its audit grid once for both
    cfg = _base_config(tmp_path / "out")
    audit = np.linspace(*cfg["model"]["window"], 241)
    slopes = []
    derivative = presets.Sinusoidal.derivative

    def counted(self, x, l):
        if l == 1 and np.shape(x) == audit.shape and np.array_equal(x, audit):
            slopes.append(self)
        return derivative(self, x, l)

    monkeypatch.setattr(presets.Sinusoidal, "derivative", counted)
    assert main(["evolve", "--config", _write(tmp_path, cfg)]) == 0
    capsys.readouterr()
    assert len(slopes) == 1 and slopes[0].amp == 0.2


def test_a_coefficient_not_finite_on_the_audit_window_exits_1(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["model"]["rate"] = {"family": "constant", "c": float("inf")}
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "model rejected: InvalidModelError: jump rate non-finite at y=" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("coefficient", ["rate", "density"])
def test_evolve_on_a_negative_rate_or_mark_density_exits_1_with_no_output(
    tmp_path, capsys, coefficient
):
    # rate 0.1 + y on the audit window (-1, 1), or mark density 1 - 0.6 z on
    # the marks (0, 3): both used to evolve and exit 0
    cfg = _base_config(tmp_path / "out")
    if coefficient == "rate":
        cfg["model"]["rate"] = {"family": "affine", "a0": 0.1, "a1": 1.0}
        cfg["model"]["window"] = [-1.0, 1.0]
        message = "jump rate negative at y=-1.0"
    else:
        cfg["model"]["marks"].update(
            density={"family": "affine", "a0": 1.0, "a1": -0.6}, truncations=[3.0]
        )
        del cfg["evolution"]["trunc"]
        message = "mark density negative at z="
    assert main(["evolve", "--config", _write(tmp_path, cfg)]) == 1
    assert f"model rejected: InvalidModelError: {message}" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_evolve_with_a_rate_past_its_bound_on_the_grid_exits_1_with_no_output(tmp_path, capsys):
    # rate 1 + y / 2 audited on (-1, 1) reaches 7 on the grid: `evolve` used
    # to exit 0 at t = 0.3, at 2.3x Euler's true step budget
    cfg = _base_config(tmp_path / "out")
    cfg["model"].update(drift=0.0, rate={"family": "affine", "a0": 1.0, "a1": 0.5},
                        window=[-1.0, 1.0])
    cfg["evolution"].update(window=[-0.15, 12.0], nodes=1024, initial_mean=6.0)
    assert main(["evolve", "--config", _write(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("model rejected: InvalidModelError: jump rate above its bound 1.575")
    assert list((tmp_path / "out").iterdir()) == []


def test_any_other_package_error_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise cli.JumpsmoothError("unclassified")

    monkeypatch.setattr(cli, "_cmd_check", fail)
    assert main(["check", "--config", _write(tmp_path, _base_config(tmp_path / "out"))]) == 1
    assert capsys.readouterr().err == "error: JumpsmoothError: unclassified\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


def _set(cfg, dotted, value):
    *parents, key = dotted.split(".")
    for name in parents:
        cfg = cfg[name]
    cfg[key] = value


@pytest.mark.parametrize(
    "key, bad",
    [
        ("seed", "abc"),
        ("model.k", "two"),
        ("model.k", 2.7),
        ("seed", 3.5),
        ("model.amplitude", [{"y": {"family": "constant", "c": 0.4},
                              "z": {"family": "smoothstep_bump", "lo": 0.0, "hi": 4.0,
                                    "ramp": 1.0, "order": "x", "amp": 1.0}}]),
        ("model.marks.truncations", ["a", 4.0]),
        ("model.drift", {"family": "tabulated", "xs": [0.0, "a"], "ys": [0.0, 1.0]}),
        ("kernels.n_values", ["a"]),
        ("kernels.n_values", [2.5, 4]),
        ("evolution.window", [-8.0, "x"]),
        ("evolution.window", [-8.0]),
    ],
)
def test_malformed_numbers_exit_2(tmp_path, capsys, key, bad):
    # these used to end in a traceback, or to truncate silently and exit 0
    cfg = _base_config(tmp_path / "out")
    _set(cfg, key, bad)
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, bad", [("model.k", True), ("model.drift", True), ("kernels.n_values", [True, 4])]
)
def test_yaml_booleans_exit_2(tmp_path, capsys, key, bad):
    # YAML true is a Python int: it used to load as k = 1, as a constant
    # drift of 1 and as kernel index 1
    cfg = _base_config(tmp_path / "out")
    _set(cfg, key, bad)
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err


_TERM = {"y": {"family": "constant", "c": 0.4}, "z": {"family": "exp_decay", "amp": 1.0, "rate": 1.0}}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("model.smoothness", 4, "model: unknown keys: ['smoothness']"),
        ("model.marks.truncation", [2.0, 4.0], "model.marks: unknown keys: ['truncation']"),
        ("model.amplitude", [dict(_TERM, w={"family": "exp_decay", "amp": 1.0})],
         "model.amplitude[0]: unknown keys: ['w']"),
        ("model.amplitude", [dict(_TERM, y={"family": "constant", "value": 0.5})],
         "model.amplitude[0].y: unknown keys: ['value']"),
        ("model.rate", {"family": "sum", "parts": [1.0], "scale": 3},
         "model.rate: unknown keys: ['scale']"),
        ("model.rate", {"family": "product", "left": 1.0, "right": 0.7, "parts": [1.0, 0.7]},
         "model.rate: unknown keys: ['parts']"),
        ("model.drift", {"family": "tabulated", "xs": [0.0, 1.0, 2.0, 3.0], "ys": [0.0] * 4,
                         "bc": "natural"}, "model.drift: unknown keys: ['bc']"),
        ("model.envelope", {"family": "exp_decay", "amp": 0.4, "rate": 1.0, "shift": 1.0},
         "model.envelope: unknown keys: ['shift']"),
    ],
    ids=["model", "marks", "amplitude-term", "constant", "sum", "product", "tabulated", "family"],
)
def test_unknown_model_keys_exit_2(tmp_path, capsys, key, value, message):
    # each of these used to load with exit 0 and be ignored; the constant
    # with `value` loaded as the constant 0
    cfg = _base_config(tmp_path / "out")
    _set(cfg, key, value)
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "xs, message",
    [([0.0, 1.0, 1.0, 3.0], "strictly increasing nodes"), ([0.0, 1.0, math.nan, 3.0], "finite nodes")],
)
def test_tabulated_nodes_the_preset_refuses_exit_2(tmp_path, capsys, xs, message):
    # scipy's ValueError was turned into a config error by catching every
    # ValueError a constructor raised
    cfg = _base_config(tmp_path / "out")
    cfg["model"]["drift"] = {"family": "tabulated", "xs": xs, "ys": [0.0, 0.1, 0.0, -0.1]}
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    assert f"config error: model.drift: tabulated preset needs {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _bump_term(order):
    return [dict(_TERM, z={"family": "smoothstep_bump", "lo": 0.0, "hi": 4.0, "order": order})]


@pytest.mark.parametrize(
    "key, bad, message",
    [
        # refused only at the first evaluation (check exited 1), or evaluated
        # outside [0, 1] (check exited 0)
        ("model.amplitude", _bump_term(-1), "model.amplitude[0].z: derivative order -1 outside [0, 16]"),
        ("model.amplitude", _bump_term(17), "model.amplitude[0].z: derivative order 17 outside [0, 16]"),
        # p: .inf printed PASS for all three audits, .nan failed them with NaN constants
        ("model.p", math.inf, "model: weight power p must be finite and >= 1, got inf"),
        ("model.p", math.nan, "model: weight power p must be finite and >= 1, got nan"),
        # exited 1 blaming the amplitude at z=nan, after numpy warnings
        ("model.marks.truncations", [2.0, 4.0, math.inf],
         "model.marks: truncations must be finite, positive and strictly increasing"),
        ("model.marks.truncations", [2.0, 4.0, math.nan],
         "model.marks: truncations must be finite, positive and strictly increasing"),
    ],
    ids=["order--1", "order-17", "p-inf", "p-nan", "trunc-inf", "trunc-nan"],
)
def test_model_settings_the_model_refuses_exit_2_before_any_output(tmp_path, capsys, key, bad,
                                                                  message):
    cfg = _base_config(tmp_path / "out")
    _set(cfg, key, bad)
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_value_error_inside_a_constructor_propagates(tmp_path, monkeypatch):
    # only a JumpsmoothError is a value the file sets wrong; any other error
    # is a fault of the program, not a config error
    def broken(self):
        raise ValueError("a fault in the preset")

    monkeypatch.setattr(presets.Tabulated, "__post_init__", broken)
    cfg = _base_config(tmp_path / "out")
    cfg["model"]["drift"] = {"family": "tabulated", "xs": [0.0, 1.0, 2.0, 3.0], "ys": [0.0] * 4}
    with pytest.raises(ValueError, match="^a fault in the preset$"):
        load_config(_write(tmp_path, cfg))


def test_retired_cutoff_order_key_exits_2(tmp_path, capsys):
    # the cutoffs are smooth of the model's own order k; there is no override
    cfg = _base_config(tmp_path / "out")
    cfg["kernels"]["cutoff_order"] = 2
    assert main(["kernels", "--config", _write(tmp_path, cfg)]) == 2
    assert "unknown keys: ['cutoff_order']" in capsys.readouterr().err


def _shipped_configs(tmp_path) -> list[Path]:
    """The README's exp.yaml, written out, and every bench workload."""
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("```yaml\n# exp.yaml\n", 1)[1]
    readme = tmp_path / "exp.yaml"
    readme.write_text(block.split("```", 1)[0])
    return [readme, *sorted(BENCH_WORKLOADS.glob("*.yaml"))]


def test_readme_and_bench_configs_load(tmp_path):
    # the README's exp.yaml and every bench workload, only read here: a schema
    # change that would break the bench or the README fails tier-1 first
    labels = [load_config(str(p)).label for p in _shipped_configs(tmp_path)]
    assert labels == ["wobble", "collapse", "power", "wobble"]


def test_config_loads_the_same_without_libyaml(tmp_path, monkeypatch):
    # load_config parses with libyaml's safe loader where PyYAML has it; the
    # pure-Python SafeLoader it falls back to gives the same configs
    def summary(cfg):
        return cfg.coeffs.describe(), dataclasses.replace(cfg, coeffs=None)

    paths = _shipped_configs(tmp_path)
    fast = [summary(load_config(str(p))) for p in paths]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [summary(load_config(str(p))) for p in paths] == fast


def test_kernels_cli_on_bench_workloads(tmp_path, capsys):
    # the bench `kernels` stage on each workload, read but not edited: the
    # exit codes, verdicts and worst entries recorded before the kernel audits
    # were evaluated at their own nodes over blocks of states
    want = {
        "wobble": (0, {"y": -1.0666666666666664, "n": 4}),
        "power": (0, {"y": 0.06666666666666643, "n": 16}),
        "collapse": (3, None),
    }
    for name, (code, worst) in want.items():
        out = tmp_path / name
        assert main(["kernels", "--config", str(bench_workload(name)), "--out", str(out)]) == code
        if worst is None:
            assert "not strictly monotone in the mark at y=-3.0, n=4" in capsys.readouterr().err
            continue
        audit = json.loads((out / "kernels.json").read_text())["sobolev_audit"]
        assert audit["passed"] and audit["worst"] == worst


def test_evolve_cli_on_bench_workloads(tmp_path, capsys):
    # the bench `evolve` stage on each workload, read but not edited: its
    # exit codes, collapse's failure and the mass-drift budget it checks
    for name, code in {"wobble": 0, "power": 0, "collapse": 3}.items():
        out = tmp_path / name
        assert main(["evolve", "--config", str(bench_workload(name)), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.strip() == (
                "numerical failure: DomainEscapeError: could not bracket the pre-image: "
                "monotonicity or the jump size bound is violated on this model")
            continue
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mass_drift"] <= 1e-4 * max(1.0, summary["t_end"]), name


# sha256 of kernels.json, recorded before the `kernels` command read its
# masses from the one Sobolev audit; collapse exits 3 and writes none.
# Re-recorded when the Gauss-Legendre rule came from numpy's `leggauss` (the
# ratio tables and masses moved by at most 7.3e-16 of the file's largest
# entry) and `audited_states` came to count the 25 states `make_kernels`
# audits, not the 241 of the audit grid.
KERNELS_JSON_SHA256 = {
    "exp.yaml": "0519d1ff2f0a56d697569beb497b597a1568d0f523ef2ddb210cf318ee1f0bee",
    "collapse.yaml": None,
    "power.yaml": "eb07d949e8150f4e16ce26ae73c93d6d7d98a2b2907e216df16f8c5d4eb5c449",
    "wobble.yaml": "0519d1ff2f0a56d697569beb497b597a1568d0f523ef2ddb210cf318ee1f0bee",
}


def test_kernels_json_pinned(tmp_path, capsys):
    # the whole file: the decomposition, the audit with its ratio table, and
    # the masses of the first three audit states
    got = {}
    for path in _shipped_configs(tmp_path):
        out = tmp_path / f"out-{path.stem}"
        code = main(["kernels", "--config", str(path), "--out", str(out)])
        written = out / "kernels.json"
        got[path.name] = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None
        assert code == (0 if got[path.name] else 3)
    assert got == KERNELS_JSON_SHA256


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("quad_nodes", 0, "quad_nodes must be at least 1"),
        ("quad_nodes", -3, "quad_nodes must be at least 1"),
        ("nodes", 4, "nodes must be at least 8"),
    ],
)
def test_evolution_node_counts_below_their_floor_exit_2(tmp_path, capsys, key, bad, message):
    # quad_nodes 0 or -3 used to run with 16 mark nodes and exit 0, and
    # nodes 4 exited 1 as a rejected model
    cfg = _base_config(tmp_path / "out")
    cfg["evolution"][key] = bad
    assert main(["evolve", "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"evolution: {message}" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("quad_nodes", [100, 12, 15])
def test_quad_nodes_that_do_not_fill_the_panels_exit_2(tmp_path, capsys, quad_nodes):
    # 100 used to run on 104 mark nodes and 12 or 15 on 16, each with exit 0
    cfg = _base_config(tmp_path / "out")
    cfg["evolution"]["quad_nodes"] = quad_nodes
    assert main(["evolve", "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and (
        f"evolution: quad_nodes must split into 8 panels of at least 2 nodes each, "
        f"got {quad_nodes}") in err
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_2_before_any_output(tmp_path, capsys):
    # a negative seed reached np.random.SeedSequence, whose ValueError ended
    # the run in a traceback after the output directory had been made
    cfg = _base_config(tmp_path / "out")
    path = _write(tmp_path, cfg)
    for command in ("simulate", "certify"):
        assert main([command, "--config", path, "--seed", "-1"]) == 2
        assert ("config error: --seed must be a non-negative integer, got -1"
                in capsys.readouterr().err)
    cfg["seed"] = -5
    assert main(["simulate", "--config", _write(tmp_path, cfg, "negative.yaml")]) == 2
    assert ("config error: seed: expected a non-negative integer, got -5"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    assert main(["simulate", "--config", path, "--seed", "0"]) == 0


@pytest.mark.parametrize("stanza", ["simulation", "evolution", "diagnostics"])
def test_infinite_horizon_exits_2(tmp_path, capsys, stanza):
    # an infinite t_end used to pass, and simulate or certify then never
    # returned; `check` loads every stanza but runs none of them
    cfg = _base_config(tmp_path / "out")
    cfg[stanza]["t_end"] = math.inf
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{stanza}: t_end must be finite" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, stanza, key, bad, message",
    [
        # simulate and certify exited 3 (BlowUpError), evolve 3
        # (DivergenceError at step 1) or 1 (ContractError naming sigma)
        ("simulate", "simulation", "x0", math.nan, "x0 must be finite, got nan"),
        ("certify", "diagnostics", "x0", math.inf, "x0 must be finite, got inf"),
        ("evolve", "evolution", "initial_mean", math.nan, "initial_mean must be finite, got nan"),
        ("evolve", "evolution", "initial_mean", math.inf, "initial_mean must be finite, got inf"),
        ("evolve", "evolution", "initial_sigma", 0.0,
         "initial_sigma must be positive and finite, got 0.0"),
        ("evolve", "evolution", "initial_sigma", math.nan,
         "initial_sigma must be positive and finite, got nan"),
        # a finite start beyond BLOW_UP: refused by the engine's start rule
        ("simulate", "simulation", "x0", 2e8,
         "x0 must lie within +-1e+08: 1 of 1 initial states do not, the first 200000000.0"),
        ("certify", "diagnostics", "x0", -2e8,
         "x0 must lie within +-1e+08: 1 of 1 initial states do not, the first -200000000.0"),
    ],
    ids=["simulate-x0-nan", "certify-x0-inf", "evolve-mean-nan", "evolve-mean-inf",
         "evolve-sigma-0", "evolve-sigma-nan", "simulate-x0-beyond", "certify-x0-beyond"],
)
def test_initial_laws_that_are_not_finite_exit_2(
    tmp_path, capsys, command, stanza, key, bad, message
):
    # on a copy of the power bench config, read but not edited
    cfg = yaml.safe_load(bench_workload("power").read_text())
    cfg["output"] = str(tmp_path / "out")
    cfg.setdefault(stanza, {})[key] = bad
    assert main([command, "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{stanza}: {message}" in err
    assert not (tmp_path / "out").exists()


def test_star_import_binds_every_public_name():
    # __all__ is read off the imports: every entry resolves, once, and a star
    # import binds each `js.` name of the README quick start (the hand-kept
    # list had left out JumpMeasureSpec)
    import jumpsmooth as js

    assert len(set(js.__all__)) == len(js.__all__)
    assert all(hasattr(js, name) for name in js.__all__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick = readme.split("## Quick start (API)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bjs\.(\w+)", quick))
    assert "JumpMeasureSpec" in used
    namespace = {}
    exec("from jumpsmooth import *", namespace)
    assert used <= namespace.keys()


def test_package_import_leaves_the_thread_pool_unloaded():
    # the pool is imported where a batch makes one; concurrent.futures
    # pulls in logging, a fixed start-up delay for every CLI run
    import jumpsmooth

    env = dict(os.environ, PYTHONPATH=str(Path(jumpsmooth.__file__).resolve().parents[1]))
    code = ("import sys, jumpsmooth, jumpsmooth.cli; "
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_save_columns_writes_the_bytes_of_savetxt(tmp_path):
    # header line, %.17g rows, inf, nan and -0.0, and more rows than one block
    rng = np.random.default_rng(5)
    rows = cli.SAVE_BLOCK_ROWS * 2 + 3
    d0 = rng.normal(size=rows)
    d0[[0, 7, rows - 1]] = [np.inf, -np.inf, np.nan]
    columns = {"y": np.linspace(-1.0, 1.0, rows), "d0": d0, "d1": np.full(rows, -0.0)}
    for cols in (columns, {"terminal": d0}):
        cli._save_columns(tmp_path / "fast.txt", cols)
        data = np.column_stack(list(cols.values()))
        np.savetxt(tmp_path / "ref.txt", data, fmt="%.17g", header=" ".join(cols))
        assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_simulate_seed_override(tmp_path):
    cfg = _base_config(tmp_path / "out")
    path = _write(tmp_path, cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "c"), "--seed", "12"]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["seed"] == 12
    ta = np.loadtxt(tmp_path / "a" / "terminal.txt")
    tc = np.loadtxt(tmp_path / "c" / "terminal.txt")
    assert not np.array_equal(ta, tc)


def test_evolve_writes_density_columns(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    path = _write(tmp_path, cfg)
    assert main(["evolve", "--config", path]) == 0
    assert "time error" in capsys.readouterr().out
    density = np.loadtxt(tmp_path / "out" / "density.txt")
    assert density.shape == (384, 4)  # y, d0, d1, d2
    header = (tmp_path / "out" / "density.txt").read_text().splitlines()[0]
    assert header == "# y d0 d1 d2"
    mass = np.loadtxt(tmp_path / "out" / "mass.txt")
    assert np.all(np.abs(mass[:, 1] - 1.0) < 1e-3)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mass_drift"] <= 1e-4
    assert len(summary["sobolev"]) == 3
    assert summary["steps"] >= 10
    assert 0.0 < summary["time_error"] < 0.05


def test_package_import_leaves_scipy_unloaded():
    # scipy is imported lazily where it is used; importing it up front costs
    # every CLI run a fixed start-up delay.  Every module of the package is
    # imported, the engines and `cli` included
    import jumpsmooth

    env = dict(os.environ, PYTHONPATH=str(Path(jumpsmooth.__file__).resolve().parents[1]))
    code = ("import importlib, pkgutil, sys, jumpsmooth\n"
            "for m in pkgutil.iter_modules(jumpsmooth.__path__):\n"
            "    importlib.import_module('jumpsmooth.' + m.name)\n"
            "assert {'cli', 'simulate', 'fokker_planck', 'kernels', 'diagnostics'}"
            " <= {m.name for m in pkgutil.iter_modules(jumpsmooth.__path__)}\n"
            "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


ENGINES = ("simulate", "fokker_planck", "kernels", "diagnostics")


def _fresh_modules(code: str) -> list[str]:
    """The jumpsmooth submodules and scipy packages a fresh interpreter has
    loaded after running `code`."""
    import jumpsmooth

    env = dict(os.environ, PYTHONPATH=str(Path(jumpsmooth.__file__).resolve().parents[1]))
    code += ("\nimport sys\nprint(sorted(m.split('.', 1)[1] if m.startswith('jumpsmooth.') else m"
             " for m in sys.modules if m.startswith(('jumpsmooth.', 'scipy'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return eval(out.stdout.strip().splitlines()[-1])


def test_config_load_leaves_the_engines_unloaded(tmp_path):
    # each engine loads on first use: reading a config needs none of them
    readme = _shipped_configs(tmp_path)[0]
    loaded = _fresh_modules(f"import jumpsmooth\njumpsmooth.load_config({str(readme)!r})")
    assert sorted(loaded) == ["calculus", "config", "errors", "model", "presets"]


def test_check_and_evolve_import_only_their_engines(tmp_path):
    path = _write(tmp_path, _base_config(tmp_path / "out"))
    run = "from jumpsmooth.cli import main\nassert main([{!r}, '--config', {!r}]) == 0"
    assert not set(_fresh_modules(run.format("check", path))) & set(ENGINES)
    loaded = _fresh_modules(run.format("evolve", path))
    assert "fokker_planck" in loaded
    assert not {"simulate", "diagnostics"} & set(loaded)


def test_a_failing_collapse_evolve_exits_before_scipy_loads(tmp_path):
    # its first pre-image solve fails; the zero drift's empty part used to
    # load scipy.sparse before it
    run = "from jumpsmooth.cli import main\nassert main(['evolve', '--config', {!r}, '--out', {!r}]) == 3"
    loaded = _fresh_modules(run.format(str(bench_workload("collapse")), str(tmp_path)))
    assert "fokker_planck" in loaded
    assert not [m for m in loaded if m.startswith("scipy")]


@pytest.mark.parametrize("config", ["exp.yaml", "wobble.yaml"])
def test_only_evolve_loads_scipy(tmp_path, config):
    # each command in a fresh interpreter: the Gauss-Legendre rule is numpy's,
    # so only `evolve` loads scipy, for the CSR products of `scipy.sparse`
    path = next(p for p in _shipped_configs(tmp_path) if p.name == config)
    run = "from jumpsmooth.cli import main\nassert main([{!r}, '--config', {!r}, '--out', {!r}]) == 0"
    for command in ("check", "simulate", "evolve", "kernels", "certify"):
        loaded = _fresh_modules(run.format(command, str(path), str(tmp_path / command)))
        scipy = {m for m in loaded if m.startswith("scipy")}
        if command == "evolve":
            assert "scipy.sparse" in scipy
            assert not {m for m in scipy if m.startswith(("scipy.special", "scipy.linalg"))}
        else:
            assert not scipy, command


def test_package_namespace_resolves_on_first_use():
    import jumpsmooth as js

    assert set(js.__all__) <= set(dir(js))
    assert js.load_config is js.config.load_config
    assert vars(js)["load_config"] is js.config.load_config  # bound once resolved
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(js, "no_such_name")


def test_import_error_inside_an_engine_propagates():
    # diagnostics imports simulate at its top; a failure there must reach the
    # caller as the ImportError it is, not as a missing attribute
    loaded = _fresh_modules(
        "import sys, jumpsmooth\n"
        "sys.modules['jumpsmooth.simulate'] = None\n"
        "try:\n"
        "    jumpsmooth.smoothness_pipeline\n"
        "except ImportError as exc:\n"
        "    assert 'jumpsmooth.simulate' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no ImportError')\n"
    )
    assert "diagnostics" not in loaded


def test_kernels_audit_pass_and_fail(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    path = _write(tmp_path, cfg)
    assert main(["kernels", "--config", path]) == 0
    payload = json.loads((tmp_path / "out" / "kernels.json").read_text())
    assert payload["decomposition"]["n_values"] == [2, 4]
    assert payload["decomposition"]["cutoff_order"] == cfg["model"]["k"]
    assert payload["sobolev_audit"]["passed"]
    # n = 2 kernel carries mass in [2, 4] at every probed state
    for vals in payload["masses"]["2"]:
        assert 2.0 - 1e-6 <= vals <= 4.0 + 1e-6
    capsys.readouterr()
    cfg["kernels"]["theta"] = 0.5  # far below the budget slope ~ 2kd/gamma_min
    path2 = _write(tmp_path, cfg, "tight.yaml")
    assert main(["kernels", "--config", path2]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_certify_at_t_0_with_theta_0_exits_1(tmp_path, capsys):
    # the predicted exponent divided by theta + t_end = 0 and certify ended
    # in a traceback after sampling the batch
    cfg = _base_config(tmp_path / "out")
    cfg["kernels"]["theta"] = 0.0
    cfg["diagnostics"].update(t_end=0.0, runs=500)
    assert main(["certify", "--config", _write(tmp_path, cfg)]) == 1
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert payload["certificate"] == "no decay"
    assert payload["predicted_exponent"] == 0.0
    assert "certificate: no decay" in capsys.readouterr().out


def test_certify_smooth_model_exits_0(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    path = _write(tmp_path, cfg)
    assert main(["certify", "--config", path]) == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert payload["certificate"].startswith("decay") or payload["certificate"].startswith("smooth")
    assert payload["slope"] < -0.05
    assert len(payload["xi"]) == 96
    assert len(payload["cf_magnitude"]) == 96
    assert payload["predicted_exponent"] == pytest.approx(2.0 * 0.5 / 12.5)
    assert 0.0 < payload["cf_binning_error"] <= 0.1 / math.sqrt(payload["runs"])
    assert "certificate:" in capsys.readouterr().out
