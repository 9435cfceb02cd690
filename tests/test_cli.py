"""Command line: exit codes, output files, manifests, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from jumpsmooth import cli
from jumpsmooth.cli import main
from jumpsmooth.config import build_model, load_config
from jumpsmooth.simulate import flow_step


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


def test_zero_audit_points_exits_2(tmp_path, capsys):
    cfg = _base_config(tmp_path / "out")
    cfg["model"]["audit_points"] = 0
    assert main(["check", "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "audit_points must be >= 1" in err
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
    ],
)
def test_out_of_range_stanza_values_exit_2(tmp_path, capsys, command, stanza, key, bad, message):
    cfg = _base_config(tmp_path / "out")
    cfg[stanza][key] = bad
    assert main([command, "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{stanza}: {message}" in err
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
        ("model.audit_points", 100.5),
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
    return [readme, *sorted((root / "bench" / "workloads").glob("*.yaml"))]


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
    workloads = Path(__file__).resolve().parents[1] / "bench" / "workloads"
    want = {
        "wobble": (0, {"y": -1.0666666666666664, "n": 4}),
        "power": (0, {"y": 0.06666666666666643, "n": 16}),
        "collapse": (3, None),
    }
    for name, (code, worst) in want.items():
        out = tmp_path / name
        assert main(["kernels", "--config", str(workloads / f"{name}.yaml"), "--out", str(out)]) == code
        if worst is None:
            assert "not strictly monotone in the mark at y=-3.0, n=4" in capsys.readouterr().err
            continue
        audit = json.loads((out / "kernels.json").read_text())["sobolev_audit"]
        assert audit["passed"] and audit["worst"] == worst


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
    # every CLI run a fixed start-up delay
    import jumpsmooth

    env = dict(os.environ, PYTHONPATH=str(Path(jumpsmooth.__file__).resolve().parents[1]))
    code = "import sys, jumpsmooth; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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
