"""Experiment configuration: YAML stanzas in, validated model objects out.

A config file declares the model coefficients by preset family names plus
parameters, and optional stanzas for each pipeline stage::

    model:
      k: 2
      drift:    {family: sinusoidal, amp: 0.2, freq: 1.0}
      rate:     {family: affine, a0: 0.6}
      amplitude:
        - y: {family: constant, c: 0.25}
          z: {family: exp_decay, amp: 1.0, rate: 1.0}
      envelope: {family: exp_decay, amp: 0.25, rate: 1.0}
      marks:    {support: [0.0, .inf], truncations: [2, 4, 8]}
    simulation: {x0: 0.0, t_end: 1.0, runs: 20000}

Functions compose with ``family: sum`` / ``family: product`` nodes; a bare
number is a constant; an integer must be integral (2.5 is refused, never
truncated).  All validation failures raise ConfigError with the stanza path,
so the command line can map them to its config exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from . import presets
from .diagnostics import MIN_FIT_POINTS
from .errors import ConfigError, JumpsmoothError
from .model import CoefficientSet, JumpMeasureSpec
from .simulate import MAX_STEP

_FAMILIES: dict[str, tuple] = {
    "affine": (presets.Affine, ("a0", "a1")),
    "sinusoidal": (presets.Sinusoidal, ("amp", "freq", "phase")),
    "exp_decay": (presets.ExpDecay, ("amp", "rate")),
    "inverse_power": (presets.InversePower, ("amp", "power", "offset")),
    "iso_power": (presets.IsoPower, ("amp", "power")),
    "gauss_bump": (presets.GaussBump, ("amp", "center", "width")),
    "tanh": (presets.TanhSigmoid, ("amp", "rate")),
    "stretched_exp": (presets.StretchedExp, ("amp", "rate", "power", "offset")),
    "indicator": (presets.Indicator, ("lo", "hi", "amp")),
    "smoothstep_bump": (presets.SmoothstepBump, ("lo", "hi", "ramp", "order", "amp")),
}


def _fail(path: str, msg: str) -> ConfigError:
    return ConfigError(f"{path}: {msg}")


def _as_float(node, path: str) -> float:
    if isinstance(node, bool):  # YAML true/false are ints to Python
        raise _fail(path, f"expected a number, got {node!r}")
    try:
        return float(node)
    except (TypeError, ValueError):
        raise _fail(path, f"expected a number, got {node!r}") from None


def _as_int(node, path: str) -> int:
    if not _as_float(node, path).is_integer():
        raise _fail(path, f"expected an integer, got {node!r}")
    return int(node) if isinstance(node, int) else int(float(node))


def build_function(node, path: str = "function") -> presets.Function1D:
    """Recursively build a coefficient function from a config node."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return presets.constant(float(node))
    if not isinstance(node, dict):
        raise _fail(path, f"expected a number or a mapping with 'family', got {node!r}")
    family = node.get("family")
    if family == "constant":
        return presets.constant(_as_float(node.get("c", 0.0), path + ".c"))
    if family == "sum":
        parts = node.get("parts")
        if not isinstance(parts, list) or not parts:
            raise _fail(path, "'sum' needs a non-empty 'parts' list")
        return presets.FunctionSum(
            *(build_function(p, f"{path}.parts[{j}]") for j, p in enumerate(parts))
        )
    if family == "product":
        if "left" not in node or "right" not in node:
            raise _fail(path, "'product' needs 'left' and 'right'")
        return presets.FunctionProduct(
            build_function(node["left"], path + ".left"),
            build_function(node["right"], path + ".right"),
        )
    if family == "tabulated":
        xs, ys = node.get("xs"), node.get("ys")
        if not isinstance(xs, list) or not isinstance(ys, list):
            raise _fail(path, "'tabulated' needs 'xs' and 'ys' lists")
        return presets.Tabulated(
            tuple(_as_float(x, path + ".xs") for x in xs),
            tuple(_as_float(y, path + ".ys") for y in ys),
        )
    if family not in _FAMILIES:
        raise _fail(path, f"unknown function family {family!r}")
    cls, names = _FAMILIES[family]
    kwargs = {k: v for k, v in node.items() if k != "family"}
    unknown = set(kwargs) - set(names)
    if unknown:
        raise _fail(path, f"unknown parameters for {family!r}: {sorted(unknown)}")
    coerced = {}
    for k, v in kwargs.items():
        coerced[k] = (_as_int if k == "order" else _as_float)(v, f"{path}.{k}")
    try:
        return cls(**coerced)
    except (TypeError, ValueError, JumpsmoothError) as exc:
        raise _fail(path, f"bad {family!r} parameters: {exc}") from None


def _build_amplitude(node, path: str) -> presets.JumpAmplitude:
    if not isinstance(node, list) or not node:
        raise _fail(path, "amplitude must be a non-empty list of {y:..., z:...} terms")
    terms = []
    for j, term in enumerate(node):
        if not isinstance(term, dict) or "y" not in term or "z" not in term:
            raise _fail(f"{path}[{j}]", "each amplitude term needs 'y' and 'z' factors")
        terms.append(
            (
                build_function(term["y"], f"{path}[{j}].y"),
                build_function(term["z"], f"{path}[{j}].z"),
            )
        )
    return presets.JumpAmplitude(tuple(terms))


def _build_marks(node, path: str) -> JumpMeasureSpec:
    if not isinstance(node, dict):
        raise _fail(path, "marks stanza must be a mapping")
    support = node.get("support")
    if not isinstance(support, list) or len(support) != 2:
        raise _fail(path + ".support", "support must be a two-element list")
    lo, hi = (_as_float(v, path + ".support") for v in support)
    density = build_function(node.get("density", 1.0), path + ".density")
    truncs = node.get("truncations", [1, 2, 4, 8, 16])
    if not isinstance(truncs, list) or not truncs:
        raise _fail(path + ".truncations", "truncations must be a non-empty list")
    endpoint = None
    if "endpoint" in node:
        endpoint = build_function(node["endpoint"], path + ".endpoint")
    try:
        return JumpMeasureSpec(
            (lo, hi), density, tuple(_as_float(t, path + ".truncations") for t in truncs), endpoint
        )
    except JumpsmoothError as exc:
        raise _fail(path, str(exc)) from None


def build_model(node, path: str = "model") -> CoefficientSet:
    if not isinstance(node, dict):
        raise _fail(path, "model stanza must be a mapping")
    required = ("rate", "amplitude", "envelope", "marks")
    for key in required:
        if key not in node:
            raise _fail(path, f"missing required key {key!r}")
    window = node.get("window", [-10.0, 10.0])
    if not isinstance(window, list) or len(window) != 2:
        raise _fail(path + ".window", "window must be a two-element list")
    try:
        return CoefficientSet(
            b=build_function(node.get("drift", 0.0), path + ".drift"),
            gamma=build_function(node["rate"], path + ".rate"),
            h=_build_amplitude(node["amplitude"], path + ".amplitude"),
            eta=build_function(node["envelope"], path + ".envelope"),
            q=_build_marks(node["marks"], path + ".marks"),
            k=_as_int(node.get("k", 2), path + ".k"),
            p=_as_float(node.get("p", 2.0), path + ".p"),
            c0_tol=_as_float(node.get("c0_tol", 1e-8), path + ".c0_tol"),
            y_window=tuple(_as_float(v, path + ".window") for v in window),
            audit_points=_as_int(node.get("audit_points", 241), path + ".audit_points"),
            label=str(node.get("label", "")),
        )
    except JumpsmoothError as exc:
        raise _fail(path, str(exc)) from None


def _check_t_end_and_runs(t_end: float | None, runs: int | None = None) -> None:
    if t_end is not None and not t_end >= 0.0:
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if runs is not None and runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")


@dataclass(frozen=True)
class SimulationStanza:
    x0: float = 0.0
    t_end: float = 1.0
    runs: int = 10_000
    trunc: int | None = None
    i: int | None = None
    filter_n: int | None = None
    max_step: float = MAX_STEP  # RK4 step bound for the drift flow between candidates

    def __post_init__(self):
        if not (math.isfinite(self.max_step) and self.max_step > 0.0):
            raise ValueError(f"max_step must be positive and finite, got {self.max_step}")
        _check_t_end_and_runs(self.t_end, self.runs)


@dataclass(frozen=True)
class EvolutionStanza:
    i: int = 8
    t_end: float = 1.0
    window: tuple[float, float] = (-10.0, 10.0)
    nodes: int = 1024
    initial_mean: float = 0.0
    initial_sigma: float = 0.5
    dt: float | None = None
    trunc: int | None = None
    quad_nodes: int = 256

    def __post_init__(self):
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        _check_t_end_and_runs(self.t_end)


@dataclass(frozen=True)
class KernelStanza:
    n_values: tuple[int, ...] = (1, 2, 4, 8)
    theta: float = 1.0


@dataclass(frozen=True)
class DiagnosticsStanza:
    runs: int = 200_000
    t_end: float | None = None
    x0: float | None = None
    xi_points: int = 96
    xi_min: float = 1.0
    xi_max: float | None = None

    def __post_init__(self):
        _check_t_end_and_runs(self.t_end, self.runs)
        if not (math.isfinite(self.xi_min) and self.xi_min > 0.0):
            raise ValueError(f"xi_min must be positive and finite, got {self.xi_min}")
        if self.xi_points < MIN_FIT_POINTS:
            raise ValueError(f"xi_points must be at least {MIN_FIT_POINTS}, got {self.xi_points}")


@dataclass(frozen=True)
class ExperimentConfig:
    label: str
    coeffs: CoefficientSet
    simulation: SimulationStanza
    evolution: EvolutionStanza
    kernels: KernelStanza
    diagnostics: DiagnosticsStanza
    output_dir: str = "out"
    seed: int = 0


def _coerce_scalar(annotation: str, value, path: str):
    """`value` as its field's annotated type: None only where the annotation
    allows it, and a tuple element by element, at the annotated length."""
    if value is None and annotation.endswith("| None"):
        return None
    if annotation.startswith("tuple"):
        kinds = [t.strip() for t in annotation[len("tuple[") : -1].split(",")]
        if kinds[-1] == "..." and isinstance(value, (list, tuple)):
            kinds = kinds[:1] * len(value)
        if not isinstance(value, (list, tuple)) or len(value) != len(kinds):
            raise _fail(path, f"expected {annotation}, got {value!r}")
        return tuple(
            _coerce_scalar(t, v, f"{path}[{j}]") for j, (t, v) in enumerate(zip(kinds, value))
        )
    if annotation.startswith("int"):
        return _as_int(value, path)
    if annotation.startswith("float"):
        return _as_float(value, path)
    return value


def _build_stanza(cls, node, path: str):
    if node is None:
        return cls()
    if not isinstance(node, dict):
        raise _fail(path, "stanza must be a mapping")
    fields = cls.__dataclass_fields__
    unknown = set(node) - set(fields)
    if unknown:
        raise _fail(path, f"unknown keys: {sorted(unknown)}")
    coerced = {
        name: _coerce_scalar(fields[name].type, value, f"{path}.{name}")
        for name, value in node.items()
    }
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment file."""
    try:
        with open(path, "r") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    if "model" not in raw:
        raise ConfigError(f"{path}: missing 'model' stanza")
    known = {"model", "simulation", "evolution", "kernels", "diagnostics", "output", "label", "seed"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown stanzas: {sorted(unknown)}")
    coeffs = build_model(raw["model"])
    return ExperimentConfig(
        label=str(raw.get("label", coeffs.label or "experiment")),
        coeffs=coeffs,
        simulation=_build_stanza(SimulationStanza, raw.get("simulation"), "simulation"),
        evolution=_build_stanza(EvolutionStanza, raw.get("evolution"), "evolution"),
        kernels=_build_stanza(KernelStanza, raw.get("kernels"), "kernels"),
        diagnostics=_build_stanza(DiagnosticsStanza, raw.get("diagnostics"), "diagnostics"),
        output_dir=str(raw.get("output", "out")),
        seed=_as_int(raw.get("seed", 0), "seed"),
    )
