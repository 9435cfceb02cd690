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

The library dataclasses are the schema, and every mapping is built by one
rule:

* a function node names its preset by the class's ``family`` (``sum``,
  ``product`` and ``tabulated`` included) and sets that preset's fields,
  each taking the preset's own default when left out; ``constant`` is the
  one alias, ``{family: constant, c}`` for ``affine`` with ``a0 = c``, and a
  bare number is a constant;
* the model stanza sets the fields of `CoefficientSet` under their config
  keys (`CoefficientSet.config_keys`: drift, rate, amplitude, envelope,
  marks, window), and ``marks`` the fields of `JumpMeasureSpec`; every
  default lives in those classes, except ``drift: 0.0``;
* each value is read as its field's annotated type, and an integer must be
  integral (2.5 is refused, never truncated);
* an unknown key is refused at every level, as is a missing required one.

``describe()`` on a model, an amplitude or a function returns the node
`build_model` or `build_function` rebuilds it from.  All validation failures
raise ConfigError with the path of the node, so the command line can map
them to its config exit code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import yaml

from . import presets
from .diagnostics import _check_band
from .errors import ConfigError, JumpsmoothError
from .model import CoefficientSet, JumpMeasureSpec, _check_horizon, _require_positive

# family name -> preset class, read off the classes themselves
_FAMILIES = {cls.family: cls for cls in presets.Function1D.__subclasses__()}


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


def _check_keys(node, known, required, path: str) -> None:
    if not isinstance(node, dict):
        raise _fail(path, f"expected a mapping, got {node!r}")
    unknown = set(node) - set(known)
    if unknown:
        raise _fail(path, f"unknown keys: {sorted(unknown)}")
    for key in required:
        if key not in node:
            raise _fail(path, f"missing required key {key!r}")


def _coerce_scalar(annotation: str, value, path: str):
    """`value` as its field's annotated type: None only where the annotation
    allows it, a tuple element by element at the annotated length, and a
    function, amplitude or mark measure built from its node."""
    if value is None and annotation.endswith("| None"):
        return None
    kind = annotation.removesuffix(" | None")
    if kind == "Function1D":
        return build_function(value, path)
    if kind == "JumpAmplitude":
        return _build_amplitude(value, path)
    if kind == "JumpMeasureSpec":
        return _build(JumpMeasureSpec, value, path)
    if kind.startswith("tuple"):
        kinds = [t.strip() for t in kind[len("tuple[") : -1].split(",")]
        if kinds[-1] == "..." and isinstance(value, (list, tuple)):
            kinds = kinds[:1] * len(value)
        if not isinstance(value, (list, tuple)) or len(value) != len(kinds):
            raise _fail(path, f"expected {kind}, got {value!r}")
        return tuple(
            _coerce_scalar(t, v, f"{path}[{j}]") for j, (t, v) in enumerate(zip(kinds, value))
        )
    if kind == "int":
        return _as_int(value, path)
    if kind == "float":
        return _as_float(value, path)
    if kind == "str":
        return str(value)
    return value


def _build(cls, node, path: str):
    """The dataclass `cls` from its mapping `node`, by the one schema rule.

    Each key is a field of `cls`, under its config key where
    ``cls.config_keys`` renames it; a field without a default is required;
    each value is read by `_coerce_scalar` as the field's annotated type, and only
    the keys the node sets are passed, so every default is the class's own.
    A value the class refuses is a ConfigError at `path`.
    """
    key_of = {name: key for key, name in getattr(cls, "config_keys", {}).items()}
    schema = {key_of.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    required = [
        key
        for key, f in schema.items()
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    _check_keys(node, schema, required, path)
    kwargs = {
        schema[key].name: _coerce_scalar(schema[key].type, value, f"{path}.{key}")
        for key, value in node.items()
    }
    args = kwargs.pop("parts") if cls is presets.FunctionSum else ()  # FunctionSum(*parts)
    try:
        return cls(*args, **kwargs)
    except (ValueError, JumpsmoothError) as exc:
        raise _fail(path, str(exc)) from None


def build_function(node, path: str = "function") -> presets.Function1D:
    """A coefficient function from its config node (see the module docstring)."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return presets.constant(float(node))
    if not isinstance(node, dict):
        raise _fail(path, f"expected a number or a mapping with 'family', got {node!r}")
    params = {k: v for k, v in node.items() if k != "family"}
    family = node.get("family")
    if family == "constant":
        _check_keys(params, ("c",), ("c",), path)
        return presets.constant(_as_float(params["c"], path + ".c"))
    if family not in _FAMILIES:
        raise _fail(path, f"unknown function family {family!r}")
    return _build(_FAMILIES[family], params, path)


def _build_amplitude(node, path: str) -> presets.JumpAmplitude:
    if not isinstance(node, list) or not node:
        raise _fail(path, "amplitude must be a non-empty list of {y:..., z:...} terms")
    terms = []
    for j, term in enumerate(node):
        here = f"{path}[{j}]"
        _check_keys(term, ("y", "z"), ("y", "z"), here)
        terms.append(tuple(build_function(term[v], f"{here}.{v}") for v in ("y", "z")))
    return presets.JumpAmplitude(terms)


def build_model(node, path: str = "model") -> CoefficientSet:
    """The model from its config node: `CoefficientSet`'s fields under their
    config keys, with ``drift: 0.0`` where the node sets none (b has no
    default of its own)."""
    if isinstance(node, dict):
        node = {"drift": 0.0, **node}
    return _build(CoefficientSet, node, path)


def _check_t_end_and_runs(t_end: float | None, runs: int | None = None) -> None:
    if t_end is not None:
        _check_horizon(t_end)
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
    max_step: float | None = None  # drift-flow RK4 step; None derives it (`flow_step`)

    def __post_init__(self):
        if self.max_step is not None:
            _require_positive(self.max_step, "max_step")
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
        if self.dt is not None:
            _require_positive(self.dt, "dt")
        _check_t_end_and_runs(self.t_end)
        if self.nodes < 8:  # the least grid a `GridDensity` holds
            raise ValueError(f"nodes must be at least 8, got {self.nodes}")
        if self.quad_nodes < 1:
            raise ValueError(f"quad_nodes must be at least 1, got {self.quad_nodes}")


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
        _check_band(self.xi_min, self.xi_points)


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


def _build_stanza(cls, node, path: str):
    """A pipeline stanza, at its defaults where the file leaves it out."""
    return cls() if node is None else _build(cls, node, path)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment file, with libyaml's safe
    loader where PyYAML was built with it, else the pure-Python one."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r") as fh:
            raw = yaml.load(fh, Loader=loader)
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
