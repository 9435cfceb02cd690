"""Command line front end.

Subcommands mirror the pipeline stages: `check` audits the structural
assumptions, `simulate` draws Monte Carlo batches, `evolve` advances a
density under the adjoint generator, `kernels` builds and audits the
filtered-kernel family, `certify` runs the sampling smoothness pipeline.

Exit codes: 0 success, 1 an audit or certificate failed (the run itself was
fine) or the model was rejected, 2 configuration problems (found before any
run), 3 numerical failure.  Every successful run
writes a manifest.json with the config digest, seed, and output list so
results can be traced back to their inputs.

Each command imports the engines it runs inside its `_cmd_*` function, so a
`check` process loads none of them and an `evolve` process only the
adjoint evolution.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    ContractError,
    DegenerateKernelError,
    InvalidModelError,
    JumpsmoothError,
    NumericalError,
)
from .model import AssumptionReport, check_A, check_B, check_S


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, args, cfg: ExperimentConfig, seed: int, outputs, t0: float, status: int) -> None:
    manifest = {
        "command": args.command,
        "config": str(args.config),
        "config_sha256": _sha256(args.config),
        "label": cfg.label,
        "seed": seed,
        "threads": args.threads,
        "version": __version__,
        "wall_seconds": round(time.monotonic() - t0, 3),
        "outputs": sorted(outputs),
        "status": status,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


SAVE_BLOCK_ROWS = 256  # rows formatted per write; bounds the Python objects alive


def _save_columns(path: Path, columns: dict[str, np.ndarray]) -> None:
    """One "# name ..." header line, then one row of %.17g values per line:
    the bytes `np.savetxt` writes, formatted from Python floats a block of
    rows at a time, with one `%` on the row format repeated per row."""
    names = list(columns)
    data = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
    fmt = " ".join(["%.17g"] * len(names)) + "\n"
    with path.open("w", encoding="ascii") as fh:
        fh.write("# " + " ".join(names) + "\n")
        for start in range(0, len(data), SAVE_BLOCK_ROWS):
            block = data[start : start + SAVE_BLOCK_ROWS]
            fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def _cmd_check(cfg: ExperimentConfig, out_dir: Path, args) -> tuple[int, list[str]]:
    coeffs = cfg.coeffs
    reports = [check_S(coeffs), check_A(coeffs)]
    try:
        reports.append(
            check_B(coeffs, n_max=max(cfg.kernels.n_values), theta=cfg.kernels.theta)
        )
    except DegenerateKernelError as exc:
        reports.append(
            AssumptionReport(
                "inversion_budget", False, {}, {}, {"error": str(exc)}
            )
        )
    payload = {r.name: r.to_dict() for r in reports}
    (out_dir / "assumptions.json").write_text(json.dumps(payload, indent=2) + "\n")
    for r in reports:
        print(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
    return (0 if all(r.passed for r in reports) else 1), ["assumptions.json"]


def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path, args, seed: int) -> tuple[int, list[str]]:
    from .kernels import make_kernels
    from .simulate import RngSpec, simulate_batch

    coeffs, sim = cfg.coeffs, cfg.simulation
    trunc = coeffs.q.resolve_trunc(sim.trunc)
    kernels = None
    if sim.filter_n is not None:
        kernels = make_kernels(coeffs, cfg.kernels.n_values, cfg.kernels.theta)
    batch = simulate_batch(
        coeffs, sim.x0, sim.t_end, trunc, RngSpec(seed), sim.runs,
        i=sim.i, kernels=kernels, filter_n=sim.filter_n,
        max_step=sim.max_step, threads=args.threads,
    )
    outputs = ["terminal.txt", "summary.json"]
    _save_columns(out_dir / "terminal.txt", {"terminal": batch["terminal"]})
    if "tau" in batch:
        _save_columns(out_dir / "tau.txt", {"tau": batch["tau"]})
        outputs.append("tau.txt")
    summary = {
        "runs": batch["runs"],
        "t_end": batch["t_end"],
        "trunc": trunc,
        "mean": float(np.mean(batch["terminal"])),
        "std": float(np.std(batch["terminal"])),
        "mean_jumps": float(np.mean(batch["jumps"])),
        "rate_bound": batch["rate_bound"],
        "candidate_rate": batch["candidate_rate"],
    }
    if "tau" in batch:
        summary["tau_finite_fraction"] = float(np.mean(np.isfinite(batch["tau"])))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"simulated {batch['runs']} runs to t={batch['t_end']}")
    return 0, outputs


def _cmd_evolve(cfg: ExperimentConfig, out_dir: Path, args) -> tuple[int, list[str]]:
    from .fokker_planck import EvolutionConfig, evolve, gaussian_density, sobolev_norm

    coeffs, ev = cfg.coeffs, cfg.evolution
    initial = gaussian_density(
        ev.window, ev.nodes, coeffs.k, ev.initial_mean, ev.initial_sigma
    )
    econf = EvolutionConfig(i=ev.i, dt=ev.dt, trunc=ev.trunc, quad_nodes=ev.quad_nodes)
    result = evolve(coeffs, initial, ev.t_end, econf)
    final = result.final
    cols = {"y": final.grid}
    for l in range(final.order + 1):
        cols[f"d{l}"] = final.values[l]
    _save_columns(out_dir / "density.txt", cols)
    _save_columns(out_dir / "mass.txt", {"t": result.times, "mass": result.masses})
    summary = {
        "i": ev.i,
        "t_end": ev.t_end,
        "steps": result.steps,
        "dt": result.dt,
        "mass_drift": result.mass_drift,
        "time_error": result.time_error,
        "escape_fraction": result.escape_fraction,
        "sobolev": [float(sobolev_norm(final, l)) for l in range(final.order + 1)],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"evolved to t={ev.t_end} in {result.steps} steps; mass drift {result.mass_drift:.2e}; "
          f"time error {result.time_error:.2e}")
    return 0, ["density.txt", "mass.txt", "summary.json"]


def _cmd_kernels(cfg: ExperimentConfig, out_dir: Path, args) -> tuple[int, list[str]]:
    from .kernels import SOBOLEV_AUDIT_STATES, kernel_sobolev_audit, make_kernels

    coeffs, ks = cfg.coeffs, cfg.kernels
    kd = make_kernels(coeffs, ks.n_values, ks.theta)
    states = coeffs.y_audit_states(SOBOLEV_AUDIT_STATES)
    audit = kernel_sobolev_audit(coeffs, states, kd.n_values, ks.theta)
    masses = audit.pop("masses")  # written at the first three states
    payload = {
        "decomposition": kd.describe(),
        "sobolev_audit": audit,
        "masses": {str(n): row[:3] for n, row in zip(kd.n_values, masses)},
    }
    (out_dir / "kernels.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"kernel audit: {'PASS' if audit['passed'] else 'FAIL'} "
          f"(fitted theta {audit['fitted_theta']:.3f}, declared {ks.theta})")
    return (0 if audit["passed"] else 1), ["kernels.json"]


def _cmd_certify(cfg: ExperimentConfig, out_dir: Path, args, seed: int) -> tuple[int, list[str]]:
    from .diagnostics import PipelineConfig, smoothness_pipeline
    from .kernels import make_kernels
    from .simulate import RngSpec

    coeffs, diag, sim = cfg.coeffs, cfg.diagnostics, cfg.simulation
    kd = make_kernels(coeffs, cfg.kernels.n_values, cfg.kernels.theta)
    pipe = PipelineConfig(
        runs=diag.runs,
        xi_points=diag.xi_points,
        xi_min=diag.xi_min,
        xi_max=diag.xi_max,
        threads=args.threads,
        max_step=sim.max_step,
    )
    x0 = diag.x0 if diag.x0 is not None else sim.x0
    t_end = diag.t_end if diag.t_end is not None else sim.t_end
    report = smoothness_pipeline(coeffs, kd, x0, t_end, RngSpec(seed, stream=1), pipe)
    fit = report["fit"]
    payload = {
        "certificate": report["certificate"],
        "certified_exponent": report["certified_exponent"],
        "predicted_exponent": report["predicted_exponent"],
        "slope": fit.slope,
        "slope_ci": list(fit.slope_ci),
        "band": list(fit.band),
        "n_points": fit.n_points,
        "envelope_constant": report["envelope_constant"],
        "envelope_ok": report["envelope_ok"],
        "two_term": report["two_term"],
        "magnitude_floor": report["magnitude_floor"],
        "runs": report["runs"],
        "cf_binning_error": report["cf"].binning_error,
        "xi": [float(v) for v in report["cf"].xi],
        "cf_magnitude": [float(v) for v in report["cf"].magnitude()],
    }
    (out_dir / "certificate.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"certificate: {report['certificate']} "
          f"(exponent {report['certified_exponent']:.3f}, predicted {report['predicted_exponent']:.3f})")
    ok = report["certificate"].startswith("smooth") or report["certificate"].startswith("decay")
    return (0 if ok else 1), ["certificate.json"]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="jumpsmooth",
        description="Simulation, density evolution, and smoothness certificates "
        "for jumping dynamics with state-dependent rates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("check", "audit the structural assumptions of the model"),
        ("simulate", "draw a Monte Carlo batch of terminal states"),
        ("evolve", "advance a density under the adjoint generator"),
        ("kernels", "build and audit the filtered-kernel family"),
        ("certify", "estimate Fourier decay and certify smoothness"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=1, help="worker threads for batches")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        cfg = load_config(args.config, args.command)
        seed = args.seed if args.seed is not None else cfg.seed
        out_dir = Path(args.out if args.out is not None else cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "check":
            status, outputs = _cmd_check(cfg, out_dir, args)
        elif args.command == "simulate":
            status, outputs = _cmd_simulate(cfg, out_dir, args, seed)
        elif args.command == "evolve":
            status, outputs = _cmd_evolve(cfg, out_dir, args)
        elif args.command == "kernels":
            status, outputs = _cmd_kernels(cfg, out_dir, args)
        else:
            status, outputs = _cmd_certify(cfg, out_dir, args, seed)
        _write_manifest(out_dir, args, cfg, seed, outputs + ["manifest.json"], t0, status)
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (InvalidModelError, ContractError) as exc:
        print(f"model rejected: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except JumpsmoothError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
