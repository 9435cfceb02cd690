#!/usr/bin/env python3
"""Pipeline benchmark for jumpsmooth.

    python3 bench/run.py --workload {wobble,power,collapse} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One workload is one YAML experiment under
`bench/workloads/`.  This process imports the package from `src/` and runs
the pipeline stages in-process, calling `jumpsmooth.cli.main([...])` for each
CLI command and the public API where the CLI cannot express a stage:

    audit       `check`, then `kernels`
    evolve      `evolve`
    simulate    `simulate` (exact flow, --threads 1)
    certify     `certify`; `smoothness_pipeline(kernels=None)` on collapse
    crosscheck  poissonized `simulate_batch` from the evolve stage's initial
                law, `estimate_density`, `compare_densities` against the
                density `evolve` wrote; on collapse the batch's atom mass
                against 1 - e^{-t}

It repeats the whole pipeline until `--seconds` have passed (at least three
passes) and reports the median of each stage time.  Times are reported at a
reference machine speed: on a shared host the speed of one core drifts by
20-40 % over minutes, and the drift moved the median of a whole run by as
much as the bound of a metric.  So a fixed interpreter-plus-numpy kernel,
independent of the package, is timed before and after every stage, and each
stage time is scaled by CALIBRATION_REF_S over the mean of the two kernel
times around it.  A change to the package moves the scaled time as it moves
the wall time; the raw wall-clock medians are printed next to them.  Every
stage's exit code
and output are checked, and the sha256 of every output file (manifest.json
excluded, it holds wall_seconds) must repeat exactly in every pass.  Set-up
time is the median over fresh interpreters of `import jumpsmooth` plus
`load_config`, scaled the same way.

With `--trace 1` the same untimed-by-spans passes run first, then
`simulate` at --threads 2 (its digests must equal those at --threads 1),
then one pass with every public function of the package wrapped in timing
spans (see tracing.py), then the direct-sum oracles of oracles.py.  That run
reports per-layer metrics; the plain run reports end-to-end metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `attempted` counts stage
executions and whole-run checks; `failed` those whose outcome or output
differed from the expected one.  The exit code is 0 when every check held,
1 when one failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
SETUP_REPEATS = 5
CALIBRATION_REF_S = 0.015  # kernel time at which a calibrated second is a wall second
CROSSCHECK_L1_TOL = 0.05  # acceptance gate 6
ATOM_SIGMAS = 4.0

# Why each workload: see BENCHMARK.json.  `exits` are the CLI exit codes at
# the seed commit; `certificate` the string `certify` produced there.
WORKLOADS = {
    "wobble": {
        "exits": {"check": 0, "kernels": 0, "evolve": 0, "simulate": 0, "certify": 0},
        "certificate": "decay below order 0",
        "crosscheck": "density",
        "crosscheck_runs": 15_000,
        "kde_nodes": 512,
    },
    "power": {
        "exits": {"check": 0, "kernels": 0, "evolve": 0, "simulate": 0, "certify": 0},
        "certificate": "smooth order 0",
        "crosscheck": "density",
        "crosscheck_runs": 15_000,
        "kde_nodes": 512,
    },
    "collapse": {
        "exits": {"check": 1, "kernels": 3, "evolve": 3, "simulate": 0},
        # the CLI certify always builds a kernel family, which this model
        # cannot have (it exits 3): call the pipeline without one
        "certify_api": True,
        "certificate": "no density",
        "crosscheck": "atom",
        "crosscheck_runs": 100_000,
    },
}
STAGES = ("check", "kernels", "evolve", "simulate", "certify", "crosscheck")
METRIC_STAGES = {
    "audit_s": ("check", "kernels"),
    "evolve_s": ("evolve",),
    "simulate_s": ("simulate",),
    "certify_s": ("certify",),
    "crosscheck_s": ("crosscheck",),
}


class Calibration:
    """A fixed kernel in three equal parts, like the package's work:
    interpreted loops, in-cache numpy arithmetic and random gathers from an
    array larger than the core's caches."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.random(1_000_000)
        self.index = rng.permutation(self.table.size)[:250_000]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        a = np.arange(100_000, dtype=float)
        for _ in range(5):
            a = np.sin(a) + 1.0
        self.table[self.index].sum()
        return time.perf_counter() - t0


def calibrated(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_REF_S / (0.5 * (before + after))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digests(path: Path) -> dict[str, str]:
    return {
        p.name: sha256_bytes(p.read_bytes())
        for p in sorted(path.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


class Pipeline:
    """One workload's stages against one seed, with their checks."""

    def __init__(self, js, name: str, seed: int, work: Path, calibration: Calibration):
        self.js = js
        self.calibration = calibration
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.config_path = BENCH / "workloads" / f"{name}.yaml"
        self.cfg = js.load_config(str(self.config_path))
        self.crosscheck_samples = self.crosscheck_kde = None
        self.digests: dict[str, dict[str, str]] = {}
        self.info: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _cli(self, command: str, out: Path, threads: int = 1) -> tuple[float, int]:
        argv = [command, "--config", str(self.config_path), "--out", str(out),
                "--seed", str(self.seed), "--threads", str(threads)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            rc = self.js.cli.main(argv)
            seconds = time.perf_counter() - t0
        return seconds, rc

    def run_stage(self, stage: str, tracer=None) -> float:
        """Run one stage, check its outcome and return its seconds.  An
        exception from the package counts as a failed stage, not a crash."""
        out = self.work / stage
        out.mkdir(parents=True, exist_ok=True)
        span = tracer.open(f"stage.{stage}") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            if stage == "crosscheck":
                seconds, problems, digests = self._crosscheck()
            elif stage == "certify" and self.spec.get("certify_api"):
                seconds, problems, digests = self._certify_api()
            else:
                seconds, rc = self._cli(stage, out)
                problems = self._check_cli(stage, out, rc)
                digests = dir_digests(out)
        except Exception as exc:  # noqa: BLE001 - reported as a failed stage
            seconds = time.perf_counter() - t0
            problems, digests = [f"raised {type(exc).__name__}: {exc}"], {}
        finally:
            if span is not None:
                tracer.close(span)
        self.record(stage, problems, digests)
        return seconds

    def record(self, stage: str, problems: list[str], digests: dict[str, str]) -> None:
        if stage in self.digests and digests != self.digests[stage]:
            problems.append("output bytes differ from the first pass")
        self.digests.setdefault(stage, digests)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{stage}: {p}" for p in problems)

    def _check_cli(self, stage: str, out: Path, rc: int) -> list[str]:
        want = self.spec["exits"][stage]
        if rc != want:
            return [f"exit code {rc}, expected {want}"]
        if rc != 0:
            return []
        problems = []
        if stage == "evolve":
            summary = json.loads((out / "summary.json").read_text())
            budget = 1e-4 * max(1.0, summary["t_end"])
            self.info["mass_drift"] = summary["mass_drift"]
            self.info["escape_fraction"] = summary["escape_fraction"]
            if not summary["mass_drift"] <= budget:
                problems.append(f"mass drift {summary['mass_drift']:.3e} > {budget:.1e}")
        elif stage == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            self.info["mean_jumps"] = summary["mean_jumps"]
            terminal = np.loadtxt(out / "terminal.txt")
            if terminal.shape != (self.cfg.simulation.runs,) or not np.all(np.isfinite(terminal)):
                problems.append("terminal.txt does not hold one finite state per run")
            elif self.spec["crosscheck"] == "atom":
                problems += self._atom_check(terminal, self.cfg.simulation.t_end, "simulate")
        elif stage == "certify":
            cert = json.loads((out / "certificate.json").read_text())
            self.info["usable_freqs"] = cert["n_points"]
            self.info["slope"] = cert["slope"]
            if cert["certificate"] != self.spec["certificate"]:
                problems.append(f"certificate {cert['certificate']!r}, expected "
                                f"{self.spec['certificate']!r}")
        self.info[f"{stage}_bytes"] = sum(
            p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")
        return problems

    def _atom_check(self, terminal: np.ndarray, t: float, label: str) -> list[str]:
        # marks in A = (1, 2) send the state to 0 and 0 is absorbing, with
        # rate 1 q(A) = 1: the atom at 0 has mass 1 - e^{-t} exactly
        atom = float(np.mean(terminal == 0.0))
        p = 1.0 - math.exp(-t)
        sigma = math.sqrt(p * (1.0 - p) / terminal.size)
        self.info[f"{label}_atom"] = atom
        if abs(atom - p) > ATOM_SIGMAS * sigma:
            return [f"atom mass {atom:.5f} vs {p:.5f} beyond {ATOM_SIGMAS} sigma"]
        return []

    def _certify_api(self):
        js, cfg = self.js, self.cfg
        diag = cfg.diagnostics
        x0 = diag.x0 if diag.x0 is not None else cfg.simulation.x0
        t_end = diag.t_end if diag.t_end is not None else cfg.simulation.t_end
        pipe = js.PipelineConfig(runs=diag.runs, xi_points=diag.xi_points,
                                 xi_min=diag.xi_min, xi_max=diag.xi_max, threads=1)
        t0 = time.perf_counter()
        report = js.smoothness_pipeline(cfg.coeffs, None, x0, t_end,
                                        js.RngSpec(self.seed, stream=1), pipe)
        seconds = time.perf_counter() - t0
        self.info["usable_freqs"] = report["fit"].n_points
        self.info["slope"] = report["fit"].slope
        problems = []
        if report["certificate"] != self.spec["certificate"]:
            problems.append(f"certificate {report['certificate']!r}, expected "
                            f"{self.spec['certificate']!r}")
        digests = {"cf": sha256_bytes(report["cf"].values.tobytes()),
                   "certificate": sha256_bytes(report["certificate"].encode())}
        return seconds, problems, digests

    def _evolved_density(self):
        cols = np.loadtxt(self.work / "evolve" / "density.txt", ndmin=2)
        return self.js.GridDensity(float(cols[0, 0]), float(cols[-1, 0]), cols[:, 1:].T.copy())

    def _crosscheck(self):
        js, cfg = self.js, self.cfg
        ev, coeffs = cfg.evolution, cfg.coeffs
        runs = self.spec["crosscheck_runs"]
        trunc = ev.trunc if ev.trunc is not None else len(coeffs.q.truncations)
        x0 = np.random.default_rng(self.seed).normal(ev.initial_mean, ev.initial_sigma, runs)
        density = self.spec["crosscheck"] == "density"
        evolved = self._evolved_density() if density else None
        t0 = time.perf_counter()
        batch = js.simulate_batch(coeffs, x0, ev.t_end, trunc,
                                  js.RngSpec(self.seed, stream=2), runs, i=ev.i)
        if density:
            kde = js.estimate_density(batch["terminal"], ev.window,
                                      size=self.spec["kde_nodes"], order=coeffs.k)
            l1 = js.compare_densities(evolved, kde)["l1"]
        seconds = time.perf_counter() - t0
        digests = {"terminal": sha256_bytes(batch["terminal"].tobytes())}
        if not density:
            return seconds, self._atom_check(batch["terminal"], ev.t_end, "crosscheck"), digests
        self.crosscheck_samples, self.crosscheck_kde = batch["terminal"], kde
        self.info["crosscheck_l1"] = l1
        digests["kde"] = sha256_bytes(kde.values.tobytes())
        problems = [] if l1 <= CROSSCHECK_L1_TOL else [f"L1 {l1:.4f} > {CROSSCHECK_L1_TOL}"]
        return seconds, problems, digests

    def run_pass(self) -> tuple[dict[str, float], dict[str, float]]:
        """All stages once; returns raw and calibrated seconds per stage."""
        raw, scaled = {}, {}
        before = self.calibration.seconds()
        for stage in STAGES:
            raw[stage] = self.run_stage(stage)
            after = self.calibration.seconds()
            scaled[stage] = calibrated(raw[stage], before, after)
            before = after
        return raw, scaled

    def threads2(self) -> float:
        """`simulate` at --threads 2; its bytes must equal the threads-1 pass."""
        out = self.work / "simulate-threads2"
        out.mkdir(parents=True, exist_ok=True)
        seconds, rc = self._cli("simulate", out, threads=2)
        problems = self._check_cli("simulate", out, rc)
        if dir_digests(out) != self.digests["simulate"]:
            problems.append("--threads 2 output bytes differ from --threads 1")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"simulate --threads 2: {p}" for p in problems)
        return seconds


def measure_passes(pipe: Pipeline, seconds: float):
    """Passes until `seconds` are spent; returns raw and calibrated passes."""
    raw, scaled = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r, c = pipe.run_pass()
        raw.append(r)
        scaled.append(c)
        last = time.perf_counter() - t0
        if len(raw) >= MIN_PASSES and time.perf_counter() - t_start + last > seconds:
            return raw, scaled


def stage_medians(passes: list[dict[str, float]]) -> dict[str, float]:
    out = {name: statistics.median(sum(p[s] for s in stages) for p in passes)
           for name, stages in METRIC_STAGES.items()}
    out["total_s"] = statistics.median(sum(p.values()) for p in passes)
    return out


def measure_setup(name: str) -> float:
    """Calibrated median over fresh interpreters of `import jumpsmooth` +
    `load_config`; each interpreter times the calibration kernel itself,
    after the import, so both figures come from the same core."""
    code = (
        "import statistics, sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import jumpsmooth\n"
        f"jumpsmooth.load_config({str(BENCH / 'workloads' / (name + '.yaml'))!r})\n"
        "seconds = time.perf_counter() - t0\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from run import Calibration\n"
        "kernel = Calibration()\n"
        "print(seconds, statistics.median(kernel.seconds() for _ in range(3)))\n"
        "print(jumpsmooth.__file__)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        figures, origin = proc.stdout.split("\n")[:2]
        if not Path(origin).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up imported jumpsmooth from {origin}")
        seconds, kernel = map(float, figures.split())
        times.append(calibrated(seconds, kernel, kernel))
    return statistics.median(times)


def machine_info(js) -> dict:
    import numpy
    import scipy
    import yaml

    src_digest = hashlib.sha256()
    for p in sorted((SRC / "jumpsmooth").glob("*.py")):
        src_digest.update(p.name.encode() + b"\0" + p.read_bytes())
    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "jumpsmooth": js.__version__,
        "git_revision": revision,
        "source_sha256": src_digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_metrics(pipe: Pipeline, passes, threads2_s: float):
    """One traced pass plus the oracles; returns the per-layer metrics and
    the span report."""
    from oracles import cf_err_over_floor, kde_l1_vs_direct
    from tracing import Tracer, instrument

    js = pipe.js
    tracer = Tracer()
    uninstall = instrument(tracer, js)
    tracer.enabled = True
    try:
        traced = {stage: pipe.run_stage(stage, tracer) for stage in STAGES}
    finally:
        tracer.enabled = False
        uninstall()
    spans = tracer.summary()
    untraced = stage_medians(passes)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    c = tracer.counters
    exact_s = total("simulate.simulate_batch.exact")
    apply_calls = calls("fokker_planck.AdjointOperator.apply")
    cf_err = 0.0
    for samples, estimate in tracer.captured.get("simulate.empirical_cf", []):
        cf_err = max(cf_err, cf_err_over_floor(samples, estimate))
    kde_l1 = 0.0
    duality = 0.0
    if pipe.crosscheck_kde is not None:  # the density crosscheck ran
        kde_l1 = kde_l1_vs_direct(pipe.crosscheck_samples, pipe.crosscheck_kde)
        ev = pipe.cfg.evolution
        econf = js.EvolutionConfig(i=ev.i, dt=ev.dt, trunc=ev.trunc, quad_nodes=ev.quad_nodes)
        phi = js.GaussBump(1.0, ev.initial_mean, 1.0)
        duality = js.duality_residual(pipe.cfg.coeffs, pipe._evolved_density(), phi,
                                      econf)["residual"]
    traced_total = sum(traced.values())

    report = ["spans (traced pass): name calls total_s self_s"]
    report += [f"  {name:48s} {row['calls']:7d} {row['total_s']:9.4f} {row['self_s']:9.4f}"
               for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])]
    report.append(f"tracing overhead: traced total {traced_total:.4f} s - untraced median "
                  f"{untraced['total_s']:.4f} s = {traced_total - untraced['total_s']:.4f} s "
                  f"over {len(tracer.spans)} spans")

    s, n, r = "s", "count", "ratio"
    metrics = {
        "config.load_config_s": (total("config.load_config"), s),
        "model.check_S_s": (total("model.check_S"), s),
        "model.check_A_s": (total("model.check_A"), s),
        "model.check_B_s": (total("model.check_B"), s),
        "model.gauss_panels_calls": (calls("model.gauss_panels"), n),
        "model.gauss_panels_s": (total("model.gauss_panels"), s),
        "kernels.make_kernels_s": (total("kernels.make_kernels"), s),
        "kernels.kernel_sobolev_audit_s": (total("kernels.kernel_sobolev_audit"), s),
        "kernels.kernel_mass_calls": (calls("kernels.kernel_mass"), n),
        "kernels.kernel_mass_s": (total("kernels.kernel_mass"), s),
        "calculus.transfer_alpha_grid_calls": (calls("calculus.transfer_alpha_grid"), n),
        "calculus.transfer_alpha_grid_s": (total("calculus.transfer_alpha_grid"), s),
        "calculus.transfer_beta_grid_s": (total("calculus.transfer_beta_grid"), s),
        "fokker_planck.operator_build_s": (total("fokker_planck.AdjointOperator.__init__"), s),
        "fokker_planck.apply_calls": (apply_calls, n),
        "fokker_planck.apply_s": (total("fokker_planck.AdjointOperator.apply"), s),
        "fokker_planck.apply_ms": (
            1e3 * total("fokker_planck.AdjointOperator.apply") / max(apply_calls, 1), "ms"),
        "fokker_planck.evolve_s": (total("fokker_planck.evolve"), s),
        "fokker_planck.mass_drift": (pipe.info.get("mass_drift", 0.0), "mass"),
        "fokker_planck.escape_fraction": (pipe.info.get("escape_fraction", 0.0), r),
        "fokker_planck.duality_residual": (duality, r),
        "simulate.exact_batch_s": (exact_s, s),
        "simulate.exact_paths_per_s": (
            c.get("simulate.exact_runs", 0.0) / exact_s if exact_s > 0 else 0.0, "1/s"),
        "simulate.poissonized_batch_s": (total("simulate.simulate_batch.poissonized"), s),
        "simulate.mean_jumps": (pipe.info.get("mean_jumps", 0.0), n),
        "simulate.threads2_ratio": (threads2_s / statistics.median(p["simulate"] for p in passes), r),
        "simulate.empirical_cf_s": (total("simulate.empirical_cf"), s),
        "simulate.cf_evals": (c.get("simulate.cf_evals", 0.0), n),
        "simulate.cf_err_over_floor": (cf_err, r),
        "simulate.estimate_density_s": (total("simulate.estimate_density"), s),
        "simulate.kde_evals": (c.get("simulate.kde_evals", 0.0), n),
        "simulate.kde_l1_vs_direct": (kde_l1, "l1"),
        "diagnostics.smoothness_pipeline_s": (total("diagnostics.smoothness_pipeline"), s),
        "diagnostics.decay_fit_s": (total("diagnostics.decay_fit"), s),
        "diagnostics.usable_freqs": (pipe.info.get("usable_freqs", 0), n),
        "diagnostics.slope": (pipe.info.get("slope", 0.0), "exponent"),
        "diagnostics.compare_densities_s": (total("diagnostics.compare_densities"), s),
        "diagnostics.crosscheck_l1": (pipe.info.get("crosscheck_l1", 0.0), "l1"),
        "cli.output_bytes": (sum(v for k, v in pipe.info.items() if k.endswith("_bytes")), "bytes"),
        "trace.overhead_s": (traced_total - untraced["total_s"], s),
        "trace.spans": (len(tracer.spans), n),
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jumpsmooth" / "__init__.py").is_file():
        print(f"bench: no jumpsmooth package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jumpsmooth as js
    import jumpsmooth.cli  # noqa: F401 - stages call js.cli.main

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        calibration = Calibration()
        setup = None if args.trace else measure_setup(args.workload)
        pipe = Pipeline(js, args.workload, args.seed, work, calibration)
        passes, scaled = measure_passes(pipe, args.seconds)
        report = []
        if args.trace:
            metrics, report = traced_metrics(pipe, passes, pipe.threads2())
        else:
            metrics = {"setup_s": (setup, "s")}
            metrics.update((k, (v, "s")) for k, v in stage_medians(scaled).items())
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes")
    print("machine " + json.dumps(machine_info(js), sort_keys=True))
    print("  stage      wall s: median    min      max   | calibrated s: median")
    for stage in STAGES:
        times = sorted(p[stage] for p in passes)
        print(f"  {stage:10s} {statistics.median(times):14.4f} {times[0]:8.4f} {times[-1]:8.4f}"
              f"   | {statistics.median(p[stage] for p in scaled):10.4f}   (n={len(times)})")
    print("passes " + json.dumps([{k: round(v, 6) for k, v in p.items()} for p in passes]))
    print("calibrated " + json.dumps([{k: round(v, 6) for k, v in p.items()} for p in scaled]))
    print("digests " + json.dumps(pipe.digests, sort_keys=True))
    print("info " + json.dumps(pipe.info, sort_keys=True))
    for line in report:
        print(line)
    for problem in pipe.problems:
        print(f"FAILED {problem}")
    correct = pipe.failed == 0
    result = {
        "correct": correct,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
