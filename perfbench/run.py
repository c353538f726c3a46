"""divtraj benchmark: the four CLI commands, called in-process, over fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload readme-crossroad --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` is a timed run. It sets up the workload's inputs (configs plus
``gen-data``) several times, then repeats the workload's train/sample/eval
stages in a closed loop for ``--seconds`` (at least twice, so every artifact
is compared in bytes with a repeat), and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes (gen-data plus stages)
and reports the per-layer metrics of the traced passes, plus the tracing
overhead. Every gen-data of a timed run, and the first pass of either kind,
runs in a child interpreter with another hash seed, so artifacts are
compared in bytes across processes as well as across repeats.
``--workload all`` runs every workload in its own interpreter and prints
every metric by name and unit. Any workload seed works; a seed not
used while writing a change serves as the held-out check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-run details
(provenance, per-repeat figures, artifact digests, spans of traced passes)
go under ``.perfbench_runs/`` at the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
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
import traceback
from pathlib import Path

from workloads import WORKLOADS, Stage, gen_data_argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
MIN_REPEATS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "apd": "scene_unit",
    "mmade": "scene_unit",
}

# A child interpreter: imports the CLI, runs each argv in turn and prints
# [import seconds, [exit code, seconds], ...] as JSON.
CHILD = """\
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from divtraj import cli
out = [time.perf_counter() - start]
for argv in json.loads(sys.argv[2]):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out.append([code, time.perf_counter() - start])
print(json.dumps(out))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# --- provenance ----------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "divtraj").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it exposes one."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "platform": platform.platform(),
        "seed": seed,
    }


# --- stage runner --------------------------------------------------------------


class Runner:
    """Runs and times CLI stages, in-process or in a child interpreter, and
    counts failed operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def run(self, stage, dataset=None) -> tuple[float, list]:
        """Run one stage; returns its wall time and the metric means it wrote."""
        from divtraj import cli

        captured = io.StringIO()
        error = None
        if self.tracer is not None:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(list(stage.argv))
        except Exception:  # a raising stage is a failed operation; keep the run going
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.enabled = False
        return elapsed, self._check(stage, dataset, code, error)

    def run_in_child(self, stages, dataset, hash_seed: str) -> tuple[float, list, list]:
        """Run stages one after another in a fresh interpreter.

        The child gets ``PYTHONHASHSEED=hash_seed``. Its artifacts are
        compared in bytes with those of other processes, so output that
        depends on the process (set or dict order, object ids) shows as a
        failure. Returns the child's import time, each stage's wall time and
        the metric means written.
        """
        proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), json.dumps([list(s.argv) for s in stages])],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                              cwd=ROOT, timeout=150)
        try:
            imported, *timings = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):  # the child died: every stage failed
            imported, timings = math.nan, [(None, math.nan)] * len(stages)
        means = []
        for stage, (code, _) in zip(stages, timings):
            means += self._check(stage, dataset, code, proc.stderr)
        return imported, [elapsed for _, elapsed in timings], means

    def _check(self, stage, dataset, code, error) -> list:
        import checks

        self.attempted += 1
        problems, means = [], []
        if code != 0:
            problems.append(f"exit code {code}" + (f"\n{error}" if error else ""))
        else:
            problems, means = checks.check_stage(stage, dataset, self.digests)
        if problems:
            self.failed += 1
            print(f"perfbench: stage {stage.command} failed: " + "; ".join(problems), file=sys.stderr)
        return means


def _other_hash_seed() -> str:
    """A PYTHONHASHSEED that differs from this process's."""
    own = os.environ.get("PYTHONHASHSEED", "random")
    return str(int(own) + 1) if own.isdigit() else "0"


def _write_configs(workload, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, obj in workload.configs(seed).items():
        (directory / name).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _gen_stage(config_dir: Path, data: Path) -> Stage:
    return Stage(gen_data_argv(config_dir, data), {data: "dataset"})


def _run_stages(runner: Runner, stages, dataset, in_child: bool) -> tuple[list, list]:
    """Wall time per stage and the metric means written, with the stages run
    in-process or in one child interpreter whose hash seed differs from ours."""
    if in_child:
        _, walls, means = runner.run_in_child(stages, dataset, _other_hash_seed())
        return walls, means
    walls, means = [], []
    for stage in stages:
        elapsed, stage_means = runner.run(stage, dataset)
        walls.append(elapsed)
        means += stage_means
    return walls, means


def _keep_going(started: float, seconds: float, durations: list, next_estimate: float) -> bool:
    if len(durations) < MIN_REPEATS:
        return True
    return time.perf_counter() - started + next_estimate <= seconds


# --- timed run -----------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float, run_dir: Path) -> tuple[dict, dict, Runner]:
    from divtraj.fileio import read_dataset

    runner = Runner()
    setup = []
    for rep in range(SETUP_REPEATS):
        config_dir = run_dir / f"setup{rep}"
        start = time.perf_counter()
        _write_configs(workload, seed, config_dir)
        configs = time.perf_counter() - start
        # A fresh interpreter per set-up, each with its own hash seed, so the
        # datasets are also compared across processes.
        imported, (gen,), _ = runner.run_in_child([_gen_stage(config_dir, config_dir / "data.jsonl")], None, str(rep))
        setup.append(configs + imported + gen)
    config_dir = run_dir / "setup0"
    data = config_dir / "data.jsonl"
    dataset = read_dataset(data)

    walls, durations, means = [], [], []
    started = time.perf_counter()
    while _keep_going(started, seconds, durations, statistics.median(durations) if durations else 0.0):
        iteration_start = time.perf_counter()
        out = run_dir / f"iter{len(walls)}"
        out.mkdir()
        # The first iteration runs in a child interpreter, so the artifacts
        # of the later, in-process ones are compared across processes.
        stage_walls, stage_means = _run_stages(runner, workload.stages(seed, config_dir, data, out), dataset,
                                               in_child=not walls)
        if not walls:
            means = stage_means
        walls.append(sum(stage_walls))
        shutil.rmtree(out)
        durations.append(time.perf_counter() - iteration_start)

    quality = {name: statistics.fmean(m[name] for m in means) if means else 0.0 for name in ("apd", "mmade")}
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
        **quality,
    }
    details = {"setup_s": setup, "wall_s": walls, "metric_means": means}
    return metrics, details, runner


# --- traced run ----------------------------------------------------------------


def traced_run(workload, seed: int, seconds: float, run_dir: Path) -> tuple[dict, dict, Runner]:
    """Alternate untraced and traced passes; per-layer metrics of the traced ones."""
    import numpy as np
    from divtraj.fileio import read_dataset
    from tracer import Tracer

    tracer = Tracer()
    runner = Runner(tracer)
    config_dir = run_dir / "config"
    _write_configs(workload, seed, config_dir)
    walls = {False: [], True: []}
    durations, layer_metrics = [], []
    started = time.perf_counter()
    while _keep_going(started, seconds, durations, durations[-2] if len(durations) > 1 else 0.0):
        traced = len(durations) % 2 == 1
        out = run_dir / f"pass{len(durations)}"
        out.mkdir()
        pass_start = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            # The first, untraced pass runs in child interpreters, so the
            # artifacts of the later, in-process passes are compared across
            # processes.
            in_child = not durations
            data = out / "data.jsonl"
            _run_stages(runner, [_gen_stage(config_dir, data)], None, in_child)
            stage_walls, _ = _run_stages(runner, workload.stages(seed, config_dir, data, out), read_dataset(data), in_child)
            wall = sum(stage_walls)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if traced:
            layer_metrics.append(tracer.pass_metrics())
            np.savez(run_dir / f"spans-pass{len(durations)}.npz", **tracer.spans())
            tracer.reset()
        shutil.rmtree(out)
        durations.append(time.perf_counter() - pass_start)

    metrics = {name: statistics.median(m[name] for m in layer_metrics) for name in layer_metrics[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    details = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True], "per_pass": layer_metrics}
    return metrics, details, runner


# --- entry points --------------------------------------------------------------


def run_one(args, nproc: int) -> int:
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    from tracer import PER_LAYER

    workload = WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    info = provenance(args.seed, nproc)
    print("provenance " + json.dumps(info, sort_keys=True))
    measure = traced_run if args.trace else timed_run
    try:
        metrics, details, runner = measure(workload, args.seed, args.seconds, run_dir)
    finally:
        for child in run_dir.iterdir():
            if child.is_dir():
                shutil.rmtree(child)
    units = {**PER_LAYER, "trace.overhead_s": "s"} if args.trace else END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    (run_dir / "result.json").write_text(
        json.dumps({"workload": workload.name, "provenance": info, "details": details,
                    "artifact_sha256": runner.digests, "result": result}, indent=1) + "\n"
    )
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter; prints each metric by name and unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:18s} {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "divtraj" / "__init__.py").is_file():
        print(f"perfbench: no divtraj sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:  # one process with one BLAS thread: steadier than a pool on small matrices
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
