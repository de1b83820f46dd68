"""Untraced measurement and the pieces the traced run shares.

Imported by run.py after it has pinned the thread environment and put
the checkout's src/ on sys.path, so numpy and sgmnmf load here.
"""

import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from sgmnmf import audio, cli, config, model, optimizer, separate
from sgmnmf.errors import SgmnmfError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    channels: int
    algorithm: str
    beta: float


# All workloads: 2 s am_tone scenes at 16 kHz, rt60 = 0.3, K = 20,
# 200 iterations (the documented operating point), one separation at
# a time from a single process.  Why each exists: perfbench/README.md.
WORKLOADS = {
    # operating point; the Q-row systems take about half of each iteration
    "sep2x2_subgauss": Workload(2, "subgaussian", 4.0),
    # same scenes; the t/v/z/g sweep dominates, row-system changes
    # limited to the sub-Gaussian rule should not move it
    "sep2x2_gauss": Workload(2, "gaussian", 2.0),
}
# End-to-end runs use one worker.  Two-worker wall times on a 2-core
# host spread by a third of their median between runs (a stall of
# either core stalls the fan-out), more than any allowed bound; the
# traced run measures the fan-out as per-layer metrics instead.
WORKERS = 1

SETUP_REPEATS = 5
MIN_SEPARATIONS = 2  # the repeat check needs two runs of the same scene
WARMUP_ITERATIONS = 2
DESCENT_RTOL = 1e-8  # acceptance-suite tolerance
WIENER_RTOL = 1e-9
# stop starting separations past this, whatever --seconds says, so a
# run always ends within three minutes
HARD_STOP_S = 120.0


# ---------------------------------------------------------------------------
# environment record


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
        except OSError:  # no git on PATH
            res = None
        if res is not None and res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "sgmnmf").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up time


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_fresh_imports(workdir, importtime=False):
    """Wall time of fresh interpreters importing sgmnmf.cli.

    Returns (seconds list, per-module cumulative import us dicts).
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", "import sgmnmf.cli"]
    walls, tables = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=workdir, env=child_env(),
                             capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise RuntimeError(f"fresh import failed: {res.stderr.strip()}")
        if importtime:
            tables.append(parse_importtime(res.stderr))
    return walls, tables


def parse_importtime(text):
    """'import time: self | cumulative | name' lines -> {name: cumulative us}."""
    table = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        table.setdefault(parts[2].strip(), int(parts[1]))
    return table


# ---------------------------------------------------------------------------
# scenes, configs and the in-process CLI


class Scene:
    """One rendered scene plus the run documents that separate it."""

    def __init__(self, workdir, wl, seed, duration_s, iterations):
        self.dir = workdir / "scene"
        spec = {
            "n_sources": wl.channels,
            "n_mics": wl.channels,
            "rt60": 0.3,
            "duration_s": duration_s,
            "seed": seed,
            "source_kind": "am_tone",
        }
        spec_path = workdir / "scene_spec.json"
        spec_path.write_text(json.dumps(spec))
        if cli.main(["simulate", "--spec", str(spec_path), "--out", str(self.dir)]) != 0:
            raise RuntimeError("sgmnmf simulate failed")
        self.mixture = self.dir / "mixture.wav"
        self.images = [self.dir / f"image_{n}.wav" for n in range(wl.channels)]
        self.wl = wl
        self.iterations = iterations
        self.run_doc = {
            "algorithm": wl.algorithm,
            "beta": wl.beta,
            "n_sources": wl.channels,
            "n_bases": 20,
            "iterations": iterations,
            "seed": seed,
            "trace": True,
        }
        wave = audio.read_wav(self.mixture)
        cfg = config.parse_config(self.run_doc)
        self.X = audio.stft(wave, cfg.stft_config(wave.sample_rate))

    def config(self, out_dir, iterations=None):
        """Write a run document for out_dir; returns its path."""
        doc = dict(self.run_doc, paths={"mixture": str(self.mixture), "out": str(out_dir)})
        if iterations is not None:
            doc["iterations"] = iterations
        path = Path(f"{out_dir}.json")
        path.write_text(json.dumps(doc))
        return path

    def cli_args(self, config_path):
        return ["--workers", str(WORKERS), "separate", "--config", str(config_path)]


class IterationClock:
    """Wraps optimizer.run for one call, adding an on_iteration callback.

    cli.cmd_separate looks up `optimizer.run` on the module at call
    time, so the wrapper sees the CLI's own run.  The callback stores a
    perf_counter stamp and the report's costs, nothing more.
    """

    def __init__(self):
        self.stamps = []
        self.costs = []  # (cost_before, cost_after) per iteration

    def __enter__(self):
        self._original = original = optimizer.run

        def run(state, X, *args, on_iteration=None, **kwargs):
            def hook(report):
                self.stamps.append(time.perf_counter())
                self.costs.append((report.cost_before, report.cost_after))
                if on_iteration is not None:
                    on_iteration(report)

            return original(state, X, *args, on_iteration=hook, **kwargs)

        optimizer.run = run
        return self

    def __exit__(self, *exc):
        optimizer.run = self._original
        return False

    def iter_ms(self):
        """Per-iteration wall times between consecutive callbacks."""
        return [(b - a) * 1000.0 for a, b in zip(self.stamps, self.stamps[1:])]


@dataclass
class Separation:
    out_dir: Path
    wall_s: float = float("nan")
    cpu_s: float = float("nan")
    iter_ms: list = field(default_factory=list)
    costs: list = field(default_factory=list)  # (before, after) per iteration
    trace_rows: list = None
    failures: list = field(default_factory=list)


def run_cli_separation(scene, out_dir, iterations=None):
    """One in-process `sgmnmf separate`, timed from config parse to last write."""
    config_path = scene.config(out_dir, iterations)
    sep = Separation(out_dir=out_dir)
    with IterationClock() as clock:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = cli.main(scene.cli_args(config_path))
        except Exception as exc:  # a raising separation is a counted failure
            code = None
            sep.failures.append(f"raised {type(exc).__name__}: {exc}")
        sep.wall_s = time.perf_counter() - t0
        sep.cpu_s = time.process_time() - c0
    if code not in (0, None):
        sep.failures.append(f"cli.main returned {code}")
    sep.iter_ms = clock.iter_ms()
    sep.costs = clock.costs
    return sep


# ---------------------------------------------------------------------------
# output checks


def read_trace_rows(path):
    """trace.csv rows as raw (iteration, cost) strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [(r[0], r[1]) for r in rows[1:]]


def descent_violations(costs):
    """Iterations (1-based) whose cost rose by more than DESCENT_RTOL."""
    return [k for k, (before, after) in enumerate(costs, start=1)
            if after - before > DESCENT_RTOL * abs(before)]


def check_separation(scene, sep):
    """Append to sep.failures every output check that fails."""
    if sep.failures:
        return
    n_src = scene.wl.channels
    rises = descent_violations(sep.costs)
    if rises:
        sep.failures.append(f"cost rose at iterations {rises[:5]}")
    try:
        sep.trace_rows = read_trace_rows(sep.out_dir / "trace.csv")
        costs = np.array([float(c) for _, c in sep.trace_rows])
        if costs.size != scene.iterations or not np.isfinite(costs).all():
            sep.failures.append("trace.csv costs missing or non-finite")
        for n in range(n_src):
            wave = audio.read_wav(sep.out_dir / f"source_{n}.wav")
            if not np.isfinite(wave.data).all():
                sep.failures.append(f"source_{n}.wav has non-finite samples")
        state = model.load_state(sep.out_dir / "state.json")
        images = separate.wiener_separate(state, scene.X).spectra
        if not np.isfinite(images).all():
            sep.failures.append("Wiener images are non-finite")
        else:
            err = np.abs(images.sum(axis=0) - scene.X).max() / np.abs(scene.X).max()
            if not err <= WIENER_RTOL:
                sep.failures.append(f"Wiener images miss X by {err:.3e} relative")
    except (OSError, ValueError, SgmnmfError) as exc:
        sep.failures.append(f"unreadable output: {type(exc).__name__}: {exc}")


def check_repeats(seps):
    """Every separation of one scene must give byte-identical trace costs."""
    ref = next((s.trace_rows for s in seps if s.trace_rows is not None), None)
    for s in seps:
        if s.trace_rows is not None and s.trace_rows != ref:
            s.failures.append("trace costs differ from the first run of this scene")


def corrupt(sep):
    """Overwrite source_0.wav with NaN samples (self-test only)."""
    path = sep.out_dir / "source_0.wav"
    wave = audio.read_wav(path)
    audio.write_wav(path, audio.Waveform(wave.sample_rate, np.full_like(wave.data, np.nan)))


def evaluate(scene, out_dir):
    """Mean SI-SDR improvement in dB from `sgmnmf evaluate`."""
    doc = {
        "estimates": [str(out_dir / f"source_{n}.wav") for n in range(scene.wl.channels)],
        "references": [str(p) for p in scene.images],
        "mixture": str(scene.mixture),
        "out": str(out_dir),
    }
    path = Path(f"{out_dir}.eval.json")
    path.write_text(json.dumps(doc))
    if cli.main(["evaluate", "--config", str(path)]) != 0:
        raise RuntimeError("sgmnmf evaluate failed")
    return json.loads((out_dir / "metrics.json").read_text())["mean_improvement"]


# ---------------------------------------------------------------------------
# result


def percentile(values, q):
    return float(np.percentile(values, q))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failure_notes(seps):
    return {f"FAILED {s.out_dir.name}": "; ".join(s.failures) for s in seps if s.failures}


def emit(metrics, units, attempted, failed, notes, unbounded=None):
    """Print every metric readably, then the one-line JSON result.

    `unbounded` maps name -> (value, unit) for figures printed but kept
    out of the result line.
    """
    for key, val in notes.items():
        print(f"# {key}: {val}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit) in (unbounded or {}).items():
        print(f"{name} = {value:.6g} {unit} (not bounded)")
    print(f"attempted = {attempted}  failed = {failed}  "
          f"fail_rate = {failed / attempted if attempted else 1.0:.6g}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        # a non-finite value only comes with a failed check; null keeps
        # the line valid JSON
        "metrics": {n: {"value": v if math.isfinite(v) else None, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def untraced(args, workdir, env):
    """End-to-end metrics from repeated in-process CLI separations."""
    wl = WORKLOADS[args.workload]
    setup_walls, _ = time_fresh_imports(workdir)
    scene = Scene(workdir, wl, args.seed, args.duration_s, args.iterations)

    seps = []
    warm = run_cli_separation(scene, workdir / "warmup", WARMUP_ITERATIONS)
    if warm.failures:
        seps.append(warm)  # only a failed warm-up counts as an attempt
    measured = []
    t_start = time.perf_counter()
    while True:
        sep = run_cli_separation(scene, workdir / f"sep{len(measured)}")
        measured.append(sep)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(s.wall_s for s in measured)
        if len(measured) >= MIN_SEPARATIONS and (
            elapsed + typical > args.seconds or elapsed > HARD_STOP_S
        ):
            break
    if args.corrupt_output and not measured[0].failures:
        corrupt(measured[0])
    for sep in measured:
        check_separation(scene, sep)
    check_repeats(measured)
    seps.extend(measured)

    ok = [s for s in measured if not s.failures]
    sdr = evaluate(scene, ok[0].out_dir) if ok else float("nan")
    iter_ms = [x for s in measured for x in s.iter_ms]
    walls = [s.wall_s for s in measured]
    # the bounded iteration time is the p90, not the median; see
    # "Why the p90" in perfbench/README.md
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "iter_ms_p90": percentile(iter_ms, 90) if iter_ms else float("nan"),
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {"setup_s": "s", "iter_ms_p90": "ms", "peak_rss_mb": "MB"}
    failed = sum(1 for s in seps if s.failures)
    notes = {
        "env": json.dumps(env),
        "workload": f"{args.workload} seed={args.seed} M=N={wl.channels} "
                    f"algorithm={wl.algorithm} beta={wl.beta} workers={WORKERS} "
                    f"X={'x'.join(map(str, scene.X.shape))} iterations={args.iterations}",
        "samples": f"setup={len(setup_walls)} separations={len(measured)} "
                   f"iterations={len(iter_ms)}",
        "separation walls": " ".join(f"{w:.3f}" for w in walls) + " s",
        "fail_rate": f"{failed}/{len(seps)}",
    }
    notes.update(failure_notes(seps))
    # printed, not bounded: see "End-to-end metrics" in perfbench/README.md
    unbounded = {
        "separate_s": (statistics.median(walls), "s"),
        "separate_cpu_s": (statistics.median(s.cpu_s for s in measured), "s"),
        "iter_ms_p50": (percentile(iter_ms, 50) if iter_ms else float("nan"), "ms"),
        "sdr_improvement_db": (sdr, "dB"),
    }
    return emit(metrics, units, len(seps), failed, notes, unbounded)
