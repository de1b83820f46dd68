"""Traced run of the separation benchmark (--trace 1).

Mirrors `cli.cmd_separate` step by step through the package's public
functions and records spans around each call, plus one span per
optimizer sub-update taken from `optimizer.run`'s on_subupdate and
on_iteration callbacks.  Span tree per separation:

    separate -> read_wav, stft, init_state,
                optimize -> iteration -> t, v, z, g, q_row_<m>, normalize, cost
                wiener, istft (per source), write_wav (per source),
                save_state, write_trace

Spans stay in memory and are written to --out when the run ends.  The
same scene is also separated once through `cli.main` without tracing;
the mirror's trace costs, WAVs and state must match it byte for byte.
A short fan-out probe then times the Q phases at two workers, and a
cProfile pass counts einsum and solve calls per iteration.
"""

import cProfile
import dataclasses
import json
import os
import pstats
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from sgmnmf import audio, config, model, optimizer, separate

import measure

PROFILE_ITERATIONS = 6  # the profiler runs over iterations 2..6
SUBUPDATES = ("t", "v", "z", "g", "normalize", "cost")
IO_LAYERS = {
    "read_wav": "audio.read_wav_ms",
    "stft": "audio.stft_ms",
    "init_state": "model.init_state_ms",
    "wiener": "separate.wiener_ms",
    "istft": "audio.istft_ms",
    "write_wav": "audio.write_wav_ms",
    "save_state": "model.save_state_ms",
    "write_trace": "objective.write_trace_ms",
}
# workers x BLAS threads (1) stays within nproc
FANOUT_WORKERS = min(2, os.cpu_count() or 1)
FANOUT_ITERATIONS = 12
MAX_Q_ROWS = max(wl.channels for wl in measure.WORKLOADS.values())


class Tracer:
    """In-memory spans: id, parent, separation id, name, start, end."""

    def __init__(self, sep_id):
        self.spans = []
        self._stack = []
        self.sep_id = sep_id

    def add(self, name, start, end, parent):
        span = {"id": len(self.spans), "parent": parent, "sep": self.sep_id,
                "name": name, "start": start, "end": end}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        parent = self._stack[-1]["id"] if self._stack else None
        span = self.add(name, time.perf_counter(), None, parent)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_ms(self, sep_id):
        """Self time per span name, summed over one separation, in ms."""
        spans = [s for s in self.spans if s["sep"] == sep_id]
        child = {}
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own * 1000.0
        return out

    def total_ms(self, sep_id, name):
        return sum((s["end"] - s["start"]) * 1000.0 for s in self.spans
                   if s["sep"] == sep_id and s["name"] == name)

    def write(self, path):
        t0 = min(s["start"] for s in self.spans)
        rows = [dict(s, start=(s["start"] - t0) * 1000.0, end=(s["end"] - t0) * 1000.0)
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"unit": "ms", "spans": rows}) + "\n")


@dataclasses.dataclass
class PhaseStats:
    """Per-iteration timings of one optimizer run, iteration 1 left out."""

    phases: dict  # sub-update name -> ms per iteration
    iter_ms: list
    costs: list  # (cost_before, cost_after) per iteration, all iterations
    q_ms: list  # all Q rows together, ms per iteration
    q_cpu_per_wall: float


class PhaseRecorder:
    """Callback target for optimizer.run: (name, wall, cpu[, costs]) events."""

    def __init__(self):
        self.events = []

    def on_subupdate(self, name, state):
        self.events.append((name, time.perf_counter(), time.process_time()))

    def on_iteration(self, report):
        self.events.append(("cost", time.perf_counter(), time.process_time(),
                            report.cost_before, report.cost_after))

    def stats(self, tracer, optimize_span, cpu_start):
        """Iteration and sub-update spans under `optimize`; per-phase stats.

        Iteration 1 starts when optimize does, so it also holds the
        initial cost evaluation; the medians below leave it out.
        """
        phases = {}  # name -> per-iteration ms, iterations 2..n
        iter_ms, costs, q_ms = [], [], []
        q_cpu = q_wall = q_iter = 0.0
        prev_wall, prev_cpu = optimize_span["start"], cpu_start
        iteration = None
        for event in self.events:
            name, wall, cpu = event[:3]
            if iteration is None:
                iteration = tracer.add("iteration", prev_wall, None, optimize_span["id"])
            tracer.add(name, prev_wall, wall, iteration["id"])
            if costs:  # iterations 2..n
                phases.setdefault(name, []).append((wall - prev_wall) * 1000.0)
                if name.startswith("q_row_"):
                    q_cpu += cpu - prev_cpu
                    q_wall += wall - prev_wall
                    q_iter += (wall - prev_wall) * 1000.0
            if name == "cost":
                iteration["end"] = wall
                if costs:
                    iter_ms.append((wall - iteration["start"]) * 1000.0)
                    q_ms.append(q_iter)
                costs.append(event[3:])
                iteration, q_iter = None, 0.0
            prev_wall, prev_cpu = wall, cpu
        return PhaseStats(phases, iter_ms, costs, q_ms,
                          q_cpu / q_wall if q_wall > 0 else float("nan"))


def mirror_separate(scene, out_dir, tracer):
    """cli.cmd_separate, step by step, with a span around every call."""
    config_path = scene.config(out_dir)
    recorder = PhaseRecorder()
    with tracer.span("separate"):
        cfg = config.parse_config(json.loads(Path(config_path).read_text()))
        os.makedirs(cfg.out, exist_ok=True)
        with tracer.span("read_wav"):
            wave = audio.read_wav(cfg.mixture)
        stft_cfg = cfg.stft_config(wave.sample_rate)
        with tracer.span("stft"):
            spec = audio.stft(wave, stft_cfg)
        with tracer.span("init_state"):
            state = model.init_state(cfg.hyper(), *spec.shape)
        cpu_start = time.process_time()
        faults_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with tracer.span("optimize") as optimize_span:
            state, trace = optimizer.run(
                state, spec, workers=measure.WORKERS,
                on_subupdate=recorder.on_subupdate,
                on_iteration=recorder.on_iteration,
            )
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_start
        with tracer.span("wiener"):
            sep = separate.wiener_separate(state, spec)
        for n in range(sep.n_sources):
            with tracer.span("istft"):
                sep.waveforms.append(audio.istft(
                    sep.spectra[n], stft_cfg, wave.n_samples, sample_rate=wave.sample_rate))
        for n, wav in enumerate(sep.waveforms):
            with tracer.span("write_wav"):
                audio.write_wav(os.path.join(cfg.out, f"source_{n}.wav"), wav)
        with tracer.span("save_state"):
            model.save_state(state, os.path.join(cfg.out, "state.json"))
        if cfg.trace:
            with tracer.span("write_trace"):
                trace.write_csv(os.path.join(cfg.out, "trace.csv"))
    stats = recorder.stats(tracer, optimize_span, cpu_start)
    return state, stats, faults / len(stats.costs) if stats.costs else float("nan")


def fresh_state(scene, iterations):
    """The scene's initial state, set to run `iterations` iterations."""
    hyper = dataclasses.replace(config.parse_config(scene.run_doc).hyper(),
                                iterations=iterations)
    return model.init_state(hyper, *scene.X.shape)


def fanout_probe(scene, tracer, iterations):
    """A short run from the same start at FANOUT_WORKERS workers.

    Gives the Q phases under the frequency-block thread fan-out; its
    costs must equal the first costs of the one-worker mirror exactly.
    """
    state = fresh_state(scene, iterations)
    recorder = PhaseRecorder()
    cpu_start = time.process_time()
    with tracer.span("fanout") as span:
        optimizer.run(state, scene.X, workers=FANOUT_WORKERS,
                      on_subupdate=recorder.on_subupdate,
                      on_iteration=recorder.on_iteration)
    return recorder.stats(tracer, span, cpu_start)


def compare_outputs(cli_dir, mirror_dir, n_src):
    """Names of output files whose bytes differ between the two runs."""
    names = ["trace.csv", "state.json"] + [f"source_{n}.wav" for n in range(n_src)]
    differ = []
    for name in names:
        if name == "trace.csv":
            same = (measure.read_trace_rows(cli_dir / name)
                    == measure.read_trace_rows(mirror_dir / name))
        else:
            same = (cli_dir / name).read_bytes() == (mirror_dir / name).read_bytes()
        if not same:
            differ.append(name)
    return differ


def profile_kernels(scene, iterations):
    """einsum/solve counts and times per iteration from a cProfile pass.

    Runs at one worker: the profiler sees only the calling thread, and
    the work per iteration does not depend on the worker count.
    """
    state = fresh_state(scene, iterations)
    prof = cProfile.Profile()

    def on_iteration(report):
        if report.iteration == 1:
            prof.enable()
        elif report.iteration == iterations:
            prof.disable()

    optimizer.run(state, scene.X, workers=1, on_iteration=on_iteration)
    profiled = iterations - 1
    found = {}
    for (path, _, func), (_, calls, _, cum, _) in pstats.Stats(prof).stats.items():
        if path.endswith("einsumfunc.py") and func in ("einsum", "einsum_path"):
            key = func
        elif path.replace(os.sep, "/").endswith("sgmnmf/linalg.py") and func == "solve":
            key = "solve"
        else:
            continue
        calls0, cum0 = found.get(key, (0, 0.0))
        found[key] = (calls0 + calls, cum0 + cum)
    einsum_calls, einsum_s = found.get("einsum", (0, 0.0))
    return {
        "kernel.einsum_calls_per_iter": einsum_calls / profiled,
        "kernel.einsum_ms_per_iter": einsum_s * 1000.0 / profiled,
        "kernel.einsum_path_ms_per_iter":
            found.get("einsum_path", (0, 0.0))[1] * 1000.0 / profiled,
        "kernel.solve_calls_per_iter": found.get("solve", (0, 0.0))[0] / profiled,
    }


def traced(args, workdir, env):
    """Per-layer metrics for one workload; returns the exit code."""
    wl = measure.WORKLOADS[args.workload]
    _, tables = measure.time_fresh_imports(workdir, importtime=True)
    scene = measure.Scene(workdir, wl, args.seed, args.duration_s, args.iterations)

    seps = []
    warm = measure.run_cli_separation(scene, workdir / "warmup", measure.WARMUP_ITERATIONS)
    if warm.failures:
        seps.append(warm)
    cli_sep = measure.run_cli_separation(scene, workdir / "cli")
    if args.corrupt_output and not cli_sep.failures:
        measure.corrupt(cli_sep)
    measure.check_separation(scene, cli_sep)
    seps.append(cli_sep)

    tracer = Tracer(sep_id=1)  # the untraced CLI separation is 0
    mirror = measure.Separation(out_dir=workdir / "mirror")
    stats = None
    try:
        state, stats, faults_per_iter = mirror_separate(scene, mirror.out_dir, tracer)
        mirror.costs = stats.costs
    except Exception as exc:  # a raising separation is a counted failure
        mirror.failures.append(f"raised {type(exc).__name__}: {exc}")
    measure.check_separation(scene, mirror)
    if not mirror.failures and not cli_sep.failures:
        differ = compare_outputs(cli_sep.out_dir, mirror.out_dir, wl.channels)
        if differ:
            mirror.failures.append(f"mirror differs from cli.main in {', '.join(differ)}")
    seps.append(mirror)

    notes = {
        "env": json.dumps(env),
        "workload": f"{args.workload} seed={args.seed} M=N={wl.channels} "
                    f"algorithm={wl.algorithm} workers={measure.WORKERS} traced",
    }
    if stats is None:
        notes.update(measure.failure_notes(seps))
        return measure.emit({}, {}, len(seps), len(seps), notes)

    fan_iters = min(FANOUT_ITERATIONS, max(args.iterations, 2))
    tracer.sep_id = 2
    fan = fanout_probe(scene, tracer, fan_iters)
    if fan.costs != stats.costs[:fan_iters]:
        mirror.failures.append(f"costs at {FANOUT_WORKERS} workers differ from one worker")
    failed = sum(1 for s in seps if s.failures)
    notes["fail_rate"] = f"{failed}/{len(seps)}"
    notes.update(measure.failure_notes(seps))

    metrics, units = {}, {}

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    def put(name, value, unit):
        metrics[name] = float(value)
        units[name] = unit

    untraced_p50, untraced_p90 = (
        measure.percentile(cli_sep.iter_ms, q) if cli_sep.iter_ms else float("nan")
        for q in (50, 90))
    put("optimizer.iter_ms_p50", untraced_p50, "ms")
    put("optimizer.iter_ms_p90", untraced_p90, "ms")
    put("import.sgmnmf_ms", med([t["sgmnmf"] for t in tables]) / 1000.0, "ms")
    put("import.scipy_signal_ms",
        med([t.get("scipy.signal", 0) for t in tables]) / 1000.0, "ms")
    for name in SUBUPDATES:
        layer = "objective" if name == "cost" else "optimizer"
        put(f"{layer}.{name}_ms", med(stats.phases.get(name, [])), "ms")
    for m in range(MAX_Q_ROWS):
        put(f"optimizer.q_row_{m}_ms", med(stats.phases.get(f"q_row_{m}", [])), "ms")
    put("optimizer.minor_faults_per_iter", faults_per_iter, "count")
    put("fanout.q_ms", med(fan.q_ms), "ms")
    put("fanout.q_speedup", med(stats.q_ms) / med(fan.q_ms) if fan.q_ms else 0.0, "ratio")
    put("fanout.q_cpu_per_wall", fan.q_cpu_per_wall, "ratio")
    for span_name, metric in IO_LAYERS.items():
        put(metric, tracer.total_ms(1, span_name), "ms")
    profile_iters = min(PROFILE_ITERATIONS, max(args.iterations, 2))
    for name, value in profile_kernels(scene, profile_iters).items():
        put(name, value, "ms" if name.endswith("_ms_per_iter") else "count")
    eps = state.hyper.floor_eps
    for key, arr in zip("tvzg", (state.source.T, state.source.V, state.source.Z,
                                 state.spatial.G)):
        put(f"optimizer.floor_hits_{key}", np.count_nonzero(arr <= eps), "count")
    put("optimizer.active_bins",
        np.count_nonzero(np.abs(scene.X).max(axis=(1, 2)) > 0), "count")
    put("optimizer.descent_violations", len(measure.descent_violations(stats.costs)), "count")
    self_ms = tracer.self_ms(1)
    for name in ("separate", "optimize", "iteration"):
        put(f"self.{name}_ms", self_ms.get(name, 0.0), "ms")
    traced_p50 = measure.percentile(stats.iter_ms, 50) if stats.iter_ms else float("nan")
    put("trace.iter_ms_p50", traced_p50, "ms")
    put("trace.overhead_ms", traced_p50 - untraced_p50, "ms")
    sdr = measure.evaluate(scene, mirror.out_dir) if not mirror.failures else float("nan")
    put("quality.sdr_improvement_db", sdr, "dB")

    notes["samples"] = (f"iterations per phase median={len(stats.iter_ms)} (iteration 1 "
                        f"excluded) spans={len(tracer.spans)} "
                        f"fan-out iterations={fan_iters - 1} at {FANOUT_WORKERS} workers "
                        f"profiled iterations={profile_iters - 1}")
    span_path = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(span_path)
    notes["spans"] = str(span_path)
    return measure.emit(metrics, units, len(seps), failed, notes)
