"""Command-line entry point: simulate / separate / evaluate.

Worker count resolution: SGMNMF_WORKERS (if set) beats --workers beats
the default of 1.  Single-worker runs are bit-reproducible.
"""

import argparse
import json
import os
import sys

from . import audio, config, metrics, model, optimizer, separate, simulate
from .errors import DimensionMismatchError, SgmnmfError


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SgmnmfError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SgmnmfError(f"{path}: invalid JSON ({exc})") from exc


def _resolve_workers(flag_value):
    env = os.environ.get("SGMNMF_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise SgmnmfError(f"SGMNMF_WORKERS: expected an integer, got {env!r}")
    elif flag_value is not None:
        workers = flag_value
    else:
        workers = 1
    if workers < 1:
        raise SgmnmfError(f"worker count must be >= 1, got {workers}")
    return workers


def cmd_simulate(spec_path, out_dir):
    scene = config.parse_scene_config(_load_json(spec_path))
    room = scene.room
    os.makedirs(out_dir, exist_ok=True)
    length = int(round(scene.duration_s * room.sample_rate))
    dries = []
    source_seeds = []
    for n in range(room.n_sources):
        seed = [room.seed, 7001 + n]
        source_seeds.append(seed)
        dries.append(
            simulate.gen_subgaussian_source(
                length, scene.source_kinds[n], seed, sample_rate=room.sample_rate
            )
        )
    rirs = simulate.synth_rir(room)
    bundle = simulate.mix(dries, rirs, snr_db=scene.snr_db)

    audio.write_wav(os.path.join(out_dir, "mixture.wav"), bundle.mixture)
    for n in range(room.n_sources):
        audio.write_wav(os.path.join(out_dir, f"image_{n}.wav"), bundle.images[n])
        audio.write_wav(os.path.join(out_dir, f"dry_{n}.wav"), bundle.dries[n])
    doc = scene.to_dict()
    doc["derived_seeds"] = {"sources": source_seeds, "rir_root": room.seed}
    with open(os.path.join(out_dir, "scene.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def cmd_separate(cfg: config.RunConfig, workers: int = 1):
    if cfg.mixture is None:
        raise SgmnmfError("paths.mixture: required for separate")
    wave = audio.read_wav(cfg.mixture)
    if wave.n_channels < 2:
        raise DimensionMismatchError(
            f"{cfg.mixture}: separation needs >= 2 channels, got {wave.n_channels}"
        )
    # a rejected mixture leaves no directory; an unwritable one fails before the run
    out_dir = cfg.out if cfg.out is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    stft_cfg = cfg.stft_config(wave.sample_rate)
    spec = audio.stft(wave, stft_cfg)
    n_bins, n_frames, n_ch = spec.shape

    state = model.init_state(cfg.hyper(), n_bins, n_frames, n_ch)
    state, trace = optimizer.run(state, spec, workers=workers)

    sep = separate.wiener_separate(state, spec)
    separate.to_waveforms(sep, stft_cfg, wave.n_samples, sample_rate=wave.sample_rate)
    separate.write_sources(sep, out_dir)
    model.save_state(state, os.path.join(out_dir, "state.json"))
    if cfg.trace:
        trace.write_csv(os.path.join(out_dir, "trace.csv"))
    return 0


def cmd_evaluate(cfg: config.EvalConfig):
    estimates = [audio.read_wav(p) for p in cfg.estimates]
    references = [audio.read_wav(p) for p in cfg.references]
    mixture = audio.read_wav(cfg.mixture)
    for wav, path in zip(estimates + references + [mixture],
                         cfg.estimates + cfg.references + [cfg.mixture]):
        if cfg.ref_channel >= wav.n_channels:
            raise DimensionMismatchError(
                f"{path}: has {wav.n_channels} channels, ref_channel={cfg.ref_channel}"
            )
    report = metrics.sdr_improvement(
        estimates, references, mixture, ref_channel=cfg.ref_channel
    )
    os.makedirs(cfg.out, exist_ok=True)
    report.save(os.path.join(cfg.out, "metrics.json"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgmnmf",
        description="Blind source separation with jointly-diagonalizable "
        "spatial covariances under a sub-Gaussian source model.",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="frequency-axis worker count (SGMNMF_WORKERS overrides; default 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a synthetic scene")
    p_sim.add_argument("--spec", required=True, help="scene JSON document")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_sep = sub.add_parser("separate", help="separate a mixture WAV")
    p_sep.add_argument("--config", required=True, help="run JSON document")

    p_eval = sub.add_parser("evaluate", help="score estimates against references")
    p_eval.add_argument("--config", required=True, help="eval JSON document")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.spec, args.out)
        if args.command == "separate":
            workers = _resolve_workers(args.workers)
            cfg = config.parse_config(_load_json(args.config))
            return cmd_separate(cfg, workers=workers)
        if args.command == "evaluate":
            cfg = config.parse_eval_config(_load_json(args.config))
            return cmd_evaluate(cfg)
        parser.error(f"unknown command {args.command!r}")
    except SgmnmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
