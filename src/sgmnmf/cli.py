"""Command-line entry point: simulate / separate / evaluate.

--workers is accepted for compatibility (a value below 1 is still an
error) and ignored: the optimizer runs on one thread.  A rejected input
leaves no output directory behind, and running out of memory is an
error line like any other.  `evaluate` requires every file to have the
first reference's sample rate and length.  `separate` keeps the mixture's
samples only while it checks and transforms them, and handles one
source at a time after the Wiener filter: each source's image is
synthesized and written before the next.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import audio, config, linalg, metrics, model, optimizer, separate, simulate
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    SgmnmfError,
    SingularMatrixError,
)


def cmd_simulate(spec_path, out_dir):
    scene = config.parse_scene_config(config.load_json(spec_path))
    dries = []
    source_seeds = []
    for n in range(scene.n_sources):
        seed = [scene.seed, 7001 + n]
        source_seeds.append(seed)
        dries.append(
            simulate.gen_subgaussian_source(
                scene.n_samples, scene.source_kind[n], seed, sample_rate=scene.sample_rate
            )
        )
    rirs = simulate.synth_rir(scene)
    bundle = simulate.mix(dries, rirs, snr_db=scene.snr_db)
    os.makedirs(out_dir, exist_ok=True)
    audio.write_wav(os.path.join(out_dir, "mixture.wav"), bundle.mixture)
    for n in range(scene.n_sources):
        audio.write_wav(os.path.join(out_dir, f"image_{n}.wav"), bundle.images[n])
        audio.write_wav(os.path.join(out_dir, f"dry_{n}.wav"), bundle.dries[n])
    doc = scene.to_dict()
    doc["derived_seeds"] = {"sources": source_seeds, "rir_root": scene.seed}
    with open(os.path.join(out_dir, "scene.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _require_independent_channels(path, spec):
    """SingularMatrixError if the channels are linearly dependent in every bin with energy.

    The test is linalg's singularity check on each bin's frame covariance
    sum_j x_ij x_ij^H.  A few rank-deficient bins leave the spatial model
    enough to work with, so only all of them are an error.
    """
    live = np.abs(spec).max(axis=(1, 2)) > 0
    cov = spec.transpose(0, 2, 1) @ spec.conj()
    if linalg.singular_mask(cov)[live].all():
        raise SingularMatrixError(
            f"{path}: the channels are linearly dependent in every frequency bin"
        )


def _read_mixture(cfg: config.RunConfig):
    """(spec, stft_cfg, n_samples, sample_rate) of the checked mixture.

    Every input check runs here, before any output exists.  The
    time-domain samples are freed on return, so they are not alive
    beside the optimizer's working set.
    """
    if cfg.mixture is None:
        raise SgmnmfError("paths.mixture: required for separate")
    wave = audio.read_wav(cfg.mixture)
    if wave.n_channels < 2:
        raise DimensionMismatchError(
            f"{cfg.mixture}: separation needs >= 2 channels, got {wave.n_channels}"
        )
    live = wave.data.any(axis=0)
    if not live.any():
        raise EmptyInputError(f"{cfg.mixture}: the mixture has no nonzero sample")
    if not live.all():
        raise EmptyInputError(f"{cfg.mixture}: channel {live.argmin()} has no nonzero sample")
    stft_cfg = cfg.stft_config(wave.sample_rate)
    if stft_cfg.window_length > wave.n_samples:
        raise ConfigError(
            "stft.window_ms",
            f"{cfg.window_ms} ms is {stft_cfg.window_length} samples, longer than the "
            f"{wave.n_samples}-sample mixture",
        )
    spec = audio.stft(wave, stft_cfg)
    _require_independent_channels(cfg.mixture, spec)
    return spec, stft_cfg, wave.n_samples, wave.sample_rate


def cmd_separate(cfg: config.RunConfig):
    spec, stft_cfg, n_samples, sample_rate = _read_mixture(cfg)
    state = model.init_state(cfg.hyper(), *spec.shape)
    # a rejected input leaves no directory; an unwritable one fails before the run
    out_dir = cfg.out if cfg.out is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    state, trace = optimizer.run(state, spec)

    # one source at a time: each waveform is written before the next is synthesized
    for n, image in enumerate(separate.wiener_separate(state, spec).spectra):
        audio.write_wav(
            os.path.join(out_dir, f"source_{n}.wav"),
            audio.istft(image, stft_cfg, n_samples, sample_rate=sample_rate),
        )
    del image  # a view of the last source keeps every source's spectrum alive
    model.save_state(state, os.path.join(out_dir, "state.json"))
    if cfg.trace:
        trace.write_csv(os.path.join(out_dir, "trace.csv"))
    return 0


def cmd_evaluate(cfg: config.EvalConfig):
    estimates = [audio.read_wav(p) for p in cfg.estimates]
    references = [audio.read_wav(p) for p in cfg.references]
    mixture = audio.read_wav(cfg.mixture)
    first, first_path = references[0], cfg.references[0]
    for wav, path in zip(estimates + references + [mixture],
                         cfg.estimates + cfg.references + [cfg.mixture]):
        if cfg.ref_channel >= wav.n_channels:
            raise DimensionMismatchError(
                f"{path}: has {wav.n_channels} channels, ref_channel={cfg.ref_channel}"
            )
        for what, have, want in (("sample rate", wav.sample_rate, first.sample_rate),
                                 ("length", wav.n_samples, first.n_samples)):
            if have != want:
                raise DimensionMismatchError(
                    f"{path}: {what} {have} != {what} {want} of {first_path}"
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
        default=1,
        help="accepted for compatibility and ignored; the optimizer runs on one thread",
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
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.spec, args.out)
        if args.command == "separate":
            if args.workers < 1:
                raise SgmnmfError(f"--workers: must be >= 1, got {args.workers}")
            return cmd_separate(config.parse_config(config.load_json(args.config)))
        return cmd_evaluate(config.parse_eval_config(config.load_json(args.config)))
    except (SgmnmfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
