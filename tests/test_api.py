"""The public API: exactly the names separation, simulation and evaluation need."""

import dataclasses
import inspect

import sgmnmf
from sgmnmf import audio, cli, config, model, optimizer, separate

PUBLIC = {
    "StftConfig",
    "Waveform",
    "istft",
    "read_wav",
    "stft",
    "write_wav",
    "MetricsReport",
    "sdr_improvement",
    "si_sdr",
    "Hyperparams",
    "SeparationState",
    "SourceModel",
    "SpatialModel",
    "compute_source_psd",
    "init_state",
    "load_state",
    "mixture_gain",
    "save_state",
    "CostTrace",
    "cost_ggd_jd",
    "IterationReport",
    "normalize_and_rescale",
    "run",
    "SeparatedSources",
    "wiener_separate",
    "MixtureBundle",
    "RoomSpec",
    "gen_subgaussian_source",
    "mix",
    "synth_rir",
}


def test_all_is_the_public_api():
    # test oracles live in tests/oracles.py, not in the package
    assert len(sgmnmf.__all__) == len(PUBLIC) == 30
    assert set(sgmnmf.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in sgmnmf.__all__:
        assert getattr(sgmnmf, name) is not None, name


def test_benchmark_contract():
    # what perfbench/ calls of the package; a change here breaks the benchmark
    args = cli.build_parser().parse_args(["--workers", "1", "separate", "--config", "x"])
    assert (args.workers, args.command, args.config) == (1, "separate", "x")
    params = inspect.signature(optimizer.run).parameters
    assert {"workers", "on_subupdate", "on_iteration"} <= set(params)
    cfg = config.parse_config({"paths": {"mixture": "m.wav", "out": "o"}})
    assert (cfg.mixture, cfg.out, cfg.trace) == ("m.wav", "o", True)
    assert isinstance(cfg.stft_config(16000), audio.StftConfig)
    assert isinstance(cfg.hyper(), model.Hyperparams)
    assert dataclasses.replace(cfg.hyper(), iterations=3).iterations == 3
    fields = set(optimizer.IterationReport.__dataclass_fields__)
    assert {"iteration", "cost_before", "cost_after"} <= fields
    assert separate.SeparatedSources(spectra=[]).waveforms == []
