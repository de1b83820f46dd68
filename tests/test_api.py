"""The public API: exactly the names separation, simulation and evaluation need."""

import sgmnmf

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
    "update_q_gaussian",
    "update_q_subgaussian",
    "update_tvzg",
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
    assert len(sgmnmf.__all__) == len(PUBLIC) == 33
    assert set(sgmnmf.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in sgmnmf.__all__:
        assert getattr(sgmnmf, name) is not None, name
