"""Blind source separation with jointly-diagonalizable spatial
covariances under a multivariate complex sub-Gaussian source model."""

__version__ = "0.1.0"

from .audio import StftConfig, Waveform, istft, read_wav, stft, write_wav
from .metrics import MetricsReport, sdr_improvement, si_sdr
from .model import (
    Hyperparams,
    SeparationState,
    SourceModel,
    SpatialModel,
    compute_source_psd,
    init_state,
    load_state,
    mixture_gain,
    save_state,
)
from .objective import CostTrace, cost_ggd_jd
from .optimizer import IterationReport, normalize_and_rescale, run
from .separate import SeparatedSources, wiener_separate
from .simulate import MixtureBundle, RoomSpec, gen_subgaussian_source, mix, synth_rir

__all__ = [
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
]
