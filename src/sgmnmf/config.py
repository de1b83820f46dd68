"""JSON configuration documents for the three CLI workflows.

Every parser rejects unknown keys and reports violations with the
offending field path (e.g. "stft.hop_ms").
"""

from dataclasses import dataclass

from .audio import StftConfig
from .errors import ConfigError, DimensionMismatchError
from .model import Hyperparams
from .simulate import RoomSpec


def _reject_unknown(doc, known, prefix=""):
    for key in doc:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")


def _get_number(doc, key, default, prefix="", minimum=None, strict_min=None):
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{prefix}{key}", f"expected a number, got {val!r}")
    val = float(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"{prefix}{key}", f"must be >= {minimum}, got {val}")
    if strict_min is not None and val <= strict_min:
        raise ConfigError(f"{prefix}{key}", f"must be > {strict_min}, got {val}")
    return val


def _get_int(doc, key, default, prefix="", minimum=None):
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{prefix}{key}", f"expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{prefix}{key}", f"must be >= {minimum}, got {val}")
    return val


def _get_str(doc, key, default, prefix="", choices=None):
    val = doc.get(key, default)
    if val is not None and not isinstance(val, str):
        raise ConfigError(f"{prefix}{key}", f"expected a string, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{prefix}{key}", f"must be one of {sorted(choices)}, got {val!r}")
    return val


def _get_bool(doc, key, default, prefix=""):
    val = doc.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{prefix}{key}", f"expected true/false, got {val!r}")
    return val


@dataclass
class RunConfig:
    algorithm: str = "subgaussian"
    beta: float = 4.0
    n_sources: int = 2
    n_bases: int = 20
    iterations: int = 200
    seed: int = 0
    window_ms: float = 64.0
    hop_ms: float = 16.0
    floor_eps: float = 1e-12
    mixture: str = None
    out: str = None
    trace: bool = True

    def hyper(self) -> Hyperparams:
        return Hyperparams(
            beta=self.beta,
            n_sources=self.n_sources,
            n_bases=self.n_bases,
            iterations=self.iterations,
            floor_eps=self.floor_eps,
            seed=self.seed,
            algorithm=self.algorithm,
        )

    def stft_config(self, sample_rate: int) -> StftConfig:
        return StftConfig.from_ms(self.window_ms, self.hop_ms, sample_rate)


def parse_config(doc: dict) -> RunConfig:
    """Separation run document -> RunConfig, all fields defaulted."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    _reject_unknown(
        doc,
        {
            "algorithm",
            "beta",
            "n_sources",
            "n_bases",
            "iterations",
            "seed",
            "stft",
            "floor_eps",
            "paths",
            "trace",
        },
    )
    algorithm = _get_str(
        doc, "algorithm", "subgaussian", choices={"subgaussian", "gaussian"}
    )
    default_beta = 2.0 if algorithm == "gaussian" else 4.0
    beta = _get_number(doc, "beta", default_beta)
    try:
        Hyperparams(algorithm=algorithm, beta=beta)
    except ValueError as exc:
        raise ConfigError("beta", str(exc)) from exc

    stft_doc = doc.get("stft", {})
    if not isinstance(stft_doc, dict):
        raise ConfigError("stft", "expected an object")
    _reject_unknown(stft_doc, {"window_ms", "hop_ms"}, prefix="stft.")
    window_ms = _get_number(stft_doc, "window_ms", 64.0, prefix="stft.", strict_min=0.0)
    hop_ms = _get_number(stft_doc, "hop_ms", 16.0, prefix="stft.", strict_min=0.0)
    if hop_ms > window_ms:
        raise ConfigError("stft.hop_ms", f"hop {hop_ms} exceeds window {window_ms}")

    paths_doc = doc.get("paths", {})
    if not isinstance(paths_doc, dict):
        raise ConfigError("paths", "expected an object")
    _reject_unknown(paths_doc, {"mixture", "out"}, prefix="paths.")

    return RunConfig(
        algorithm=algorithm,
        beta=beta,
        n_sources=_get_int(doc, "n_sources", 2, minimum=1),
        n_bases=_get_int(doc, "n_bases", 20, minimum=1),
        iterations=_get_int(doc, "iterations", 200, minimum=0),
        seed=_get_int(doc, "seed", 0),
        window_ms=window_ms,
        hop_ms=hop_ms,
        floor_eps=_get_number(doc, "floor_eps", 1e-12, strict_min=0.0),
        mixture=_get_str(paths_doc, "mixture", None, prefix="paths."),
        out=_get_str(paths_doc, "out", None, prefix="paths."),
        trace=_get_bool(doc, "trace", True),
    )


@dataclass
class SceneConfig:
    room: RoomSpec
    duration_s: float
    source_kinds: list
    snr_db: float

    def to_dict(self):
        return {
            "n_sources": self.room.n_sources,
            "n_mics": self.room.n_mics,
            "rt60": self.room.rt60,
            "direct_delay": self.room.direct_delay.tolist(),
            "filter_length": self.room.filter_length,
            "seed": self.room.seed,
            "sample_rate": self.room.sample_rate,
            "tail_gain": self.room.tail_gain,
            "duration_s": self.duration_s,
            "source_kind": list(self.source_kinds),
            "snr_db": self.snr_db,
        }


def parse_scene_config(doc: dict) -> SceneConfig:
    """Scene document -> RoomSpec plus source/duration settings."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level scene must be a JSON object")
    _reject_unknown(
        doc,
        {
            "n_sources",
            "n_mics",
            "rt60",
            "direct_delay",
            "filter_length",
            "seed",
            "sample_rate",
            "tail_gain",
            "duration_s",
            "source_kind",
            "snr_db",
        },
    )
    n_sources = _get_int(doc, "n_sources", 2, minimum=1)
    delays = doc.get("direct_delay")
    try:
        room = RoomSpec(
            n_sources=n_sources,
            n_mics=_get_int(doc, "n_mics", 2, minimum=1),
            rt60=_get_number(doc, "rt60", 0.3, minimum=0.0),
            direct_delay=delays,
            filter_length=_get_int(doc, "filter_length", 4800, minimum=1),
            seed=_get_int(doc, "seed", 0),
            sample_rate=_get_int(doc, "sample_rate", 16000, minimum=1),
            tail_gain=_get_number(doc, "tail_gain", 0.05, minimum=0.0),
        )
    except (ValueError, TypeError, DimensionMismatchError) as exc:
        raise ConfigError("direct_delay", str(exc)) from exc

    kinds = doc.get("source_kind", "am_tone")
    if isinstance(kinds, str):
        kinds = [kinds] * n_sources
    if not isinstance(kinds, list) or len(kinds) != n_sources:
        raise ConfigError(
            "source_kind", f"expected a kind or a list of {n_sources} kinds"
        )
    for idx, kind in enumerate(kinds):
        if kind not in ("uniform_iid", "am_tone"):
            raise ConfigError(f"source_kind[{idx}]", f"unknown kind {kind!r}")

    return SceneConfig(
        room=room,
        duration_s=_get_number(doc, "duration_s", 2.0, strict_min=0.0),
        source_kinds=kinds,
        snr_db=_get_number(doc, "snr_db", 0.0),
    )


@dataclass
class EvalConfig:
    estimates: list
    references: list
    mixture: str
    ref_channel: int
    out: str


def parse_eval_config(doc: dict) -> EvalConfig:
    """Evaluation document -> file lists plus the scoring channel."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level eval config must be a JSON object")
    _reject_unknown(
        doc, {"estimates", "references", "mixture", "ref_channel", "out"}
    )
    for key in ("estimates", "references"):
        val = doc.get(key)
        if not isinstance(val, list) or not val or not all(
            isinstance(p, str) for p in val
        ):
            raise ConfigError(key, "expected a non-empty list of file paths")
    if len(doc["estimates"]) != len(doc["references"]):
        raise ConfigError(
            "references",
            f"{len(doc['references'])} references vs {len(doc['estimates'])} estimates",
        )
    mixture = _get_str(doc, "mixture", None)
    if mixture is None:
        raise ConfigError("mixture", "required")
    return EvalConfig(
        estimates=list(doc["estimates"]),
        references=list(doc["references"]),
        mixture=mixture,
        ref_channel=_get_int(doc, "ref_channel", 0, minimum=0),
        out=_get_str(doc, "out", "."),
    )
