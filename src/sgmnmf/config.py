"""JSON configuration documents for the three CLI workflows.

Every parser rejects unknown keys and reports violations with the
offending field path (e.g. "stft.hop_ms"); numbers must be finite.
Field names and defaults come from the dataclasses that own them,
model.Hyperparams and simulate.RoomSpec; the literals below are the
defaults no dataclass owns (the Gaussian's beta, stft, trace, the
scene's duration_s, source_kind and snr_db, and the eval document's).
"""

import math
from dataclasses import asdict, dataclass, fields

from .audio import StftConfig
from .errors import ConfigError, DimensionMismatchError
from .model import Hyperparams
from .simulate import SOURCE_KINDS, RoomSpec


# field name -> declared default
_HYPER = {f.name: f.default for f in fields(Hyperparams)}
_ROOM = {f.name: f.default for f in fields(RoomSpec)}


def _reject_unknown(doc, known, prefix=""):
    for key in doc:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")


def _get_number(doc, key, default, prefix="", minimum=None, strict_min=None):
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{prefix}{key}", f"expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:  # an integer beyond the float range
        val = math.inf if val > 0 else -math.inf
    if not math.isfinite(val):  # json reads NaN and Infinity
        raise ConfigError(f"{prefix}{key}", f"must be finite, got {val}")
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
    algorithm: str
    beta: float
    n_sources: int
    n_bases: int
    iterations: int
    seed: int
    window_ms: float
    hop_ms: float
    floor_eps: float
    mixture: str
    out: str
    trace: bool

    def hyper(self) -> Hyperparams:
        return Hyperparams(**{name: getattr(self, name) for name in _HYPER})

    def stft_config(self, sample_rate: int) -> StftConfig:
        for name in ("window_ms", "hop_ms"):
            ms = getattr(self, name)
            if not math.isfinite(ms * sample_rate / 1000.0):
                raise ConfigError(
                    f"stft.{name}", f"{ms} ms overflows a sample count at {sample_rate} Hz"
                )
        # hop_ms <= window_ms, so a hop of one sample or more keeps the window >= the hop
        if int(round(self.hop_ms * sample_rate / 1000.0)) == 0:
            raise ConfigError("stft.hop_ms", f"{self.hop_ms} ms is 0 samples at {sample_rate} Hz")
        return StftConfig.from_ms(self.window_ms, self.hop_ms, sample_rate)


def parse_config(doc: dict) -> RunConfig:
    """Separation run document -> RunConfig, all fields defaulted."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    _reject_unknown(doc, _HYPER.keys() | {"stft", "paths", "trace"})
    algorithm = _get_str(
        doc, "algorithm", _HYPER["algorithm"], choices={"subgaussian", "gaussian"}
    )
    default_beta = 2.0 if algorithm == "gaussian" else _HYPER["beta"]
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
        n_sources=_get_int(doc, "n_sources", _HYPER["n_sources"], minimum=1),
        n_bases=_get_int(doc, "n_bases", _HYPER["n_bases"], minimum=1),
        iterations=_get_int(doc, "iterations", _HYPER["iterations"], minimum=0),
        seed=_get_int(doc, "seed", _HYPER["seed"], minimum=0),
        window_ms=window_ms,
        hop_ms=hop_ms,
        floor_eps=_get_number(doc, "floor_eps", _HYPER["floor_eps"], strict_min=0.0),
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

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.room.sample_rate))

    def to_dict(self):
        doc = asdict(self.room)
        doc["direct_delay"] = self.room.direct_delay.tolist()
        doc["duration_s"] = self.duration_s
        doc["source_kind"] = list(self.source_kinds)
        doc["snr_db"] = self.snr_db
        return doc


def parse_scene_config(doc: dict) -> SceneConfig:
    """Scene document -> RoomSpec plus source/duration settings."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level scene must be a JSON object")
    _reject_unknown(doc, _ROOM.keys() | {"duration_s", "source_kind", "snr_db"})
    n_sources = _get_int(doc, "n_sources", _ROOM["n_sources"], minimum=1)
    try:
        room = RoomSpec(
            n_sources=n_sources,
            n_mics=_get_int(doc, "n_mics", _ROOM["n_mics"], minimum=1),
            rt60=_get_number(doc, "rt60", _ROOM["rt60"], minimum=0.0),
            direct_delay=doc.get("direct_delay", _ROOM["direct_delay"]),
            filter_length=_get_int(doc, "filter_length", _ROOM["filter_length"], minimum=1),
            seed=_get_int(doc, "seed", _ROOM["seed"], minimum=0),
            sample_rate=_get_int(doc, "sample_rate", _ROOM["sample_rate"], minimum=1),
            tail_gain=_get_number(doc, "tail_gain", _ROOM["tail_gain"], minimum=0.0),
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
        if kind not in SOURCE_KINDS:
            raise ConfigError(f"source_kind[{idx}]", f"unknown kind {kind!r}")

    scene = SceneConfig(
        room=room,
        duration_s=_get_number(doc, "duration_s", 2.0, strict_min=0.0),
        source_kinds=kinds,
        snr_db=_get_number(doc, "snr_db", 0.0),
    )
    # mix balances the sources' powers at channel 1, so every source must
    # reach it: a scene that ends before a direct path has a zero image
    arrival = int(room.direct_delay[:, 0].max())
    if scene.n_samples <= arrival:
        raise ConfigError(
            "duration_s",
            f"{scene.duration_s} s is {scene.n_samples} samples at {room.sample_rate} Hz, "
            f"which ends before a direct path reaches channel 1 at sample {arrival}",
        )
    return scene


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
    _reject_unknown(doc, {f.name for f in fields(EvalConfig)})
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
