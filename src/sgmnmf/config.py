"""JSON configuration documents for the three CLI workflows.

The parsers check only a document's shape: unknown keys, types, and
finite numbers, reported with the offending field path (e.g.
"stft.hop_ms").  Ranges and cross-field rules belong to the dataclass
that declares the field (model.Hyperparams, simulate.RoomSpec and the
configs below); each raises ConfigError from __post_init__, so a
document and a library constructor give the same message.  Field names
and defaults come from those dataclasses too; the literals below are
the defaults no dataclass owns (the Gaussian's beta, stft, trace, the
scene's duration_s, source_kind and snr_db, and the eval document's).
"""

import math
from dataclasses import asdict, dataclass, fields

from .audio import StftConfig
from .errors import ConfigError, DimensionMismatchError, check_min
from .model import Hyperparams
from .simulate import SOURCE_KINDS, RoomSpec


# field name -> declared default
_HYPER = {f.name: f.default for f in fields(Hyperparams)}
_ROOM = {f.name: f.default for f in fields(RoomSpec)}


def _reject_unknown(doc, known, prefix=""):
    for key in doc:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")


def _get_number(doc, key, default, prefix=""):
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{prefix}{key}", f"expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:  # an integer beyond the float range
        val = math.inf if val > 0 else -math.inf
    if not math.isfinite(val):  # json reads NaN and Infinity
        raise ConfigError(f"{prefix}{key}", f"must be finite, got {val}")
    return val


def _get_int(doc, key, default, prefix=""):
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{prefix}{key}", f"expected an integer, got {val!r}")
    return val


def _get_str(doc, key, default, prefix=""):
    val = doc.get(key, default)
    if val is not None and not isinstance(val, str):
        raise ConfigError(f"{prefix}{key}", f"expected a string, got {val!r}")
    return val


def _get_bool(doc, key, default, prefix=""):
    val = doc.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{prefix}{key}", f"expected true/false, got {val!r}")
    return val


def _get_section(doc, key, known):
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(key, "expected an object")
    _reject_unknown(section, known, prefix=f"{key}.")
    return section


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

    def __post_init__(self):
        self.hyper()  # Hyperparams checks its seven fields
        check_min(self, ("window_ms", "hop_ms"), 0, strict=True, prefix="stft.")
        if self.hop_ms > self.window_ms:
            raise ConfigError("stft.hop_ms", f"hop {self.hop_ms} exceeds window {self.window_ms}")

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
    stft_doc = _get_section(doc, "stft", {"window_ms", "hop_ms"})
    paths_doc = _get_section(doc, "paths", {"mixture", "out"})
    algorithm = _get_str(doc, "algorithm", _HYPER["algorithm"])
    return RunConfig(
        algorithm=algorithm,
        beta=_get_number(doc, "beta", 2.0 if algorithm == "gaussian" else _HYPER["beta"]),
        n_sources=_get_int(doc, "n_sources", _HYPER["n_sources"]),
        n_bases=_get_int(doc, "n_bases", _HYPER["n_bases"]),
        iterations=_get_int(doc, "iterations", _HYPER["iterations"]),
        seed=_get_int(doc, "seed", _HYPER["seed"]),
        window_ms=_get_number(stft_doc, "window_ms", 64.0, prefix="stft."),
        hop_ms=_get_number(stft_doc, "hop_ms", 16.0, prefix="stft."),
        floor_eps=_get_number(doc, "floor_eps", _HYPER["floor_eps"]),
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

    def __post_init__(self):
        n_sources = self.room.n_sources
        if len(self.source_kinds) != n_sources:
            raise ConfigError(
                "source_kind", f"expected {n_sources} kinds, got {len(self.source_kinds)}"
            )
        for idx, kind in enumerate(self.source_kinds):
            if kind not in SOURCE_KINDS:
                raise ConfigError(f"source_kind[{idx}]", f"unknown kind {kind!r}")
        check_min(self, ("duration_s",), 0, strict=True)
        # mix balances the sources' powers at channel 1, so every source must
        # reach it: a scene that ends before a direct path has a zero image
        arrival = int(self.room.direct_delay[:, 0].max())
        if self.n_samples <= arrival:
            raise ConfigError(
                "duration_s",
                f"{self.duration_s} s is {self.n_samples} samples at {self.room.sample_rate} Hz, "
                f"which ends before a direct path reaches channel 1 at sample {arrival}",
            )

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
    try:
        room = RoomSpec(
            n_sources=_get_int(doc, "n_sources", _ROOM["n_sources"]),
            n_mics=_get_int(doc, "n_mics", _ROOM["n_mics"]),
            rt60=_get_number(doc, "rt60", _ROOM["rt60"]),
            direct_delay=doc.get("direct_delay", _ROOM["direct_delay"]),
            filter_length=_get_int(doc, "filter_length", _ROOM["filter_length"]),
            seed=_get_int(doc, "seed", _ROOM["seed"]),
            sample_rate=_get_int(doc, "sample_rate", _ROOM["sample_rate"]),
            tail_gain=_get_number(doc, "tail_gain", _ROOM["tail_gain"]),
        )
    except DimensionMismatchError as exc:
        raise ConfigError("direct_delay", str(exc)) from exc
    kinds = doc.get("source_kind", "am_tone")
    if isinstance(kinds, str):
        kinds = [kinds] * room.n_sources
    if not isinstance(kinds, list):
        raise ConfigError("source_kind", f"expected a kind or a list of kinds, got {kinds!r}")
    return SceneConfig(
        room=room,
        duration_s=_get_number(doc, "duration_s", 2.0),
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

    def __post_init__(self):
        if len(self.estimates) != len(self.references):
            raise ConfigError(
                "references",
                f"{len(self.references)} references vs {len(self.estimates)} estimates",
            )
        check_min(self, ("ref_channel",), 0)


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
    mixture = _get_str(doc, "mixture", None)
    if mixture is None:
        raise ConfigError("mixture", "required")
    return EvalConfig(
        estimates=list(doc["estimates"]),
        references=list(doc["references"]),
        mixture=mixture,
        ref_channel=_get_int(doc, "ref_channel", 0),
        out=_get_str(doc, "out", "."),
    )
