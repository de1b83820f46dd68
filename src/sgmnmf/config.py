"""JSON configuration documents for the three CLI workflows.

Each document is the dataclass that declares its fields: RunConfig is
model.Hyperparams plus the STFT, paths and trace settings, SceneConfig
is simulate.RoomSpec plus the scene's length, source kinds and power
balance, and EvalConfig lists the files to score.  A parser reads each
field with the reader for its declared type, defaulting to its declared
default; the one default a parser writes itself is the Gaussian model's
beta = 2.  The parsers check only a document's shape: unknown keys,
types, and finite numbers, reported with the offending field path (e.g.
"stft.hop_ms").  Ranges and cross-field rules belong to the dataclass
that declares the field; each raises ConfigError from __post_init__, so
a document and a library constructor give the same message.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .audio import StftConfig
from .errors import ConfigError, DimensionMismatchError, check_min
from .model import Hyperparams
from .simulate import SOURCE_KINDS, RoomSpec


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


_READERS = {float: _get_number, int: _get_int, str: _get_str, bool: _get_bool}


def _read_fields(cls, doc, names, prefix="", **defaults):
    """{name: value} of cls's fields in names, each read by its declared type.

    A field missing from doc takes defaults[name], else its declared
    default.  A declared type without a reader is a KeyError.
    """
    return {
        f.name: _READERS[f.type](doc, f.name, defaults.get(f.name, f.default), prefix)
        for f in fields(cls)
        if f.name in names
    }


def _get_section(doc, key, known):
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(key, "expected an object")
    _reject_unknown(section, known, prefix=f"{key}.")
    return section


@dataclass
class RunConfig(Hyperparams):
    window_ms: float = 64.0
    hop_ms: float = 16.0
    mixture: str = None
    out: str = None
    trace: bool = True

    def __post_init__(self):
        super().__post_init__()
        check_min(self, ("window_ms", "hop_ms"), 0, strict=True, prefix="stft.")
        if self.hop_ms > self.window_ms:
            raise ConfigError("stft.hop_ms", f"hop {self.hop_ms} exceeds window {self.window_ms}")

    def hyper(self) -> Hyperparams:
        """The Hyperparams fields alone, e.g. for init_state and state.json."""
        return Hyperparams(**{f.name: getattr(self, f.name) for f in fields(Hyperparams)})

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


# run document section -> the RunConfig fields it holds
_RUN_SECTIONS = {"stft": {"window_ms", "hop_ms"}, "paths": {"mixture", "out"}}


def parse_config(doc: dict) -> RunConfig:
    """Separation run document -> RunConfig, all fields defaulted."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    top = {f.name for f in fields(RunConfig)}.difference(*_RUN_SECTIONS.values())
    _reject_unknown(doc, top | _RUN_SECTIONS.keys())
    # the Gaussian model fixes beta = 2, so that is its default
    gaussian = {"beta": 2.0} if doc.get("algorithm") == "gaussian" else {}
    values = _read_fields(RunConfig, doc, top, **gaussian)
    for key, names in _RUN_SECTIONS.items():
        section = _get_section(doc, key, names)
        values.update(_read_fields(RunConfig, section, names, prefix=f"{key}."))
    return RunConfig(**values)


@dataclass
class SceneConfig(RoomSpec):
    duration_s: float = 2.0
    source_kind: str = "am_tone"  # or one kind per source
    snr_db: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if isinstance(self.source_kind, str):
            self.source_kind = [self.source_kind] * self.n_sources
        kinds = self.source_kind
        if not isinstance(kinds, list):
            raise ConfigError("source_kind", f"expected a kind or a list of kinds, got {kinds!r}")
        if len(kinds) != self.n_sources:
            raise ConfigError("source_kind", f"expected {self.n_sources} kinds, got {len(kinds)}")
        for idx, kind in enumerate(kinds):
            if kind not in SOURCE_KINDS:
                raise ConfigError(f"source_kind[{idx}]", f"unknown kind {kind!r}")
        check_min(self, ("duration_s",), 0, strict=True)
        # n_samples sizes arrays; dividing the bound by the rate, not multiplying,
        # cannot overflow on an integer rate beyond the float range
        if not self.duration_s < np.iinfo(np.intp).max / self.sample_rate:
            raise ConfigError(
                "duration_s",
                f"{self.duration_s} s at {self.sample_rate} Hz is more samples than an array holds",
            )
        # mix balances the sources' powers at channel 1, so every source must
        # reach it: a scene that ends before a direct path has a zero image
        arrival = int(self.direct_delay[:, 0].max())
        if self.n_samples <= arrival:
            raise ConfigError(
                "duration_s",
                f"{self.duration_s} s is {self.n_samples} samples at {self.sample_rate} Hz, "
                f"which ends before a direct path reaches channel 1 at sample {arrival}",
            )

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate))

    def to_dict(self):
        return {**asdict(self), "direct_delay": self.direct_delay.tolist()}


# scene fields that take more than one shape; SceneConfig checks them
_SCENE_RAW = ("direct_delay", "source_kind")


def parse_scene_config(doc: dict) -> SceneConfig:
    """Scene document -> SceneConfig, all fields defaulted."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level scene must be a JSON object")
    names = {f.name for f in fields(SceneConfig)}
    _reject_unknown(doc, names)
    values = _read_fields(SceneConfig, doc, names.difference(_SCENE_RAW))
    values.update((key, doc[key]) for key in _SCENE_RAW if key in doc)
    try:
        return SceneConfig(**values)
    except DimensionMismatchError as exc:
        raise ConfigError("direct_delay", str(exc)) from exc


@dataclass
class EvalConfig:
    estimates: list
    references: list
    mixture: str = None
    ref_channel: int = 0
    out: str = "."

    def __post_init__(self):
        if self.mixture is None:
            raise ConfigError("mixture", "required")
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
    return EvalConfig(
        estimates=list(doc["estimates"]),
        references=list(doc["references"]),
        **_read_fields(EvalConfig, doc, {"mixture", "ref_channel", "out"}),
    )
