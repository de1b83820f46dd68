"""JSON configuration documents for the three CLI workflows.

Each document is the dataclass that declares its fields: RunConfig is
model.Hyperparams plus the STFT, paths and trace settings, SceneConfig
is simulate.RoomSpec plus the scene's length, source kinds and power
balance, and EvalConfig lists the files to score.  One reader,
read_document, builds each of them, and a checkpoint's Hyperparams:
it reads every key with the reader for its field's declared type, and
a key the document leaves out takes the dataclass's own default.  It
checks only a document's shape: unknown keys, types, and finite
numbers, reported with the offending field path (e.g. "stft.hop_ms").
Defaults that depend on another field, ranges and cross-field rules
belong to the dataclass that declares the field; each raises
ConfigError from __post_init__, so a document and a library
constructor give the same message.  load_json reads a document's file.
"""

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .audio import StftConfig
from .errors import ConfigError, DimensionMismatchError, check_min
from .model import Hyperparams
from .simulate import SOURCE_KINDS, RoomSpec


def load_json(path):
    """The JSON document in file path; ConfigError naming path if its bytes do not decode.

    json.loads detects UTF-8 (with or without a byte order mark),
    UTF-16 and UTF-32.  An OSError from reading the file passes through.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(path, f"invalid JSON ({exc})") from exc


def _number(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(path, f"expected a number, got {val!r}")
    try:
        val = float(val)
    except OverflowError:  # an integer beyond the float range
        val = math.inf if val > 0 else -math.inf
    if not math.isfinite(val):  # json reads NaN and Infinity
        raise ConfigError(path, f"must be finite, got {val}")
    return val


def _integer(val, path):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(path, f"expected an integer, got {val!r}")
    return val


def _string(val, path):
    if not isinstance(val, str):
        raise ConfigError(path, f"expected a string, got {val!r}")
    return val


def _optional_string(val, path):
    return val if val is None else _string(val, path)


def _boolean(val, path):
    if not isinstance(val, bool):
        raise ConfigError(path, f"expected true/false, got {val!r}")
    return val


_READERS = {float: _number, int: _integer, str: _string, bool: _boolean}


def _entries(doc, prefix, known):
    """{key: (field path, value)} of the JSON object doc, whose keys must be in known."""
    if not isinstance(doc, dict):
        raise ConfigError(prefix[:-1] or "document", "expected an object")
    for key in doc:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    return {key: (f"{prefix}{key}", val) for key, val in doc.items()}


def read_document(cls, doc, **sections):
    """The dataclass cls built from the JSON object doc.

    Each keyword names a section of doc, an object holding the listed
    fields; an error inside one names the field path, e.g. "stft.hop_ms".
    Every key is read by the reader for its field's declared type, and a
    type without one passes through for cls to check; null is a string
    only where the field's default is None.  A field doc leaves out
    takes cls's default.
    """
    readers = {
        f.name: _optional_string if f.type is str and f.default is None else _READERS.get(f.type)
        for f in fields(cls)
    }
    nested = {name for names in sections.values() for name in names}
    entries = _entries(doc, "", readers.keys() - nested | sections.keys())
    for key, names in sections.items():
        entries.pop(key, None)
        entries.update(_entries(doc.get(key, {}), f"{key}.", names))
    values = {}
    for name, (path, val) in entries.items():
        reader = readers[name]
        values[name] = reader(val, path) if reader else val
    return cls(**values)


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


def parse_config(doc: dict) -> RunConfig:
    """Separation run document -> RunConfig."""
    return read_document(RunConfig, doc, stft=("window_ms", "hop_ms"), paths=("mixture", "out"))


@dataclass
class SceneConfig(RoomSpec):
    duration_s: float = 2.0
    source_kind: list = "am_tone"  # or one kind per source
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


def parse_scene_config(doc: dict) -> SceneConfig:
    """Scene document -> SceneConfig."""
    try:
        return read_document(SceneConfig, doc)
    except DimensionMismatchError as exc:
        raise ConfigError("direct_delay", str(exc)) from exc


@dataclass
class EvalConfig:
    estimates: list = None
    references: list = None
    mixture: str = None
    ref_channel: int = 0
    out: str = "."

    def __post_init__(self):
        for name in ("estimates", "references"):
            paths = getattr(self, name)
            if not isinstance(paths, list) or not paths or not all(
                isinstance(p, str) for p in paths
            ):
                raise ConfigError(name, "expected a non-empty list of file paths")
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
    return read_document(EvalConfig, doc)
