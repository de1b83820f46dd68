"""Time-domain audio container, STFT analysis/synthesis, and WAV file I/O.

Spectrograms are complex arrays of shape (I, J, M): frequency bin,
time frame, channel.  Analysis is one-sided with fft_length equal to
the window length; the signal is zero-padded by (window - hop) samples
on both edges so every input sample is covered, and synthesis divides
by the summed squared analysis window, which makes the round trip exact
to rounding even at the edges.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptHeaderError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteError,
    UnsupportedFormatError,
)


@dataclass
class Waveform:
    """Multichannel audio: data has shape (n_samples, n_channels), float64."""

    sample_rate: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim == 1:
            self.data = self.data[:, None]
        if self.data.ndim != 2:
            raise DimensionMismatchError(f"waveform data must be 2-D, got {self.data.ndim}-D")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def n_samples(self):
        return self.data.shape[0]

    @property
    def n_channels(self):
        return self.data.shape[1]

    def channel(self, m):
        return self.data[:, m]


@dataclass
class StftConfig:
    window_length: int = 1024
    hop: int = 256

    # fft_length is tied to window_length (one-sided transform)
    def __post_init__(self):
        if not (0 < self.hop <= self.window_length):
            raise ValueError(f"need 0 < hop <= window_length, got hop={self.hop}")

    @property
    def fft_length(self):
        return self.window_length

    @property
    def n_bins(self):
        return self.fft_length // 2 + 1

    def window(self):
        return np.hamming(self.window_length)

    @classmethod
    def from_ms(cls, window_ms, hop_ms, sample_rate):
        return cls(
            window_length=int(round(window_ms * sample_rate / 1000.0)),
            hop=int(round(hop_ms * sample_rate / 1000.0)),
        )


def _overlap_add(frames, hop):
    """(J, W) frames added hop apart into one signal of (J - 1) * hop + W samples.

    Each frame is cut into parts of hop samples, and part p of every
    frame is added in one strided pass; the passes run last part first,
    so each sample sums its frames in frame order, as a per-frame loop does.
    """
    n_frames, width = frames.shape
    parts = -(-width // hop)
    out = np.zeros((n_frames + parts - 1) * hop)
    blocks = out.reshape(-1, hop)
    for p in reversed(range(parts)):
        part = frames[:, p * hop : (p + 1) * hop]
        blocks[p : p + n_frames, : part.shape[1]] += part
    return out[: (n_frames - 1) * hop + width]


def stft(wave: Waveform, cfg: StftConfig) -> np.ndarray:
    """Analysis transform; returns complex array (I, J, M)."""
    if wave.n_samples == 0:
        raise EmptyInputError("cannot transform an empty waveform")
    win = cfg.window()
    length, n_ch = wave.data.shape
    edge = cfg.window_length - cfg.hop
    n_frames = -(-(length + edge) // cfg.hop)
    total = (n_frames - 1) * cfg.hop + cfg.window_length
    out = np.empty((cfg.n_bins, n_frames, n_ch), dtype=np.complex128)
    for m in range(n_ch):
        padded = np.zeros(total)
        padded[edge : edge + length] = wave.data[:, m]
        frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.window_length)[:: cfg.hop]
        out[:, :, m] = np.fft.rfft(frames * win, axis=1).T
    return out


def istft(spec: np.ndarray, cfg: StftConfig, length: int, sample_rate: int = 16000) -> Waveform:
    """Weighted overlap-add synthesis back to a (length, M) waveform."""
    spec = np.asarray(spec)
    if spec.ndim != 3 or spec.shape[0] != cfg.n_bins:
        raise DimensionMismatchError(
            f"spectrogram shape {spec.shape} incompatible with {cfg.n_bins} bins"
        )
    n_bins, n_frames, n_ch = spec.shape
    win = cfg.window()
    edge = cfg.window_length - cfg.hop
    total = (n_frames - 1) * cfg.hop + cfg.window_length
    if edge + length > total:
        raise DimensionMismatchError(
            f"requested {length} samples but frames only cover {total - edge}"
        )
    # per-sample normalization by the summed squared analysis window
    denom = _overlap_add(np.broadcast_to(win * win, (n_frames, cfg.window_length)), cfg.hop)
    covered = denom > 0
    out = np.zeros((length, n_ch))
    for m in range(n_ch):
        frames = np.fft.irfft(spec[:, :, m].T, n=cfg.fft_length, axis=1)
        frames *= win
        buf = _overlap_add(frames, cfg.hop)
        buf[covered] /= denom[covered]
        out[:, m] = buf[edge : edge + length]
    return Waveform(sample_rate, out)


# ---------------------------------------------------------------------------
# RIFF/WAVE (PCM16 and IEEE float32, little-endian)

_FMT_PCM = 1
_FMT_FLOAT = 3
# (format tag, bits per sample) -> (sample dtype, full scale)
_SAMPLE_TYPES = {(_FMT_PCM, 16): ("<i2", 32768.0), (_FMT_FLOAT, 32): ("<f4", 1.0)}


def read_wav(path) -> Waveform:
    """Read a PCM16 or float32 WAV file; samples scaled to [-1, 1) for PCM16.

    A NaN or Inf sample raises NonFiniteError naming its channel and
    sample index; a zero sample rate or a data chunk that ends inside a
    sample raises CorruptHeaderError.  A partial trailing frame (fewer
    samples than channels) is dropped.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise CorruptHeaderError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise CorruptHeaderError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise CorruptHeaderError(f"{path}: missing fmt or data chunk")
    audio_format, n_ch, sample_rate, _, _, bits = fmt
    if n_ch < 1:
        raise CorruptHeaderError(f"{path}: channel count {n_ch}")
    if sample_rate < 1:
        raise CorruptHeaderError(f"{path}: sample rate {sample_rate}")
    if (audio_format, bits) not in _SAMPLE_TYPES:
        raise UnsupportedFormatError(
            f"{path}: format {audio_format} with {bits} bits not supported"
        )
    dtype, full_scale = _SAMPLE_TYPES[audio_format, bits]
    if len(data) % (bits // 8):
        raise CorruptHeaderError(
            f"{path}: data chunk of {len(data)} bytes ends inside a {bits}-bit sample"
        )
    samples = np.frombuffer(data, dtype=dtype).astype(np.float64)
    samples /= full_scale
    n = samples.size // n_ch
    data = samples[: n * n_ch].reshape(n, n_ch)
    finite = np.isfinite(data)
    if not finite.all():
        sample, channel = np.argwhere(~finite)[0]
        raise NonFiniteError(
            f"{path}: non-finite value {data[sample, channel]} at channel {channel}, "
            f"sample {sample}"
        )
    return Waveform(sample_rate, data)


def write_wav(path, wave: Waveform):
    """Write as IEEE float32."""
    payload = wave.data.astype("<f4").tobytes()
    n_ch = wave.n_channels
    byte_rate = wave.sample_rate * n_ch * 4
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _FMT_FLOAT, n_ch, wave.sample_rate, byte_rate, n_ch * 4, 32),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)
