"""Synthetic scenes: sub-Gaussian dry sources, exponential-decay room
filters, and convolutive mixing with ground-truth source images.

Everything is deterministic given (seed, spec); per-(source, mic)
filter randomness comes from spawned seed-sequence children so the
pairs could be generated in any order or in parallel.

Convolution is numpy's real FFT zero-padded to the smallest 5-smooth
length (2^a 3^b 5^c) that holds the full linear convolution, which is
bit-identical to scipy.signal.fftconvolve.
"""

from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .errors import ConfigError, DimensionMismatchError, EmptyInputError, check_min

LOG_1000 = 3.0 * np.log(10.0)
SOURCE_KINDS = ("uniform_iid", "am_tone", "comod_multitone")
# comod_multitone: tones per source and the shared envelope's depth
COMOD_TONES = 8
COMOD_DEPTH = 0.8


def _fft_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def default_delays(n_sources: int, n_mics: int, base: int = 4) -> np.ndarray:
    """Distinct inter-mic delay patterns per source: base + n + m*(n+1)."""
    n = np.arange(n_sources)[:, None]
    m = np.arange(n_mics)[None, :]
    return (base + n + m * (n + 1)).astype(np.int64)


@dataclass
class RoomSpec:
    n_sources: int = 2
    n_mics: int = 2
    rt60: float = 0.3
    direct_delay: np.ndarray = None
    filter_length: int = 4800
    seed: int = 0
    sample_rate: int = 16000
    tail_gain: float = 0.05

    def __post_init__(self):
        check_min(self, ("n_sources", "n_mics", "filter_length", "sample_rate"), 1)
        check_min(self, ("rt60", "tail_gain", "seed"), 0)
        if self.direct_delay is None:
            self.direct_delay = default_delays(self.n_sources, self.n_mics)
        # entries are checked as Python objects: an int64 cast would truncate
        # 4.7, read true and "7" as numbers, and overflow on 1e30
        delays = np.asarray(self.direct_delay, dtype=object)
        if delays.shape != (self.n_sources, self.n_mics):
            raise DimensionMismatchError(
                f"direct_delay shape {delays.shape} != ({self.n_sources}, {self.n_mics})"
            )
        for d in delays.flat:
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
                raise ConfigError("direct_delay", f"expected an integer, got {d!r}")
            if not 0 <= d < self.filter_length:
                raise ConfigError(
                    "direct_delay", f"{d} lies outside the {self.filter_length}-tap filter"
                )
        self.direct_delay = delays.astype(np.int64)


@dataclass
class MixtureBundle:
    mixture: Waveform
    images: list
    dries: list
    rirs: np.ndarray


def gen_subgaussian_source(length: int, kind: str, seed, sample_rate: int = 16000) -> Waveform:
    """Dry test signals with sub-Gaussian amplitude statistics.

    uniform_iid: i.i.d. uniform on [-1, 1] (excess kurtosis -1.2).
    am_tone: random-phase sinusoid with a slow random amplitude
    modulation; a sine's excess kurtosis is -1.5, the modulation keeps
    it negative while spreading energy over neighboring bins.
    comod_multitone: COMOD_TONES random sinusoids under one shared slow
    AM envelope of depth COMOD_DEPTH.  Each occupied bin sees a
    near-constant-modulus phasor (ring-like), and the shared envelope
    co-modulates every band of the source, the cue a shared-activation
    factorization needs to keep a source's bands together.
    """
    if length <= 0:
        raise EmptyInputError("source length must be positive")
    rng = np.random.default_rng(seed)
    if kind == "uniform_iid":
        data = rng.uniform(-1.0, 1.0, size=length)
    elif kind == "am_tone":
        t = np.arange(length, dtype=np.float64)
        f_c = rng.uniform(0.02, 0.18)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        f_am = rng.uniform(2e-5, 2e-4)
        phase_am = rng.uniform(0.0, 2.0 * np.pi)
        depth = rng.uniform(0.3, 0.7)
        env = 1.0 - depth / 2.0 + (depth / 2.0) * np.sin(
            2.0 * np.pi * f_am * t + phase_am
        )
        data = env * np.sin(2.0 * np.pi * f_c * t + phase)
    elif kind == "comod_multitone":
        t = np.arange(length)
        carriers = rng.uniform(0.02, 0.18, COMOD_TONES)
        phases = rng.uniform(0.0, 2 * np.pi, COMOD_TONES)
        tones = np.zeros(length)
        for f, p in zip(carriers, phases):
            tones += np.sin(2 * np.pi * f * t + p)
        f_am = rng.uniform(2e-5, 2e-4)
        p_am = rng.uniform(0.0, 2 * np.pi)
        env = 1.0 - COMOD_DEPTH / 2 + (COMOD_DEPTH / 2) * np.sin(2 * np.pi * f_am * t + p_am)
        data = env * tones / np.sqrt(COMOD_TONES)
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    return Waveform(sample_rate, data[:, None])


def synth_rir(spec: RoomSpec) -> np.ndarray:
    """(N, M, filter_length) filters: unit direct impulse + decaying tail.

    The tail is white noise shaped by exp(-3 ln10 (t - d)/(rt60 fs))
    starting one sample after the direct path, so its energy envelope
    falls 60 dB over rt60 seconds; rt60 = 0 gives pure delays.
    """
    n_src, n_mic, length = spec.n_sources, spec.n_mics, spec.filter_length
    rirs = np.zeros((n_src, n_mic, length))
    children = np.random.SeedSequence(spec.seed).spawn(n_src * n_mic)
    t = np.arange(length, dtype=np.float64)
    for n in range(n_src):
        for m in range(n_mic):
            d = int(spec.direct_delay[n, m])
            h = rirs[n, m]
            h[d] = 1.0
            if spec.rt60 > 0:
                rng = np.random.default_rng(children[n * n_mic + m])
                noise = rng.standard_normal(length)
                env = np.exp(-LOG_1000 * (t - d) / (spec.rt60 * spec.sample_rate))
                h += spec.tail_gain * noise * env * (t > d)
    return rirs


def mix(dries, rirs: np.ndarray, snr_db: float = 0.0) -> MixtureBundle:
    """Convolve, balance source-image powers at channel 1, and sum.

    Dries are rescaled so the first source's channel-1 image power
    exceeds every other source's by snr_db (all equal at 0 dB); images
    are truncated to the dry length and the mixture is their exact sum.
    """
    n_src, n_mic, _ = rirs.shape
    if len(dries) != n_src:
        raise DimensionMismatchError(f"{len(dries)} dries vs {n_src} filter sets")
    lengths = {d.n_samples for d in dries}
    if len(lengths) != 1:
        raise DimensionMismatchError(f"dry lengths differ: {sorted(lengths)}")
    length = lengths.pop()
    sample_rate = dries[0].sample_rate

    for n in range(n_src):
        # the exact channel-1 image starts at the dry's first nonzero sample
        # plus the filter's first nonzero tap; the FFT leaves rounding noise
        # where it is zero, so its power cannot tell
        dry_nz, tap_nz = np.flatnonzero(dries[n].channel(0)), np.flatnonzero(rirs[n, 0])
        if not (dry_nz.size and tap_nz.size and dry_nz[0] + tap_nz[0] < length):
            raise EmptyInputError(f"source {n} image has zero power at channel 1")

    n_fft = _fft_len(length + rirs.shape[2] - 1)
    images = np.empty((n_src, length, n_mic))
    for n in range(n_src):
        dry_spec = np.fft.rfft(dries[n].channel(0), n_fft)
        for m in range(n_mic):
            # a named operand keeps the product out of place; multiplying
            # into rfft's temporary takes another loop and moves the last bit
            rir_spec = np.fft.rfft(rirs[n, m], n_fft)
            images[n, :, m] = np.fft.irfft(dry_spec * rir_spec, n_fft)[:length]

    scaled_dries = []
    for n in range(n_src):
        gain = 1.0 / np.sqrt(np.mean(images[n, :, 0] ** 2))
        if n > 0:
            gain *= 10.0 ** (-snr_db / 20.0)
        images[n] *= gain
        scaled_dries.append(Waveform(sample_rate, dries[n].data * gain))

    mixture = np.sum(images, axis=0)
    return MixtureBundle(
        mixture=Waveform(sample_rate, mixture),
        images=[Waveform(sample_rate, images[n].copy()) for n in range(n_src)],
        dries=scaled_dries,
        rirs=rirs,
    )
