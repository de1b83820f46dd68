"""Shared builders for randomized states, small synthetic scenes and WAV bytes,
a diagonalizer sweep set up as the optimizer sets it up, and an in-process
memory probe."""

import struct
import tracemalloc

import numpy as np

from sgmnmf import audio, model, optimizer, simulate


def random_state(
    rng,
    n_bins=5,
    n_frames=7,
    n_channels=2,
    n_sources=2,
    n_bases=3,
    beta=3.4,
    algorithm="subgaussian",
    iterations=5,
):
    """A fully scrambled, valid separation state (Q pushed off identity)."""
    hyper = model.Hyperparams(
        beta=beta,
        n_sources=n_sources,
        n_bases=n_bases,
        iterations=iterations,
        seed=int(rng.integers(2**31)),
        algorithm=algorithm,
    )
    st = model.init_state(hyper, n_bins, n_frames, n_channels)
    st.source.T[...] = rng.uniform(0.2, 2.0, st.source.T.shape)
    st.source.V[...] = rng.uniform(0.2, 2.0, st.source.V.shape)
    st.source.Z[...] = rng.uniform(0.2, 2.0, st.source.Z.shape)
    st.spatial.G[...] = rng.uniform(0.2, 2.0, st.spatial.G.shape)
    m = n_channels
    jitter = rng.standard_normal((n_bins, m, m)) + 1j * rng.standard_normal((n_bins, m, m))
    st.spatial.Q = np.eye(m, dtype=np.complex128) + 0.3 * jitter
    st.validate()
    return st


def random_mixture(rng, n_bins=5, n_frames=7, n_channels=2):
    shape = (n_bins, n_frames, n_channels)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def q_sweep(state, X):
    """One diagonalizer row sweep on state, set up as optimizer.run sets it up."""
    optimizer._q_rows(state, optimizer._WorkingSet(X, state.spatial.Q))


def trend_scene(seed, length=30000, rt60=0.3, tail_gain=0.05):
    """Two co-modulated multitone sources through seeded synthetic RIRs."""
    room = simulate.RoomSpec(rt60=rt60, filter_length=4800, seed=seed, tail_gain=tail_gain)
    dries = [
        simulate.gen_subgaussian_source(length, "comod_multitone", [1000 * seed + n, 77])
        for n in range(2)
    ]
    return simulate.mix(dries, simulate.synth_rir(room))


def stft_16k():
    """The 64 ms / 16 ms analysis grid used throughout the tests."""
    return audio.StftConfig.from_ms(64.0, 16.0, 16000)


def wav_bytes(payload, n_channels=1, sample_rate=8000):
    """A PCM16 RIFF/WAVE file whose data chunk holds `payload` as given."""
    block = 2 * n_channels
    fmt_body = struct.pack("<HHIIHH", 1, n_channels, sample_rate, sample_rate * block, block, 16)
    return b"".join([
        b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
        b"fmt ", struct.pack("<I", 16), fmt_body,
        b"data", struct.pack("<I", len(payload)), payload,
    ])


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced while it ran above those at its start).

    Runs fn under tracemalloc, which numpy reports its buffers to, so a
    memory bound holds for one call in this process; the process's peak
    resident size cannot be reset between calls.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
