"""Multichannel Wiener reconstruction of per-source spatial images.

The filter is applied in the diagonalized domain: project with Q_i,
scale each channel by each source's share of the diagonal gain, and
solve back through Q_i once for all sources.  The shares sum to one
for every (i, j, m), so the estimates sum to the observation exactly.
Each source's image goes back to the time domain through audio.istft;
the CLI synthesizes and writes one source at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg, model


@dataclass
class SeparatedSources:
    """Per-source spectrograms (N, I, J, M), and waveforms for a caller to fill."""

    spectra: np.ndarray
    waveforms: list = field(default_factory=list)

    @property
    def n_sources(self):
        return self.spectra.shape[0]


# bins per block of the filter's solves: its transient memory is one
# block's right-hand sides, whatever the bin count
_BLOCK_BINS = 32


def wiener_separate(state: model.SeparationState, X: np.ndarray) -> SeparatedSources:
    """shat_ijn = Q_i^{-1} D_ijn Q_i x_ij with D the diagonal share matrix.

    D_ijn = diag_m(sigma_ijn g_inm / chi_ijm).  The filter works in the
    channel-major layout (I, M, J), reading chi, which model builds
    channel-leading as (M, I, J), through a transpose.  It runs on
    blocks of _BLOCK_BINS bins, one checked solve per block: each Q_i is
    factored once and broadcast over its (N, M, J) right-hand sides, so
    every source keeps the bits of a solve of its own, and beside sigma,
    chi and the output only one block's right-hand sides are alive.
    """
    model.check_spectrogram(state, X)
    sigma = model.compute_source_psd(state.source).transpose(0, 2, 1)
    chi = model.mixture_gain(state).transpose(0, 2, 1)
    q, g = state.spatial.Q, state.spatial.G
    spectra = np.empty((g.shape[1],) + X.shape, dtype=np.complex128)
    for lo in range(0, X.shape[0], _BLOCK_BINS):
        b = slice(lo, lo + _BLOCK_BINS)
        p = q[b] @ X[b].transpose(0, 2, 1)
        rhs = sigma[b, :, None, :] * g[b, :, :, None] / chi[b, None] * p[:, None]
        spectra[:, b] = linalg.solve(q[b, None], rhs).transpose(1, 0, 3, 2)
    return SeparatedSources(spectra=spectra)
