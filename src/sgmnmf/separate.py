"""Multichannel Wiener reconstruction of per-source spatial images.

The filter is applied in the diagonalized domain: project with Q_i,
scale each channel by the source's share of the diagonal gain, and
solve back through Q_i.  The per-source shares sum to one for every
(i, j, m), so the estimates sum to the observation exactly.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import audio, linalg, model


@dataclass
class SeparatedSources:
    """Per-source spectrograms (N, I, J, M) and optional waveforms."""

    spectra: np.ndarray
    waveforms: list = field(default_factory=list)

    @property
    def n_sources(self):
        return self.spectra.shape[0]


def wiener_separate(state: model.SeparationState, X: np.ndarray) -> SeparatedSources:
    """shat_ijn = Q_i^{-1} D_ijn Q_i x_ij with D the diagonal share matrix.

    D_ijn = diag_m(sigma_ijn g_inm / chi_ijm); one solve per Q_i serves
    every (frame, source) right-hand side.
    """
    n_bins, n_frames, n_ch = X.shape
    n_src = state.hyper.n_sources
    p = model.projections(state, X)
    sigma = model.compute_source_psd(state.source)
    chi = model.mixture_gain(state)
    share = (
        sigma[:, :, :, None]
        * state.spatial.G[:, None, :, :]
        / chi[:, :, None, :]
    )
    weighted = share * p[:, :, None, :]
    rhs = weighted.transpose(0, 3, 1, 2).reshape(n_bins, n_ch, n_frames * n_src)
    sol = linalg.solve(state.spatial.Q, rhs)
    spectra = (
        sol.reshape(n_bins, n_ch, n_frames, n_src).transpose(3, 0, 2, 1).copy()
    )
    return SeparatedSources(spectra=spectra)


def wiener_separate_fullrank(
    X: np.ndarray, scm: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Direct filter (sigma_ijn G_in) Xhat^{-1} x_ij; the test oracle."""
    xhat = np.einsum("ijn,inab->ijab", sigma, scm, optimize=True)
    sol = linalg.solve(xhat, X)
    out = np.einsum("inab,ijb->ijna", scm, sol, optimize=True)
    out = out * sigma[:, :, :, None]
    return out.transpose(2, 0, 1, 3).copy()


def to_waveforms(
    sep: SeparatedSources,
    cfg: audio.StftConfig,
    length: int,
    sample_rate: int = 16000,
):
    """Inverse-transform every source image; fills sep.waveforms."""
    sep.waveforms = [
        audio.istft(sep.spectra[n], cfg, length, sample_rate=sample_rate)
        for n in range(sep.n_sources)
    ]
    return sep.waveforms


def write_sources(sep: SeparatedSources, out_dir):
    """Write source_{n}.wav for every reconstructed waveform."""
    paths = []
    for n, wave in enumerate(sep.waveforms):
        path = os.path.join(out_dir, f"source_{n}.wav")
        audio.write_wav(path, wave)
        paths.append(path)
    return paths
