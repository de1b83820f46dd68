"""Wiener reconstruction: conservation, oracle agreement, synthesis."""

import numpy as np
import pytest

import helpers
import oracles
from sgmnmf import audio, model, separate
from sgmnmf.errors import DimensionMismatchError


class TestWienerSeparate:
    def test_estimates_sum_to_observation(self):
        rng = np.random.default_rng(201)
        for _ in range(5):
            st = helpers.random_state(rng, n_bins=4, n_frames=6, n_channels=2, n_sources=3)
            X = helpers.random_mixture(rng, 4, 6, 2)
            sep = separate.wiener_separate(st, X)
            assert sep.spectra.shape == (3, 4, 6, 2)
            np.testing.assert_allclose(sep.spectra.sum(axis=0), X, rtol=0, atol=1e-10)

    def test_matches_full_rank_filter(self):
        rng = np.random.default_rng(202)
        for _ in range(5):
            st = helpers.random_state(rng, n_bins=3, n_frames=5, n_channels=2, n_sources=2)
            X = helpers.random_mixture(rng, 3, 5, 2)
            got = separate.wiener_separate(st, X).spectra
            want = oracles.wiener_separate_fullrank(
                X, oracles.full_rank_scm(st), model.compute_source_psd(st.source)
            )
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize(
        "n_ch,n_src,n_bins",
        [(2, 2, 33), (3, 3, 33), (2, 2, 150), (2, 1, 33), (4, 3, 97)],
        ids=["2-2", "3-3", "2-2-150bins", "2-1", "4-3-97bins"],
    )
    def test_equals_all_sources_at_once_filter(self, n_ch, n_src, n_bins):
        # M = 2 takes the closed-form solve, M = 3 and 4 LAPACK; 150 bins
        # make four full blocks and a partial one, 97 three and a partial one
        rng = np.random.default_rng(204)
        st = helpers.random_state(
            rng, n_bins=n_bins, n_frames=17, n_channels=n_ch, n_sources=n_src
        )
        X = helpers.random_mixture(rng, n_bins, 17, n_ch)
        got = separate.wiener_separate(st, X).spectra
        assert np.array_equal(got, oracles.wiener_separate_broadcast(st, X))

    @pytest.mark.parametrize(
        "n_bins,n_frames,n_ch,n_src,bound",
        [(129, 32, 2, 2, 4.5), (129, 40, 3, 3, 4.5), (513, 128, 2, 2, 2.1)],
        ids=["129-32-2-2", "129-40-3-3", "513-128-2-2"],
    )
    def test_peak_memory_bound(self, n_bins, n_frames, n_ch, n_src, bound):
        # keeping every (I, J, N, M) intermediate at once takes over 5x; at
        # 513 bins, one more full-size complex right-hand side beside the
        # output (0.5x there) breaks the bound
        rng = np.random.default_rng(205)
        st = helpers.random_state(
            rng, n_bins=n_bins, n_frames=n_frames, n_channels=n_ch, n_sources=n_src
        )
        X = helpers.random_mixture(rng, n_bins, n_frames, n_ch)
        sep, peak = helpers.traced_peak(separate.wiener_separate, st, X)
        assert peak <= bound * sep.spectra.nbytes

    @pytest.mark.parametrize("n_frames", [5, 1])
    def test_frame_count_mismatch_names_both(self, n_frames):
        rng = np.random.default_rng(206)
        st = helpers.random_state(rng, n_bins=9, n_frames=6, n_channels=2, n_sources=2)
        X = helpers.random_mixture(rng, 9, n_frames, 2)
        msg = rf"\(9, {n_frames}, 2\) has {n_frames} frames; the state has 6 frames"
        with pytest.raises(DimensionMismatchError, match=msg):
            separate.wiener_separate(st, X)

    def test_dominant_source_takes_the_bin(self):
        # when one source holds nearly all the modeled power in a bin, the
        # filter should route nearly all of the observation to it
        rng = np.random.default_rng(203)
        st = helpers.random_state(rng, n_bins=2, n_frames=4, n_channels=2, n_sources=2)
        st.source.Z[:, 0] = 1.0
        st.source.Z[:, 1] = 1e-9
        X = helpers.random_mixture(rng, 2, 4, 2)
        sep = separate.wiener_separate(st, X)
        np.testing.assert_allclose(sep.spectra[0], X, rtol=1e-6)
        assert np.abs(sep.spectra[1]).max() < 1e-6


class TestWaveformOutput:
    def test_round_trip_identity_model(self):
        # with N=1 the single estimate is the observation itself, so the
        # synthesis must return the original time signal
        rng = np.random.default_rng(211)
        wave = audio.Waveform(16000, rng.standard_normal((3000, 2)))
        cfg = audio.StftConfig()
        X = audio.stft(wave, cfg)
        st = helpers.random_state(
            rng, n_bins=X.shape[0], n_frames=X.shape[1], n_channels=2, n_sources=1
        )
        sep = separate.wiener_separate(st, X)
        waves = [audio.istft(s, cfg, 3000) for s in sep.spectra]
        assert len(waves) == 1
        np.testing.assert_allclose(waves[0].data, wave.data, atol=1e-8)
