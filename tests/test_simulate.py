"""Source generators, synthetic room filters, and convolutive mixing."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
from sgmnmf import audio, simulate
from sgmnmf.errors import DimensionMismatchError, EmptyInputError


def _excess_kurtosis(x):
    x = x - x.mean()
    return float(np.mean(x**4) / np.mean(x**2) ** 2 - 3.0)


class TestSources:
    def test_uniform_iid_kurtosis(self):
        wave = simulate.gen_subgaussian_source(1_000_000, "uniform_iid", seed=0)
        k = _excess_kurtosis(wave.channel(0))
        assert -1.25 <= k <= -1.15  # exact value for uniform is -1.2

    @pytest.mark.parametrize("seed", range(5))
    def test_am_tone_is_subgaussian(self, seed):
        wave = simulate.gen_subgaussian_source(200_000, "am_tone", seed=seed)
        assert _excess_kurtosis(wave.channel(0)) < -1.0

    def test_amplitude_bounds(self):
        wave = simulate.gen_subgaussian_source(100_000, "uniform_iid", seed=1)
        assert np.abs(wave.channel(0)).max() <= 1.0
        wave = simulate.gen_subgaussian_source(100_000, "am_tone", seed=1)
        assert np.abs(wave.channel(0)).max() <= 1.0 + 1e-12

    def test_determinism_and_seed_sensitivity(self):
        a = simulate.gen_subgaussian_source(5000, "am_tone", seed=3)
        b = simulate.gen_subgaussian_source(5000, "am_tone", seed=3)
        c = simulate.gen_subgaussian_source(5000, "am_tone", seed=4)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_trend_scenes_are_pinned(self):
        # SHA-256 of the ten mixtures test_qualitative_trend separates,
        # taken when comod_multitone was a test helper: the package kind
        # draws the same random stream and the same arithmetic
        digest = hashlib.sha256()
        for seed in range(10):
            digest.update(helpers.trend_scene(seed, length=30000).mixture.data.tobytes())
        assert digest.hexdigest() == (
            "05d90f7cc95763fdb5d71e81ebdfa3671e101b99496558611f5676bed7e967f3"
        )

    def test_bad_inputs(self):
        with pytest.raises(EmptyInputError):
            simulate.gen_subgaussian_source(0, "uniform_iid", seed=0)
        with pytest.raises(ValueError):
            simulate.gen_subgaussian_source(10, "laplacian", seed=0)


class TestRoomSpec:
    def test_default_delays_are_distinct_patterns(self):
        d = simulate.default_delays(2, 2)
        # inter-mic delay differences must differ across sources, otherwise
        # the sources are spatially indistinguishable
        assert d[0, 1] - d[0, 0] != d[1, 1] - d[1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate.RoomSpec(rt60=-0.1)
        with pytest.raises(ValueError):
            simulate.RoomSpec(n_sources=0)
        with pytest.raises(DimensionMismatchError):
            simulate.RoomSpec(direct_delay=[[1, 2, 3]])
        with pytest.raises(ValueError):
            simulate.RoomSpec(direct_delay=[[0, 1], [2, 9999]], filter_length=100)

    @pytest.mark.parametrize("field,value", [("sample_rate", 0), ("seed", -1), ("tail_gain", -0.5)])
    def test_range_error_names_the_field(self, field, value):
        # each was checked only by the scene parser: sample_rate = 0 gave NaN filter taps
        with pytest.raises(ValueError, match=f"^{field}: must be >= "):
            simulate.RoomSpec(**{field: value})

class TestSynthRir:
    def test_unit_direct_path_at_requested_delay(self):
        spec = simulate.RoomSpec(seed=5)
        rirs = simulate.synth_rir(spec)
        assert rirs.shape == (2, 2, 4800)
        for n in range(2):
            for m in range(2):
                d = spec.direct_delay[n, m]
                assert rirs[n, m, d] == 1.0
                np.testing.assert_array_equal(rirs[n, m, :d], 0.0)

    def test_rt60_zero_gives_pure_delays(self):
        spec = simulate.RoomSpec(rt60=0.0, seed=6)
        rirs = simulate.synth_rir(spec)
        for n in range(2):
            for m in range(2):
                h = rirs[n, m].copy()
                h[spec.direct_delay[n, m]] -= 1.0
                np.testing.assert_array_equal(h, 0.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_tail_decay_rate_matches_rt60(self, seed):
        # rt60 = 0.3 s means the tail envelope falls 60 dB in 0.3 s,
        # i.e. a -200 dB/s slope of the log energy profile
        spec = simulate.RoomSpec(rt60=0.3, seed=seed)
        rirs = simulate.synth_rir(spec)
        fs = spec.sample_rate
        h = rirs[0, 0]
        d = spec.direct_delay[0, 0]
        tail = h[d + 1 :]
        # average log-energy over 10 ms blocks, then fit a line
        block = fs // 100
        n_blocks = tail.size // block
        energy = (tail[: n_blocks * block] ** 2).reshape(n_blocks, block).mean(axis=1)
        db = 10 * np.log10(energy)
        times = (np.arange(n_blocks) + 0.5) * block / fs
        slope = np.polyfit(times, db, 1)[0]
        assert slope == pytest.approx(-200.0, abs=3.0 / 0.3)

    @pytest.mark.parametrize("seed", range(10))
    def test_tails_are_decorrelated_across_mics(self, seed):
        # the direct impulse is common structure by design; the random
        # tails must be near-orthogonal between microphones
        spec = simulate.RoomSpec(rt60=0.3, seed=seed)
        rirs = simulate.synth_rir(spec)
        for n in range(2):
            a = rirs[n, 0].copy()
            b = rirs[n, 1].copy()
            a[spec.direct_delay[n, 0]] = 0.0
            b[spec.direct_delay[n, 1]] = 0.0
            rho = abs(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert rho < 0.2

    def test_determinism(self):
        spec = simulate.RoomSpec(seed=11)
        np.testing.assert_array_equal(simulate.synth_rir(spec), simulate.synth_rir(spec))


class TestMix:
    def _bundle(self, seed=0, snr_db=0.0, length=20000):
        spec = simulate.RoomSpec(seed=seed)
        dries = [
            simulate.gen_subgaussian_source(length, "am_tone", seed=[seed, n])
            for n in range(2)
        ]
        return simulate.mix(dries, simulate.synth_rir(spec), snr_db=snr_db)

    def test_mixture_is_exact_sum_of_images(self):
        bundle = self._bundle(seed=1)
        total = bundle.images[0].data + bundle.images[1].data
        np.testing.assert_array_equal(bundle.mixture.data, total)

    def test_equal_power_at_reference_channel(self):
        bundle = self._bundle(seed=2)
        p0 = np.mean(bundle.images[0].channel(0) ** 2)
        p1 = np.mean(bundle.images[1].channel(0) ** 2)
        assert p0 == pytest.approx(1.0, rel=1e-10)
        assert p1 / p0 == pytest.approx(1.0, abs=0.01)

    def test_snr_offset_scales_later_sources(self):
        bundle = self._bundle(seed=3, snr_db=6.0)
        p0 = np.mean(bundle.images[0].channel(0) ** 2)
        p1 = np.mean(bundle.images[1].channel(0) ** 2)
        assert 10 * np.log10(p0 / p1) == pytest.approx(6.0, abs=1e-8)

    def test_scaled_dries_reproduce_images(self):
        from scipy.signal import fftconvolve

        bundle = self._bundle(seed=4, length=8000)
        dry = bundle.dries[1].channel(0)
        want = fftconvolve(dry, bundle.rirs[1, 0])[:8000]
        np.testing.assert_allclose(bundle.images[1].channel(0), want, atol=1e-12)

    @pytest.mark.parametrize("n_src,n_mic,length,seed", [(2, 2, 32000, 0), (3, 3, 16000, 1009)])
    def test_images_are_scipy_fftconvolve_bit_for_bit(self, n_src, n_mic, length, seed):
        # scipy is the oracle: the images must be its bits, not close to them
        from scipy.signal import fftconvolve

        spec = simulate.RoomSpec(n_sources=n_src, n_mics=n_mic, seed=seed)
        rirs = simulate.synth_rir(spec)
        dries = [
            simulate.gen_subgaussian_source(length, "am_tone", seed=[seed, n])
            for n in range(n_src)
        ]
        bundle = simulate.mix(dries, rirs)
        for n in range(n_src):
            dry = dries[n].channel(0)
            want = np.stack(
                [fftconvolve(dry, rirs[n, m])[:length] for m in range(n_mic)], axis=1
            )
            want *= 1.0 / np.sqrt(np.mean(want[:, 0] ** 2))
            assert np.array_equal(bundle.images[n].data, want)

    def test_images_have_genuinely_multichannel_structure(self):
        # spatial covariance of each image must be far from rank one:
        # reverberant images are full-rank, which is what the full-rank
        # spatial model is meant to capture
        bundle = self._bundle(seed=5)
        cfg = audio.StftConfig()
        for image in bundle.images:
            spec = audio.stft(image, cfg)
            scm = np.einsum("ija,ijb->iab", spec, spec.conj()) / spec.shape[1]
            eig = np.linalg.eigvalsh(scm)
            active = eig[:, -1] > 1e-6 * eig[:, -1].max()
            ratio = eig[active, 0] / eig[active, -1]
            assert np.median(ratio) > 0.01

    @pytest.mark.parametrize(
        "dry,delay,empty",
        [([0.5, -0.25], 4, True), ([0.0, 0.5], 1, True), ([0.0, 0.5], 0, False)],
    )
    def test_zero_image_is_decided_from_supports(self, dry, delay, empty):
        # source 0's channel-1 image is zero exactly when its first nonzero
        # dry sample plus its first nonzero tap reaches the dry length; the
        # FFT's rounding noise there must not be balanced up to unit power
        spec = simulate.RoomSpec(direct_delay=[[delay, 1], [0, 1]])
        dries = [audio.Waveform(16000, np.array(dry)), audio.Waveform(16000, np.ones(2))]
        if empty:
            with pytest.raises(EmptyInputError, match="source 0 "):
                simulate.mix(dries, simulate.synth_rir(spec))
        else:
            bundle = simulate.mix(dries, simulate.synth_rir(spec))
            assert np.mean(bundle.images[0].channel(0) ** 2) == pytest.approx(1.0)

    def test_mismatched_dry_count_raises(self):
        spec = simulate.RoomSpec()
        dries = [simulate.gen_subgaussian_source(1000, "uniform_iid", seed=0)]
        with pytest.raises(DimensionMismatchError):
            simulate.mix(dries, simulate.synth_rir(spec))

    def test_mismatched_dry_lengths_raise(self):
        spec = simulate.RoomSpec()
        dries = [
            simulate.gen_subgaussian_source(1000, "uniform_iid", seed=0),
            simulate.gen_subgaussian_source(1001, "uniform_iid", seed=1),
        ]
        with pytest.raises(DimensionMismatchError):
            simulate.mix(dries, simulate.synth_rir(spec))


class TestFftLength:
    def test_matches_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        got = [simulate._fft_len(n) for n in range(1, 70001)]
        want = [next_fast_len(n, True) for n in range(1, 70001)]
        assert got == want

    def test_operating_point(self):
        # 2 s at 16 kHz convolved with a 4800-tap filter
        assert simulate._fft_len(32000 + 4800 - 1) == 36864


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, sgmnmf.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert res.stdout.strip() == "[]"
