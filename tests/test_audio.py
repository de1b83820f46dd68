"""STFT round trips, framing geometry, and WAV file I/O."""

import struct

import numpy as np
import pytest

import helpers
import oracles
from sgmnmf import audio
from sgmnmf.errors import (
    CorruptHeaderError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteError,
    UnsupportedFormatError,
)


class TestStftRoundTrip:
    @pytest.mark.parametrize(
        "window,hop,length",
        [(1024, 256, 5000), (64, 24, 1000), (64, 64, 1000), (100, 7, 1000), (2822, 706, 9000),
         (1024, 256, 1), (64, 24, 1), (100, 7, 1)],
    )
    def test_strided_framing_equals_the_frame_loop(self, window, hop, length):
        # bit for bit: the passes keep each sample's sum in frame order
        rng = np.random.default_rng(window + hop + length)
        wave = audio.Waveform(16000, rng.standard_normal((length, 2)))
        cfg = audio.StftConfig(window_length=window, hop=hop)
        spec = audio.stft(wave, cfg)
        assert np.array_equal(spec, oracles.stft_loop(wave, cfg))
        back = audio.istft(spec, cfg, length).data
        assert np.array_equal(back, oracles.istft_loop(spec, cfg, length))

    @pytest.mark.parametrize("length", [1, 100, 255, 256, 1023, 1024, 1025, 5000, 16000])
    def test_exact_reconstruction(self, length):
        rng = np.random.default_rng(length)
        wave = audio.Waveform(16000, rng.standard_normal((length, 1)))
        cfg = audio.StftConfig()
        spec = audio.stft(wave, cfg)
        back = audio.istft(spec, cfg, length)
        np.testing.assert_allclose(back.data, wave.data, rtol=0, atol=1e-10)

    def test_multichannel_shapes_and_reconstruction(self):
        rng = np.random.default_rng(7)
        wave = audio.Waveform(16000, rng.standard_normal((4000, 3)))
        cfg = audio.StftConfig()
        spec = audio.stft(wave, cfg)
        assert spec.shape[0] == cfg.n_bins
        assert spec.shape[2] == 3
        back = audio.istft(spec, cfg, 4000)
        np.testing.assert_allclose(back.data, wave.data, atol=1e-10)

    def test_hop_equals_window(self):
        rng = np.random.default_rng(8)
        wave = audio.Waveform(16000, rng.standard_normal((2048, 1)))
        cfg = audio.StftConfig(window_length=256, hop=256)
        back = audio.istft(audio.stft(wave, cfg), cfg, 2048)
        np.testing.assert_allclose(back.data, wave.data, atol=1e-10)

    def test_pure_tone_concentrates_on_its_bin(self):
        cfg = audio.StftConfig()
        k = 64
        t = np.arange(16000)
        wave = audio.Waveform(16000, np.sin(2 * np.pi * k / cfg.fft_length * t)[:, None])
        spec = audio.stft(wave, cfg)
        power = (np.abs(spec[:, :, 0]) ** 2).mean(axis=1)
        assert power.argmax() == k

    def test_empty_waveform_raises(self):
        wave = audio.Waveform(16000, np.zeros((0, 1)))
        with pytest.raises(EmptyInputError):
            audio.stft(wave, audio.StftConfig())

    def test_wrong_bin_count_raises(self):
        cfg = audio.StftConfig()
        with pytest.raises(DimensionMismatchError):
            audio.istft(np.zeros((10, 4, 1), dtype=complex), cfg, 100)

    def test_length_beyond_frames_raises(self):
        cfg = audio.StftConfig()
        spec = audio.stft(audio.Waveform(16000, np.zeros((500, 1))), cfg)
        with pytest.raises(DimensionMismatchError):
            audio.istft(spec, cfg, 500_000)


class TestStftConfig:
    def test_from_ms_at_16k(self):
        cfg = audio.StftConfig.from_ms(64.0, 16.0, 16000)
        assert cfg.window_length == 1024
        assert cfg.hop == 256
        assert cfg.n_bins == 513

    def test_invalid_hop_raises(self):
        with pytest.raises(ValueError):
            audio.StftConfig(window_length=256, hop=0)
        with pytest.raises(ValueError):
            audio.StftConfig(window_length=256, hop=512)

    def test_window_is_hamming(self):
        cfg = audio.StftConfig(window_length=64, hop=16)
        np.testing.assert_allclose(cfg.window(), np.hamming(64))


class TestWavIo:
    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        wave = audio.Waveform(16000, rng.uniform(-1, 1, (3000, 2)))
        path = tmp_path / "x.wav"
        audio.write_wav(path, wave)
        back = audio.read_wav(path)
        assert back.sample_rate == 16000
        assert back.n_channels == 2
        np.testing.assert_allclose(back.data, wave.data, atol=1e-7)

    def test_reads_pcm16(self, tmp_path):
        samples = np.array([0, 16384, -16384, 32767], dtype="<i2")
        payload = samples.tobytes()
        header = b"".join(
            [
                b"RIFF",
                struct.pack("<I", 36 + len(payload)),
                b"WAVE",
                b"fmt ",
                struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16),
                b"data",
                struct.pack("<I", len(payload)),
            ]
        )
        path = tmp_path / "pcm.wav"
        path.write_bytes(header + payload)
        wave = audio.read_wav(path)
        assert wave.sample_rate == 8000
        np.testing.assert_allclose(
            wave.channel(0), samples.astype(np.float64) / 32768.0
        )

    def test_not_riff_raises(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(CorruptHeaderError):
            audio.read_wav(path)

    def test_truncated_chunk_raises(self, tmp_path):
        wave = audio.Waveform(16000, np.zeros((100, 1)))
        path = tmp_path / "t.wav"
        audio.write_wav(path, wave)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptHeaderError):
            audio.read_wav(path)

    def test_unsupported_codec_raises(self, tmp_path):
        header = b"".join(
            [
                b"RIFF",
                struct.pack("<I", 36),
                b"WAVE",
                b"fmt ",
                struct.pack("<IHHIIHH", 16, 7, 1, 8000, 8000, 1, 8),
                b"data",
                struct.pack("<I", 0),
            ]
        )
        path = tmp_path / "mulaw.wav"
        path.write_bytes(header)
        with pytest.raises(UnsupportedFormatError):
            audio.read_wav(path)

    def test_non_finite_sample_names_channel_and_index(self, tmp_path):
        data = np.zeros((50, 3), dtype=np.float32)
        data[17, 2] = np.nan
        data[30, 0] = np.inf  # later in file order: the first bad sample is reported
        payload = data.astype("<f4").tobytes()
        header = b"".join(
            [
                b"RIFF",
                struct.pack("<I", 36 + len(payload)),
                b"WAVE",
                b"fmt ",
                struct.pack("<IHHIIHH", 16, 3, 3, 8000, 96000, 12, 32),
                b"data",
                struct.pack("<I", len(payload)),
            ]
        )
        path = tmp_path / "nan.wav"
        path.write_bytes(header + payload)
        with pytest.raises(NonFiniteError, match=r"nan\.wav: .*channel 2, sample 17\b"):
            audio.read_wav(path)

    def test_partial_sample_raises(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(helpers.wav_bytes(b"\x00\x01\x02"))  # 1.5 PCM16 samples
        with pytest.raises(CorruptHeaderError, match=r"odd\.wav: .*3 bytes .*16-bit sample"):
            audio.read_wav(path)

    def test_zero_sample_rate_raises(self, tmp_path):
        path = tmp_path / "rate.wav"
        path.write_bytes(helpers.wav_bytes(b"\x00\x00", sample_rate=0))
        with pytest.raises(CorruptHeaderError, match=r"rate\.wav: sample rate 0"):
            audio.read_wav(path)

    def test_partial_trailing_frame_is_dropped(self, tmp_path):
        path = tmp_path / "frame.wav"
        samples = np.array([1, 2, 3], dtype="<i2")  # one stereo frame and a half
        path.write_bytes(helpers.wav_bytes(samples.tobytes(), n_channels=2))
        wave = audio.read_wav(path)
        np.testing.assert_array_equal(wave.data, [[1 / 32768.0, 2 / 32768.0]])


class TestWaveform:
    def test_mono_vector_becomes_column(self):
        wave = audio.Waveform(16000, np.zeros(10))
        assert wave.data.shape == (10, 1)

    def test_channel_view(self):
        data = np.arange(6, dtype=float).reshape(3, 2)
        wave = audio.Waveform(16000, data)
        np.testing.assert_array_equal(wave.channel(1), [1.0, 3.0, 5.0])

    def test_bad_rate_raises(self):
        with pytest.raises(ValueError):
            audio.Waveform(0, np.zeros((4, 1)))
