import numpy as np
import pytest

from upband import dsp, metrics
from upband.dsp import (AudioBuffer, downsample, istft, reconstruct_full, sinc_upsample, stft,
                        to_log_magnitude)
from upband.errors import DataError, ShapeError

import oracles


def tone(freq, sr, seconds=1.0, amp=0.5):
    t = np.arange(int(sr * seconds)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


class TestAudioBuffer:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            AudioBuffer(np.array([0.0, np.nan]), 44100)

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            AudioBuffer(np.zeros(8), 0)


class TestSincUpsample:
    def test_dc_preserved(self):
        x = AudioBuffer(np.full(4096, 0.25), 22050)
        up = sinc_upsample(x, 2)
        c = slice(256, len(up) - 256)
        assert np.max(np.abs(up.samples[c] - 0.25)) < 1e-3

    def test_length_and_rate_contract(self):
        up = sinc_upsample(tone(440, 22050, 0.1), 2)
        assert len(up) == 2 * 2205 and up.sample_rate == 44100

    def test_bad_factor(self):
        with pytest.raises(DataError):
            sinc_upsample(tone(440, 22050, 0.1), 1)

    def test_empty_input(self):
        with pytest.raises(DataError):
            sinc_upsample(AudioBuffer(np.zeros(0), 22050), 2)


class TestDownsample:
    def test_length_contract(self):
        down = downsample(tone(440, 44100, 0.2), 2)
        assert len(down) == 4410 and down.sample_rate == 22050

    def test_5khz_survives(self):
        down = downsample(tone(5000, 44100), 2)
        c = slice(2205, len(down) - 2205)
        amp = np.max(np.abs(down.samples[c]))
        assert abs(amp - 0.5) / 0.5 < 0.01

    def test_15khz_suppressed(self):
        down = downsample(tone(15000, 44100), 2)
        residual = np.max(np.abs(down.samples[2000:-2000]))
        assert 20 * np.log10(residual / 0.5) < -40.0

    def test_10_8khz_survives(self):
        # inside the top conditioning bins (~251 of 257)
        down = downsample(tone(10800, 44100), 2)
        c = slice(2205, len(down) - 2205)
        amp = np.max(np.abs(down.samples[c]))
        assert abs(amp - 0.5) / 0.5 < 0.01

    def test_11_25khz_suppressed(self):
        # would fold back to 10.8 kHz, inside the conditioning bins
        down = downsample(tone(11250, 44100), 2)
        residual = np.max(np.abs(down.samples[2000:-2000]))
        assert 20 * np.log10(residual / 0.5) < -40.0

    def test_fft_size_is_next_fast_real_length(self):
        next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
        sizes = range(1, 120_000)
        assert [dsp._fft_size(n) for n in sizes] == [next_fast_len(n, real=True) for n in sizes]


class TestStft:
    def test_bin_count(self):
        spec = stft(tone(440, 44100, 0.2))
        assert spec.shape[1] == 513

    def test_dc_concentrates_in_bin0(self):
        spec = stft(AudioBuffer(np.full(8192, 0.3), 44100))
        mags = np.abs(spec)
        inner = mags[4:-4]  # reflect padding distorts edge frames
        ratio = inner[:, 2:] / inner[:, :1]
        assert np.all(20 * np.log10(np.maximum(ratio, 1e-30)) < -60.0)

    def test_parseval_single_frame(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=8192) * 0.2
        spec = stft(AudioBuffer(x, 44100))
        t = 10
        padded = np.pad(x, 512, mode="reflect")
        frame = padded[t * 256:t * 256 + 1024] * dsp._hann_periodic(1024)
        energy = np.sum(frame ** 2)
        p = np.abs(spec[t]) ** 2
        spectral = (p[0] + p[-1] + 2 * np.sum(p[1:-1])) / 1024
        assert abs(spectral - energy) / energy < 1e-6

    def test_too_short(self):
        with pytest.raises(DataError):
            stft(AudioBuffer(np.zeros(512), 44100))

    @staticmethod
    def _gathered(x, n_fft, hop):
        """Reference: frames gathered from the padded signal by an index array."""
        xp = np.pad(x, n_fft // 2, mode="reflect")
        n_frames = 1 + (len(xp) - n_fft) // hop
        idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
        return np.fft.rfft(xp[idx] * dsp._hann_periodic(n_fft), axis=1)

    @pytest.mark.parametrize("n_fft,hop", [(1024, 256), (2048, 512)])
    @pytest.mark.parametrize("extra", [0, 1, 100, 511, 1536, 12345])
    def test_bytes_match_gathered_frames(self, n_fft, hop, extra):
        # exactly one frame, whole hops (1536), and partial last hops
        x = np.random.default_rng(extra).normal(size=n_fft + extra)
        spec = stft(AudioBuffer(x, 44100), n_fft, hop)
        assert spec.tobytes() == self._gathered(x, n_fft, hop).tobytes()


def _block_counts(n_fft):
    """One frame, a frame block's less one, a block's, one more, and three
    blocks' plus five."""
    b = dsp._block_frames(n_fft)
    return [1, b - 1, b, b + 1, 3 * b + 5]


def _block_lengths(n_fft, hop):
    """Signal lengths whose STFTs have the fewest frames, then each of the
    other ``_block_counts``."""
    return [n_fft] + [(k - 1) * hop + 7 for k in _block_counts(n_fft)[1:]]


class TestFrameBlocks:
    @pytest.mark.parametrize("n_fft,hop", [(1024, 256), (2048, 512)])
    def test_stft_bytes_at_block_boundaries(self, n_fft, hop):
        for n in _block_lengths(n_fft, hop):
            x = np.random.default_rng(n).normal(size=n)
            spec = stft(AudioBuffer(x, 44100), n_fft, hop)
            assert spec.tobytes() == TestStft._gathered(x, n_fft, hop).tobytes(), n

    def test_one_block_is_one_transform(self, monkeypatch):
        n = (dsp._block_frames(dsp.N_FFT) - 1) * dsp.HOP
        calls = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kw: calls.append(a.shape) or
                            rfft(a, *args, **kw))
        stft(AudioBuffer(np.zeros(n), 44100))
        assert calls == [(dsp._block_frames(dsp.N_FFT), dsp.N_FFT)]

    @pytest.mark.parametrize("n_bins,hop", [(513, 256), (1025, 512)])
    def test_istft_bytes_at_block_boundaries(self, n_bins, hop):
        for n_frames in _block_counts(2 * (n_bins - 1)):
            rng = np.random.default_rng(n_frames)
            spec = rng.normal(size=(n_frames, n_bins)) + 1j * rng.normal(size=(n_frames, n_bins))
            assert istft(spec, hop).tobytes() == oracles.istft_one_shot(spec, hop).tobytes()

    @pytest.mark.parametrize("n_frames", _block_counts(dsp.N_FFT))
    def test_reconstruct_bytes_at_block_boundaries(self, n_frames):
        rng = np.random.default_rng(n_frames)
        spec = rng.normal(size=(n_frames, 513)) + 1j * rng.normal(size=(n_frames, 513))
        spec[::5, ::11] = 0.0  # silent bins take their target at phase 0
        high = rng.uniform(-4.0, 1.5, size=(n_frames, 256))  # loud enough to clamp
        out = reconstruct_full(spec, high, 44100)
        assert out.samples.tobytes() == oracles.reconstruct_one_shot(spec, high).tobytes()

    @pytest.mark.parametrize("n_fft,hop", [(1024, 256), (2048, 512), (1000, 300), (999, 250)])
    def test_segments_hold_the_whole_signals_frames(self, n_fft, hop):
        n = 3 * dsp._block_frames(n_fft) * hop + 123
        x = np.random.default_rng(n_fft).normal(size=n)
        whole = stft(AudioBuffer(x, 44100), n_fft, hop)
        pieces = list(dsp._stft_segments(n, n_fft, hop))
        assert len(pieces) > 3
        got = [stft(AudioBuffer(x[samples], 44100), n_fft, hop)[frames]
               for samples, frames in pieces]
        assert all(len(stft(AudioBuffer(x[samples], 44100), n_fft, hop))
                   <= dsp._block_frames(n_fft) for samples, _ in pieces[:-1])
        assert np.concatenate(got).tobytes() == whole.tobytes()
        for start, stop in ((0, 1), (1, 2), (5, 9), (len(whole) - 1, len(whole)),
                            (len(whole) - 3, len(whole))):
            samples, frames = dsp._segment(n, start, stop, n_fft, hop)
            part = stft(AudioBuffer(x[samples], 44100), n_fft, hop)[frames]
            assert part.tobytes() == whole[start:stop].tobytes(), (start, stop)


class TestIstft:
    def test_zero_spectrogram(self):
        assert np.all(istft(np.zeros((20, 513), dtype=complex)) == 0.0)

    def test_linearity(self):
        spec = stft(tone(880, 44100, 0.2))
        np.testing.assert_allclose(istft(2.0 * spec), 2.0 * istft(spec), atol=1e-12)

    @staticmethod
    def _frame_loop(spec, hop):
        """Reference: overlap-add one frame at a time, in frame order."""
        n_fft = 1024
        window = dsp._hann_periodic(n_fft)
        frames = np.fft.irfft(spec, n=n_fft, axis=1) * window
        length = (len(spec) - 1) * hop + n_fft
        y, norm = np.zeros(length), np.zeros(length)
        for t in range(len(spec)):
            y[t * hop:t * hop + n_fft] += frames[t]
            norm[t * hop:t * hop + n_fft] += window * window
        good = norm > 1e-10
        y[good] /= norm[good]
        return y[n_fft // 2:length - n_fft // 2]

    @pytest.mark.parametrize("n_frames,hop", [(1, 256), (2, 256), (7, 256), (1723, 256),
                                              (9, 512), (9, 128)])
    def test_bytes_match_frame_loop(self, n_frames, hop):
        rng = np.random.default_rng(n_frames + hop)
        spec = rng.normal(size=(n_frames, 513)) + 1j * rng.normal(size=(n_frames, 513))
        assert istft(spec, hop).tobytes() == self._frame_loop(spec, hop).tobytes()

    def test_cola_violation_rejected(self):
        with pytest.raises(DataError):
            istft(np.zeros((4, 513), dtype=complex), hop=300)


class TestLogMagnitude:
    def test_unit_magnitude(self):
        assert to_log_magnitude(np.ones((1, 1)))[0, 0] == 0.0

    def test_floor(self):
        val = to_log_magnitude(np.zeros((1, 1)))[0, 0]
        assert val == pytest.approx(np.log(1e-5))
        assert val == pytest.approx(-11.5129, abs=1e-4)

    def test_inverse_pair(self):
        m = np.geomspace(1e-5, 10.0, 64).reshape(4, 16)
        np.testing.assert_allclose(np.exp(to_log_magnitude(m)), m, rtol=1e-6)


def _synthetic_truth(seed=5, seconds=1.0):
    from upband import data
    return data.synth_signal(np.random.default_rng(seed), seconds)


class TestReconstructFull:
    def test_all_true_inputs_is_near_identity(self):
        truth = _synthetic_truth()
        spec = stft(truth)
        out = reconstruct_full(spec, to_log_magnitude(np.abs(spec[:, 257:])), 44100)
        ref = AudioBuffer(truth.samples[:len(out)], 44100)
        assert metrics.lsd(ref, out) < 0.1

    def test_own_magnitudes_invert_the_spectrum(self):
        noise = np.random.default_rng(6).normal(scale=0.1, size=44100)
        spec = stft(AudioBuffer(noise, 44100))
        assert np.min(np.abs(spec)) > dsp.LOG_MAG_FLOOR  # no bin is floored
        out = reconstruct_full(spec, np.log(np.abs(spec[:, 257:])), 44100)
        np.testing.assert_allclose(out.samples, istft(spec), rtol=0, atol=1e-12)

    def test_matches_log_magnitude_and_angle_formula(self):
        # the spectrum's log magnitudes and np.angle phases, recombined; the
        # zeroed bins (np.angle 0 -> phase 0) take the floor or exp(high)
        spec = stft(_synthetic_truth(seconds=0.3))
        spec[::3, ::7] = 0.0
        high = np.random.default_rng(2).uniform(-12.0, -2.0, size=(len(spec), 256))
        low = to_log_magnitude(np.abs(spec))[:, :257]
        expected = istft(np.exp(np.concatenate([low, high], axis=1)) * np.exp(1j * np.angle(spec)))
        out = reconstruct_full(spec, high, 44100)
        np.testing.assert_allclose(out.samples, expected, rtol=0, atol=1e-15)

    def test_zero_spectrum_takes_floor_and_prediction_at_phase_zero(self):
        high = np.random.default_rng(4).uniform(-6.0, -3.0, size=(12, 256))
        out = reconstruct_full(np.zeros((12, 513), dtype=complex), high, 44100)
        target = np.concatenate([np.full((12, 257), dsp.LOG_MAG_FLOOR), np.exp(high)], axis=1)
        np.testing.assert_allclose(out.samples, istft(target.astype(complex)), rtol=0, atol=1e-15)

    def test_floored_high_bins_equal_interpolation(self):
        # multitone kept below 10.5 kHz so the interpolated signal really is
        # silent above the band split
        sr = 44100
        t = np.arange(sr) / sr
        x = np.zeros(sr)
        for f in (500, 2200, 6100, 9800):
            x += 0.1 * np.sin(2 * np.pi * f * t)
        interp = sinc_upsample(downsample(AudioBuffer(x, sr), 2), 2)
        spec = stft(interp)
        floor_high = np.full((len(spec), 256), np.log(1e-5))
        out = reconstruct_full(spec, floor_high, sr)
        n = min(len(out), len(interp))
        c = slice(2048, n - 2048)
        err = np.linalg.norm(out.samples[c] - interp.samples[c]) / \
            np.linalg.norm(interp.samples[c])
        assert err < 1e-3

    def test_output_length(self):
        spec = stft(_synthetic_truth(seconds=0.3))
        out = reconstruct_full(spec, to_log_magnitude(np.abs(spec[:, 257:])), 44100)
        assert len(out) == (len(spec) - 1) * 256

    def test_output_clamped_with_warning(self, caplog):
        # a sine of amplitude 3 and its own upper magnitudes: the iSTFT runs
        # past 1, and every sample it clamps is logged
        t = np.arange(22050) / 44100
        spec = stft(AudioBuffer(3.0 * np.sin(2 * np.pi * 440 * t), 44100))
        spec += 1e-3  # no bin is 0, so the upper log magnitudes are finite
        expected = istft(spec)
        with caplog.at_level("WARNING", logger="upband.dsp"):
            out = reconstruct_full(spec, np.log(np.abs(spec[:, 257:])), 44100)
        assert np.max(np.abs(out.samples)) == 1.0
        clamped = int(np.sum(np.abs(out.samples) == 1.0))
        assert clamped > 0 and f"clamped {clamped} samples" in caplog.text
        inside = np.abs(expected) < 1.0 - 1e-9
        np.testing.assert_allclose(out.samples[inside], expected[inside], rtol=0, atol=1e-12)

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            reconstruct_full(np.zeros((4, 513), dtype=complex), np.zeros((5, 256)), 44100)

    def test_bin_split_rejected(self):
        for spec_bins, high_bins in ((506, 256), (513, 250), (520, 263)):
            with pytest.raises(ShapeError):
                reconstruct_full(np.zeros((4, spec_bins), dtype=complex),
                                 np.zeros((4, high_bins)), 44100)


class TestInvariants:
    def test_up_then_down_returns_original(self):
        x = tone(3000, 22050, 1.0, amp=0.3)
        y = downsample(sinc_upsample(x, 2), 2)
        c = slice(1000, len(x) - 1000)
        err = np.linalg.norm(y.samples[c] - x.samples[c]) / np.linalg.norm(x.samples[c])
        assert err < 1e-3

    def test_bin_split_arithmetic(self):
        assert dsp.LOW_BINS + dsp.HIGH_BINS == dsp.N_BINS == dsp.N_FFT // 2 + 1
