import numpy as np
import pytest

from upband import dsp, metrics
from upband.dsp import (AudioBuffer, downsample, istft, reconstruct_full, sinc_upsample, stft,
                        to_log_magnitude)
from upband.errors import DataError, ShapeError


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
        logm = to_log_magnitude(np.abs(spec))
        out = reconstruct_full(logm[:, :257], logm[:, 257:], np.angle(spec), 44100)
        ref = AudioBuffer(truth.samples[:len(out)], 44100)
        assert metrics.lsd(ref, out) < 0.1

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
        logm = to_log_magnitude(np.abs(spec))
        T = logm.shape[0]
        floor_high = np.full((T, 256), np.log(1e-5))
        out = reconstruct_full(logm[:, :257], floor_high, np.angle(spec), sr)
        n = min(len(out), len(interp))
        c = slice(2048, n - 2048)
        err = np.linalg.norm(out.samples[c] - interp.samples[c]) / \
            np.linalg.norm(interp.samples[c])
        assert err < 1e-3

    def test_output_length(self):
        truth = _synthetic_truth(seconds=0.3)
        spec = stft(truth)
        logm = to_log_magnitude(np.abs(spec))
        T = logm.shape[0]
        out = reconstruct_full(logm[:, :257], logm[:, 257:], np.angle(spec), 44100)
        assert len(out) == (T - 1) * 256

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            reconstruct_full(np.zeros((4, 257)), np.zeros((5, 256)), np.zeros((4, 513)),
                             44100)

    def test_bin_split_rejected(self):
        with pytest.raises(ShapeError):
            reconstruct_full(np.zeros((4, 250)), np.zeros((4, 256)), np.zeros((4, 506)),
                             44100)


class TestInvariants:
    def test_up_then_down_returns_original(self):
        x = tone(3000, 22050, 1.0, amp=0.3)
        y = downsample(sinc_upsample(x, 2), 2)
        c = slice(1000, len(x) - 1000)
        err = np.linalg.norm(y.samples[c] - x.samples[c]) / np.linalg.norm(x.samples[c])
        assert err < 1e-3

    def test_bin_split_arithmetic(self):
        assert dsp.LOW_BINS + dsp.HIGH_BINS == dsp.N_BINS == dsp.N_FFT // 2 + 1
