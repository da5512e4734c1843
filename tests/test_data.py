import struct

import numpy as np
import pytest

from upband import data, dsp, metrics
from upband.dsp import AudioBuffer
from upband.errors import DataError, WavFormatError

from conftest import fmt_body, write_riff


def write_pcm16(path, samples, sr=22050):
    write_riff(path, fmt_body(1, 16, sr=sr), np.asarray(samples, dtype="<i2").tobytes())


def pcm24_bytes(samples):
    ints = np.asarray(samples, dtype="<i4").view(np.uint8).reshape(-1, 4)
    return ints[:, :3].tobytes()


class TestWavIO:
    def test_float_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        x = (rng.uniform(-1, 1, 4096).astype(np.float32)).astype(np.float64)
        buf = AudioBuffer(x, 44100)
        data.write_wav(tmp_path / "a.wav", buf)
        back = data.read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 44100
        np.testing.assert_array_equal(back.samples, x)

    def test_pcm16_full_scale_negative(self, tmp_path):
        write_pcm16(tmp_path / "b.wav", [-32768, 0, 32767])
        back = data.read_wav(tmp_path / "b.wav")
        assert back.samples[0] == -1.0
        assert back.samples[1] == 0.0

    def test_truncated_data_chunk_named(self, tmp_path):
        path = tmp_path / "c.wav"
        write_pcm16(path, [0] * 100)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 50])
        with pytest.raises(WavFormatError, match="data"):
            data.read_wav(path)

    def test_missing_fmt_chunk_named(self, tmp_path):
        path = tmp_path / "d.wav"
        body = b"\x00" * 16
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + len(body)) + b"WAVE" +
                         b"data" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="fmt"):
            data.read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(WavFormatError):
            data.read_wav(path)

    def test_stereo_downmixes_with_warning(self, tmp_path, caplog):
        path = tmp_path / "f.wav"
        inter = np.zeros(64, dtype="<i2")
        inter[0::2] = 1000
        inter[1::2] = 3000
        write_riff(path, fmt_body(1, 16, channels=2, sr=44100), inter.tobytes())
        with caplog.at_level("WARNING"):
            back = data.read_wav(path)
        assert "channels" in caplog.text
        assert back.samples[0] == pytest.approx(2000 / 32768)

    def test_pcm24_full_scale(self, tmp_path):
        ints = [-2 ** 23, -1, 0, 1, 2 ** 23 - 1, 123456]
        write_riff(tmp_path / "g.wav", fmt_body(1, 24), pcm24_bytes(ints))
        back = data.read_wav(tmp_path / "g.wav")
        np.testing.assert_array_equal(back.samples, np.array(ints) / 2.0 ** 23)

    @pytest.mark.parametrize("code,bits", [(1, 16), (1, 24), (3, 32)])
    def test_extensible_reads_like_plain(self, tmp_path, code, bits):
        rng = np.random.default_rng(bits)
        if code == 3:
            body = rng.uniform(-1, 1, 64).astype("<f4").tobytes()
        elif bits == 16:
            body = rng.integers(-2 ** 15, 2 ** 15, 64).astype("<i2").tobytes()
        else:
            body = pcm24_bytes(rng.integers(-2 ** 23, 2 ** 23, 64))
        write_riff(tmp_path / "plain.wav", fmt_body(code, bits), body)
        write_riff(tmp_path / "ext.wav", fmt_body(code, bits, extensible=True), body)
        plain = data.read_wav(tmp_path / "plain.wav")
        ext = data.read_wav(tmp_path / "ext.wav")
        assert len(ext) == 64
        np.testing.assert_array_equal(ext.samples, plain.samples)

    @pytest.mark.parametrize("fmt,match", [
        (fmt_body(6, 8), "codec"),                                  # A-law
        (fmt_body(1, 8), "codec"),
        (fmt_body(1, 32), "codec"),
        (fmt_body(6, 8, extensible=True), "codec"),
        (fmt_body(3, 64, extensible=True), "codec"),
        (fmt_body(1, 16, extensible=True)[:18], "fmt"),             # no SubFormat
        (fmt_body(1, 16)[:14], "fmt"),
    ])
    def test_unsupported_or_truncated_format_refused(self, tmp_path, fmt, match):
        write_riff(tmp_path / "h.wav", fmt, b"\x00" * 64)
        with pytest.raises(WavFormatError, match=match):
            data.read_wav(tmp_path / "h.wav")

    def test_partial_trailing_sample_dropped(self, tmp_path):
        write_riff(tmp_path / "i.wav", fmt_body(1, 24), pcm24_bytes([2 ** 22, -2 ** 22]) + b"\x01")
        np.testing.assert_array_equal(data.read_wav(tmp_path / "i.wav").samples, [0.5, -0.5])


class TestMakePair:
    @pytest.mark.parametrize("n", [1024, 5000, 44100])
    def test_frame_counts_agree(self, n):
        rng = np.random.default_rng(n)
        buf = AudioBuffer(rng.normal(size=n) * 0.1, 44100)
        ex = data.make_pair(buf)
        assert ex.low_log_mag.shape[0] == ex.high_log_mag_real.shape[0]
        assert ex.low_log_mag.shape[1] == 257
        assert ex.high_log_mag_real.shape[1] == 256

    def test_band_limited_input_gives_floor_targets(self):
        t = np.arange(44100) / 44100
        tone = AudioBuffer(0.4 * np.sin(2 * np.pi * 3000 * t), 44100)
        ex = data.make_pair(tone)
        # everything above 11.025 kHz should sit at the log floor; edge
        # frames are skipped (reflect padding splashes wideband energy there)
        floor = np.log(1e-5)
        assert np.max(ex.high_log_mag_real[4:-4]) <= floor + 1e-3

    def test_low_bins_close_to_ground_truth(self):
        truth = data.synth_signal(np.random.default_rng(11), 0.8)
        ex = data.make_pair(truth)
        log_true = dsp.to_log_magnitude(np.abs(dsp.stft(truth)))[:, :257]
        T = min(ex.low_log_mag.shape[0], log_true.shape[0])
        # convert natural-log magnitude difference to base-10 log power RMS
        d = (ex.low_log_mag[:T] - log_true[:T]) * (2.0 / np.log(10.0))
        lsd_low = float(np.mean(np.sqrt(np.mean(d ** 2, axis=1))))
        assert lsd_low < 0.3

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            data.make_pair(AudioBuffer(np.zeros(512), 44100))

    @pytest.mark.parametrize("rate", [48000, 22050])
    def test_other_rates_rejected(self, rate):
        with pytest.raises(DataError, match=f"{rate} Hz"):
            data.make_pair(AudioBuffer(np.zeros(8192), rate))


class TestSynthCorpus:
    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(DataError, match="seed"):
            data.synth_corpus(-1, 3, 0.2, tmp_path / "x")

    def test_same_seed_bit_identical(self, tmp_path):
        a = data.synth_corpus(7, 3, 0.2, tmp_path / "a")
        b = data.synth_corpus(7, 3, 0.2, tmp_path / "b")
        for ia, ib in zip(a.paths(), b.paths()):
            assert ia.read_bytes() == ib.read_bytes()

    def test_high_band_energy_fraction(self, synth_corpus_dir):
        corpus = data.load_manifest(synth_corpus_dir, synth_corpus_dir / "manifest.txt")
        for path in corpus.paths():
            buf = data.read_wav(path)
            spec = np.abs(np.fft.rfft(buf.samples)) ** 2
            freqs = np.fft.rfftfreq(len(buf.samples), 1 / buf.sample_rate)
            frac = spec[freqs >= 11025].sum() / spec.sum()
            assert frac >= 0.10, path

    def test_too_few_files_rejected(self, tmp_path):
        with pytest.raises(DataError):
            data.synth_corpus(0, 1, 0.2, tmp_path / "x")

    def test_lookup_regressor_beats_baseline(self, synth_corpus_dir):
        # nearest-neighbor on low-band frames: if the task is learnable at
        # all, even this trivial model must beat plain interpolation
        corpus = data.load_manifest(synth_corpus_dir, synth_corpus_dir / "manifest.txt")
        train, held = data.split_corpus(corpus, heldout_fraction=0.25, seed=0)
        examples = data.load_examples(train)
        keys = np.concatenate([ex.low_log_mag[::4] for ex in examples])
        values = np.concatenate([ex.high_log_mag_real[::4] for ex in examples])

        def lookup(windows):
            low = windows.reshape(-1, windows.shape[-1])
            d = ((low[:, None, :64] - keys[None, :, :64]) ** 2).sum(axis=2)
            return values[np.argmin(d, axis=1)].reshape(*windows.shape[:-1], -1)

        lookup.max_frames = 64

        held_files = held.paths()[:2]
        base = metrics.evaluate_corpus(None, held_files, data.read_wav)
        model = metrics.evaluate_corpus(lookup, held_files, data.read_wav)
        assert model.lsd_mean < base.lsd_mean


class TestSplitAndManifest:
    def _corpus(self):
        return data.Corpus(root=".", items=[f"f{i:02d}.wav" for i in range(10)])

    def test_disjoint_and_exhaustive(self):
        train, held = data.split_corpus(self._corpus(), heldout_fraction=0.3, seed=1)
        assert not set(train.items) & set(held.items)
        assert sorted(train.items + held.items) == sorted(self._corpus().items)
        assert len(held.items) == 3

    def test_same_seed_same_split(self):
        a = data.split_corpus(self._corpus(), heldout_fraction=0.3, seed=5)
        b = data.split_corpus(self._corpus(), heldout_fraction=0.3, seed=5)
        assert a[0].items == b[0].items and a[1].items == b[1].items

    def test_tag_split(self):
        c = data.Corpus(root=".", items=["a_train.wav", "b_held.wav", "c_train.wav"])
        train, held = data.split_corpus(c, heldout_tag="_held")
        assert held.items == ["b_held.wav"]
        assert sorted(train.items) == ["a_train.wav", "c_train.wav"]

    def test_empty_side_rejected(self):
        c = data.Corpus(root=".", items=["a.wav", "b.wav"])
        with pytest.raises(DataError):
            data.split_corpus(c, heldout_tag="missing")

    def test_manifest_round_trip(self, tmp_path):
        c = data.Corpus(root=tmp_path, items=["x.wav", "y.wav"])
        data.save_manifest(c, tmp_path / "m.txt")
        back = data.load_manifest(tmp_path, tmp_path / "m.txt")
        assert back.items == ["x.wav", "y.wav"]

    def test_manifest_second_column_ignored(self, tmp_path):
        (tmp_path / "m.txt").write_text("x.wav\theld\n\ny.wav\n", encoding="utf-8")
        assert data.load_manifest(tmp_path, tmp_path / "m.txt").items == ["x.wav", "y.wav"]

    def test_load_examples_leakage_guard(self, synth_corpus_dir):
        corpus = data.load_manifest(synth_corpus_dir, synth_corpus_dir / "manifest.txt")
        with pytest.raises(DataError):
            data.load_examples(corpus, exclude=data.Corpus(synth_corpus_dir,
                                                           corpus.items[:1]))
