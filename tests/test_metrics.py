import math

import numpy as np
import pytest

from upband import data, dsp, metrics
from upband.dsp import AudioBuffer
from upband.errors import DataError
from upband.metrics import EvalReport, LsdConfig, evaluate_corpus, lsd, snr

import oracles


def noise(seed, n=16384, amp=0.2, sr=44100):
    return AudioBuffer(np.random.default_rng(seed).normal(size=n) * amp, sr)


class TestLsd:
    def test_identity_is_zero(self):
        x = noise(0)
        assert lsd(x, x) == 0.0

    def test_ten_x_is_exactly_two(self):
        x = noise(1)
        scaled = AudioBuffer(10.0 * x.samples, x.sample_rate)
        assert lsd(x, scaled) == pytest.approx(2.0, abs=1e-9)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(DataError):
            lsd(noise(0, sr=44100), noise(1, sr=22050))

    def test_length_mismatch_trims(self):
        x = noise(2, n=16384)
        y = AudioBuffer(x.samples[:12000], x.sample_rate)
        assert lsd(x, y) == lsd(AudioBuffer(x.samples[:12000], x.sample_rate), y)


    @pytest.mark.parametrize("n_fft,hop", [(2048, 512), (1024, 256), (1000, 300)])
    def test_bytes_match_one_shot_at_block_boundaries(self, n_fft, hop):
        # frame counts around whole frame blocks and around the shorter runs
        # whose segments, context frames included, are one block each
        cfg = LsdConfig(n_fft=n_fft, hop=hop)
        block = dsp._block_frames(n_fft)
        run = block - 2 * -(-n_fft // (2 * hop))
        counts = [1 + n_fft // hop, run - 1, run, run + 1, block - 1, block, block + 1,
                  3 * block + 5]
        for k in counts:
            n = max(n_fft, (k - 1) * hop + 5)
            x, y = noise(k, n=n), noise(k + 1, n=n + 300, amp=0.05)
            assert lsd(x, y, cfg) == oracles.lsd_one_shot(x, y, cfg), k

    def test_shorter_than_one_frame_rejected(self):
        with pytest.raises(DataError, match="shorter than n_fft"):
            lsd(noise(0, n=2000), noise(1, n=2000))


class TestSnr:
    def test_exact_equality_is_inf(self):
        x = noise(3)
        assert snr(x, x) == math.inf

    def test_equal_noise_power_is_zero_db(self):
        x = noise(4)
        flipped = AudioBuffer(np.zeros_like(x.samples), x.sample_rate)
        # error signal equals the reference: error power == signal power
        assert snr(x, flipped) == pytest.approx(0.0, abs=1e-9)

    def test_negated_is_minus_6db(self):
        x = noise(5)
        neg = AudioBuffer(-x.samples, x.sample_rate)
        assert snr(x, neg) == pytest.approx(10 * math.log10(1 / 4), abs=1e-9)
        assert snr(x, neg) == pytest.approx(-6.02, abs=0.01)

    def test_zero_reference_rejected(self):
        z = AudioBuffer(np.zeros(1024), 44100)
        with pytest.raises(DataError):
            snr(z, z)


class TestEvalReport:
    def test_kv_format(self):
        rep = EvalReport(lsd_mean=1.5, lsd_std=0.25, snr_mean=12.0, snr_std=3.0, n_files=4)
        kv = rep.as_kv()
        assert kv.startswith("lsd_mean=1.5000 lsd_std=0.2500")
        assert "snr_mean=12.0000" in kv and "n_files=4" in kv

    def test_table_contains_label(self):
        rep = EvalReport(1.0, 0.0, 5.0, 0.0, 1)
        assert "baseline" in rep.as_table("baseline")


class TestEvaluateCorpus:
    def test_deterministic(self, synth_corpus_dir):
        corpus = data.load_manifest(synth_corpus_dir, synth_corpus_dir / "manifest.txt")
        files = corpus.paths()[:2]
        a = evaluate_corpus(None, files, data.read_wav)
        b = evaluate_corpus(None, files, data.read_wav)
        assert a == b
        assert a.n_files == 2

    def test_overlap_with_train_rejected(self, synth_corpus_dir):
        corpus = data.load_manifest(synth_corpus_dir, synth_corpus_dir / "manifest.txt")
        files = corpus.paths()[:2]
        with pytest.raises(DataError):
            evaluate_corpus(None, files, data.read_wav, train_files=files[:1])

    def test_other_rates_rejected(self, tmp_path):
        path = tmp_path / "48k.wav"
        data.write_wav(path, noise(3, sr=48000))
        with pytest.raises(DataError, match="48000 Hz"):
            evaluate_corpus(None, [path], data.read_wav)

    def test_empty_heldout_rejected(self):
        with pytest.raises(DataError):
            evaluate_corpus(None, [], data.read_wav)

    def test_baseline_lsd_in_expected_band(self, synth_corpus_dir):
        # broadband synthetic material loses its whole upper band: the sinc
        # baseline should land far from zero
        corpus = data.load_manifest(synth_corpus_dir, synth_corpus_dir / "manifest.txt")
        rep = evaluate_corpus(None, corpus.paths()[:2], data.read_wav)
        assert rep.lsd_mean > 1.0
