import logging
import tracemalloc

import numpy as np
import pytest

from upband import config, data, dsp, metrics, model, pipeline, training
from upband.dsp import AudioBuffer
from upband.model import init_parameters

from conftest import tiny_disc_cfg, tiny_gen_cfg

# windows of 17 frames or more keep a window's GEMM rows independent of the
# batch, which byte identity across blocks needs
MAX_FRAMES = 24


def whole_file_upsample(audio, model_fn):
    """The model path as one pass over the whole file: one STFT, every
    generator window in one batch, one reconstruction."""
    interp = dsp.sinc_upsample(audio, 2)
    n = len(interp)
    if n < dsp.N_FFT:
        interp = AudioBuffer(np.pad(interp.samples, (0, dsp.N_FFT - n)), interp.sample_rate)
    spec = dsp.stft(interp)
    low = dsp.to_log_magnitude(np.abs(spec[:, :dsp.LOW_BINS]))
    T = len(low)
    n_windows = -(-T // model_fn.max_frames)
    L = -(-T // n_windows)
    frames = np.minimum(np.arange(n_windows) * L, T - L)[:, None] + np.arange(L)
    high = np.empty((T, dsp.HIGH_BINS))
    high[frames] = model_fn(low[frames])
    out = dsp.reconstruct_full(spec, high, interp.sample_rate)
    return AudioBuffer(out.samples[:n], out.sample_rate)


@pytest.fixture(scope="module")
def generator_fn():
    gen = tiny_gen_cfg(max_frames=MAX_FRAMES)
    params, _ = init_parameters(gen, tiny_disc_cfg(), seed=4)
    return model.make_generator_fn(params, gen)


def _audio(n, seed=0, amplitude=0.5):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 22050
    x = np.sin(2 * np.pi * 300 * t) + 0.5 * np.sin(2 * np.pi * 2100 * t) + 0.1 * rng.normal(size=n)
    return AudioBuffer(amplitude * x / np.max(np.abs(x)), 22050)


def _n_frames(n_in):
    return 1 + max(2 * n_in, dsp.N_FFT) // dsp.HOP


def _plan(n_in, block_frames):
    """Window starts, window length and windows per block for ``n_in`` input samples."""
    starts, length = pipeline._window_starts(_n_frames(n_in), MAX_FRAMES)
    return starts, length, max(1, block_frames // length)


class TestBlocks:
    # 2 * 24 frames: two windows a block
    BLOCK = 2 * MAX_FRAMES

    @pytest.mark.parametrize("n_in, case", [
        (2205, "one block"),
        (300, "shorter than one STFT frame"),
        (25_600, "several blocks, output a multiple of the hop"),
        (23_157, "several blocks, output not a multiple of the hop"),
        (25_000, "last window overlaps the one before across a block boundary"),
    ])
    def test_bytes_match_whole_file(self, generator_fn, monkeypatch, n_in, case):
        monkeypatch.setattr(pipeline, "BLOCK_FRAMES", self.BLOCK)
        audio = _audio(n_in)
        starts, length, per_block = _plan(n_in, self.BLOCK)
        n_blocks = -(-len(starts) // per_block)
        if case == "one block" or case.startswith("shorter"):
            assert n_blocks == 1
        else:
            assert n_blocks >= 3
        if case.startswith("last window"):
            assert len(starts) % per_block == 1 and starts[-1] < starts[-2] + length
        if case.endswith("not a multiple of the hop"):
            assert (2 * n_in) % dsp.HOP
        out = pipeline.upsample_buffer(audio, generator_fn)
        expected = whole_file_upsample(audio, generator_fn)
        assert out.sample_rate == expected.sample_rate
        assert out.samples.tobytes() == expected.samples.tobytes()

    def test_one_block_makes_the_whole_file_calls(self, generator_fn, monkeypatch):
        calls = []
        for name in ("stft", "reconstruct_full"):
            real = getattr(dsp, name)
            monkeypatch.setattr(dsp, name, lambda *a, real=real, name=name:
                                calls.append((name, len(a[0]))) or real(*a))
        n_in = 25_000
        pipeline.upsample_buffer(_audio(n_in), generator_fn)
        n_frames = _n_frames(n_in)
        assert calls == [("stft", 2 * n_in), ("reconstruct_full", n_frames)]

    def test_clamping_across_a_block_boundary(self, generator_fn, monkeypatch, caplog):
        monkeypatch.setattr(pipeline, "BLOCK_FRAMES", self.BLOCK)

        def loud(windows):
            return generator_fn(windows) + 3.0

        loud.max_frames = MAX_FRAMES
        n_in = 25_600
        audio = _audio(n_in, amplitude=0.95)
        with caplog.at_level(logging.WARNING, logger="upband.dsp"):
            out = pipeline.upsample_buffer(audio, loud)
        expected = whole_file_upsample(audio, loud)
        assert out.samples.tobytes() == expected.samples.tobytes()
        starts, _, per_block = _plan(n_in, self.BLOCK)
        # the output sample where the second block's samples begin
        boundary = (int(starts[per_block]) - pipeline.HALO) * dsp.HOP
        near = np.abs(out.samples[boundary - dsp.HOP:boundary + dsp.HOP]) == 1.0
        assert near.any() and not near.all()
        assert caplog.text.count("clamped") > 1

    def test_peak_memory_grows_by_at_most_6_bytes_per_output_byte(self, generator_fn,
                                                                  monkeypatch):
        monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 4 * MAX_FRAMES)
        peaks = {}
        for n_in in (100_000, 200_000):
            audio = _audio(n_in)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                pipeline.upsample_buffer(audio, generator_fn)
                peaks[n_in] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        out_bytes = 8 * 2 * (200_000 - 100_000)
        assert (peaks[200_000] - peaks[100_000]) / out_bytes <= 6.0


class TestPeakMemory:
    """Traced peaks of the spectral calls on a 3 s clip at the ``desk``
    preset, per byte of the clip's 44.1 kHz samples. Each whole-spectrogram
    temporary would cost about 4 bytes per byte."""

    BOUNDS = {"stft": 7.5, "reconstruct_full": 4.0, "lsd": 4.0, "upsample_buffer": 13.0}

    @pytest.fixture(scope="class")
    def calls(self):
        cfg = config.load_config(None, preset="desk")
        params, _ = init_parameters(cfg.generator, cfg.discriminator, seed=0)
        fn = model.make_generator_fn(params, cfg.generator)
        truth = data.synth_signal(np.random.default_rng(3), 3.0)
        low = dsp.downsample(truth, 2)
        interp = dsp.sinc_upsample(low, 2)
        spec = dsp.stft(interp)
        high = dsp.to_log_magnitude(np.abs(spec[:, dsp.LOW_BINS:]))
        out = pipeline.upsample_buffer(low, fn)
        starts, length = pipeline._window_starts(len(spec), fn.max_frames)
        assert len(starts) <= pipeline.BLOCK_FRAMES // length  # one block
        return truth.samples.nbytes, {
            "stft": lambda: dsp.stft(interp),
            "reconstruct_full": lambda: dsp.reconstruct_full(spec, high, interp.sample_rate),
            "lsd": lambda: metrics.lsd(truth, out),
            "upsample_buffer": lambda: pipeline.upsample_buffer(low, fn),
        }

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_peak_per_clip_byte(self, calls, name):
        clip_bytes, fns = calls
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fns[name]()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / clip_bytes <= self.BOUNDS[name]


class TestTrainStepPeak:
    """Traced peak of one ``desk`` train step after a first one, so Adam's
    moments exist. Backward frees each node once it has run, and the five
    discriminators share one transposed input; with the whole tape and every
    node's gradient held until the end of each backward it was about 72 MiB."""

    BOUND_MIB = 50.0

    def test_desk_step_peak(self):
        cfg = config.load_config(None, preset="desk")
        state = training.TrainState.fresh(cfg.generator, cfg.discriminator, cfg.train)
        rng = np.random.default_rng(0)
        shape = (cfg.train.batch_size, cfg.train.batch_frames)
        low = rng.normal(size=shape + (dsp.LOW_BINS,)).astype(np.float32)
        high = rng.normal(size=shape + (dsp.HIGH_BINS,)).astype(np.float32)
        training.train_step(state, low, high)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            training.train_step(state, low, high)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 <= self.BOUND_MIB
