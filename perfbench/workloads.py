"""The three upband workloads: inputs, set-up, one unit of work, output checks.

Inputs come from the workload seed and the benchmark's own signal
generator, so a change to the program cannot change what it is fed. Pitches
are stratified over the 200-400 Hz range and only their order and the
phases are drawn from the seed; that keeps quality metrics comparable
across seeds instead of depending on which pitches a seed happened to draw.

Model weights come from ``init_parameters`` with a fixed seed and go
through a ``save_checkpoint``/``load_checkpoint`` round trip, as the CLI
does. Timings do not depend on trained weight values, so no trained
checkpoint is committed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import time
import wave
from pathlib import Path

import numpy as np

from upband import config, data, dsp, metrics, model, pipeline, training
from upband.errors import UpbandError

SR_HIGH = 44100
SR_LOW = 22050
MODEL_SEED = 0
clock = time.perf_counter


class CheckFailed(Exception):
    """An output of the program is wrong; the run fails."""


@dataclasses.dataclass
class Unit:
    """What one unit of work did."""

    latencies_s: list          # one entry per completed operation
    audio_s: float = 0.0       # seconds of audio the completed operations produced
    attempted: int = 0
    rejected: int = 0          # operations refused with a documented UpbandError
    lsd: float = 0.0           # quality of this unit's output
    short_outputs: int = 0     # outputs with fewer than twice the input's samples
    missing_samples: int = 0   # how many samples those outputs lack in total


# ---------------------------------------------------------------------------
# inputs


def stratified_periods(rng: np.random.Generator, n: int) -> np.ndarray:
    """Pitch periods in 44.1 kHz samples for ``n`` notes stratified over
    200-400 Hz. Periods are even integers, so one cycle tiles a note
    exactly at both 44.1 and 22.05 kHz."""
    f0 = 200.0 + 200.0 * (np.arange(n) + rng.uniform(size=n)) / n
    return rng.permutation(2 * np.round(SR_HIGH / f0 / 2).astype(int))


def harmonic_note(rng, period: int, n_high: int, with_low: bool = False):
    """A harmonic stack at 44.1 kHz whose partials roll off with a
    pitch-dependent exponent, so its upper band is predictable from its
    lower band. With ``with_low`` also return the same note sampled at
    22.05 kHz with only the partials below 11.025 kHz: the exact
    band-limited input, made without the program's resampler."""
    f0 = SR_HIGH / period
    rolloff = 0.2 + 0.2 * (f0 - 200.0) / 200.0
    k = np.arange(1, int(20000.0 // f0) + 1)
    amp = k ** -rolloff
    phi = rng.uniform(0.0, 2.0 * np.pi, size=k.size)
    env_phase = rng.uniform(0.0, 2.0 * np.pi)

    def render(sr, n, keep):
        cycle_len = period * sr // SR_HIGH
        t = np.arange(cycle_len) / cycle_len
        cycle = (amp[keep, None] * np.sin(2.0 * np.pi * k[keep, None] * t + phi[keep, None])).sum(0)
        x = np.resize(cycle, n) * (0.6 + 0.4 * np.sin(2.0 * np.pi * 1.5 * np.arange(n) / sr
                                                        + env_phase))
        fade = min(n // 2, int(0.005 * sr))
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        x[:fade] *= ramp
        x[n - fade:] *= ramp[::-1]
        return x

    high = render(SR_HIGH, n_high, slice(None))
    scale = 0.5 / np.max(np.abs(high))
    if not with_low:
        return high * scale
    return high * scale, render(SR_LOW, n_high // 2, k * f0 < SR_LOW / 2) * scale


def write_pcm16(path: Path, samples: np.ndarray, sample_rate: int) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes())


def check_upsampled(out: dsp.AudioBuffer, n_in: int, what: str) -> int:
    """Check one upsampled output; return how many samples short of 2 * n_in it is.

    The output must have 2 * n_in samples. The model path returns only
    whole STFT hops today (reconstruct_full keeps (frames - 1) * HOP
    samples), so it drops the last 2 * n_in mod HOP; that known shortfall
    is counted and reported, and any other length fails the run.
    """
    expected = 2 * n_in
    missing = expected - len(out)
    if missing not in (0, expected % dsp.HOP):
        raise CheckFailed(f"{what}: {len(out)} output samples for {n_in} input samples")
    if out.sample_rate != SR_HIGH:
        raise CheckFailed(f"{what}: output rate {out.sample_rate}")
    if not np.all(np.isfinite(out.samples)) or np.max(np.abs(out.samples)) > 1.0:
        raise CheckFailed(f"{what}: output not finite or outside [-1, 1]")
    return missing


def make_checkpoint(cfg: config.RunConfig, path: Path) -> None:
    state = training.TrainState.fresh(cfg.generator, cfg.discriminator,
                                      dataclasses.replace(cfg.train, seed=MODEL_SEED))
    training.save_checkpoint(path, state)


def load_model_fn(cfg: config.RunConfig, path: Path):
    """What ``upband upsample`` does before it reads its input."""
    state = training.load_checkpoint(path, cfg.generator, cfg.discriminator, cfg.train)
    return model.make_generator_fn(state.params, cfg.generator)


# ---------------------------------------------------------------------------
# workloads


class UpsampleLong:
    """One long file at the paper-width preset: read_wav -> upsample_buffer
    -> write_wav, one pass per operation."""

    name = "upsample_long"
    preset = "default"
    notes, note_s = 20, 0.5
    expected = ("data.read_wav", "data.write_wav", "pipeline.upsample_buffer",
                "dsp.sinc_upsample", "dsp.stft", "dsp.istft", "dsp.reconstruct_full",
                "model.generator_forward", "tensor.matmul", "tensor.linear", "tensor.softmax",
                "tensor.layer_norm", "tensor.gelu", "training.load_checkpoint",
                "checkpoint.load_tensors", "model:generator_forward")

    def __init__(self, seed: int, workdir: Path):
        self.cfg = config.load_config(None, preset=self.preset)
        rng = np.random.default_rng(seed)
        n = int(self.note_s * SR_HIGH)
        highs, lows = zip(*(harmonic_note(rng, period, n, with_low=True)
                            for period in stratified_periods(rng, self.notes)))
        self.truth = dsp.AudioBuffer(np.concatenate(highs), SR_HIGH)
        self.in_path = workdir / "long_22050.wav"
        self.out_path = workdir / "long_44100.wav"
        write_pcm16(self.in_path, np.concatenate(lows), SR_LOW)
        self.ckpt = workdir / "model.nug"
        make_checkpoint(self.cfg, self.ckpt)
        self.model_fn = None
        self.digest = None
        self.score = None

    def setup(self) -> None:
        self.model_fn = load_model_fn(self.cfg, self.ckpt)

    def _pass(self):
        audio = data.read_wav(self.in_path)
        out = pipeline.upsample_buffer(audio, self.model_fn)
        data.write_wav(self.out_path, out)
        return out, check_upsampled(out, len(audio), self.name)

    def unit(self) -> Unit:
        t0 = clock()
        out, missing = self._pass()
        elapsed = clock() - t0
        digest = hashlib.sha256(out.samples.tobytes() + self.out_path.read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
            self.score = metrics.lsd(self.truth, out, self.cfg.lsd)
        elif digest != self.digest:
            raise CheckFailed(f"{self.name}: pass output differs from the first pass")
        return Unit([elapsed], audio_s=out.duration, attempted=1, lsd=self.score,
                    short_outputs=int(missing > 0), missing_samples=missing)


class UpsampleClips:
    """Many short clips at desk width: downsample ground truth, upsample,
    score. A few clips are shorter than one STFT frame."""

    name = "upsample_clips"
    preset = "desk"
    n_clips, n_short = 150, 6
    shortest_s, longest_s = 0.05, 3.0
    expected = ("dsp.downsample", "pipeline.upsample_buffer", "dsp.sinc_upsample", "dsp.stft",
                "dsp.istft", "dsp.reconstruct_full", "model.generator_forward", "metrics.lsd",
                "metrics.snr", "tensor.matmul", "tensor.linear", "tensor.softmax",
                "training.load_checkpoint", "checkpoint.load_tensors", "metrics:stft")

    def __init__(self, seed: int, workdir: Path):
        self.cfg = config.load_config(None, preset=self.preset)
        rng = np.random.default_rng(seed)
        n_long = self.n_clips - self.n_short
        # lengths are fixed so latency percentiles do not move with the seed;
        # the short ones upsample to fewer than dsp.N_FFT samples
        lengths = [int(x) for x in np.linspace(256, 1000, self.n_short)]
        lengths += [int(s * SR_HIGH) for s in np.geomspace(self.shortest_s, self.longest_s, n_long)]
        periods = stratified_periods(rng, self.n_clips)
        clips = [dsp.AudioBuffer(harmonic_note(rng, p, n), SR_HIGH)
                 for p, n in zip(periods, lengths)]
        self.clips = [clips[i] for i in rng.permutation(self.n_clips)]
        self.lsd_frame = self.cfg.lsd.n_fft
        self.ckpt = workdir / "model.nug"
        make_checkpoint(self.cfg, self.ckpt)
        self.model_fn = None

    def setup(self) -> None:
        self.model_fn = load_model_fn(self.cfg, self.ckpt)

    def _clip(self, truth: dsp.AudioBuffer):
        """Upsample and score one clip. An UpbandError raised here is the
        program refusing the clip; anything wrong after that fails the run."""
        low = dsp.downsample(truth, 2)
        out = pipeline.upsample_buffer(low, self.model_fn)
        what = f"{self.name} clip of {len(truth)} samples"
        missing = check_upsampled(out, len(low), what)
        try:
            snr = metrics.snr(truth, out)
            # LSD needs one 2048-sample frame; a clip the program learns to
            # upsample below that is still checked, just not scored
            score = metrics.lsd(truth, out, self.cfg.lsd) if len(out) >= self.lsd_frame else None
        except UpbandError as exc:
            raise CheckFailed(f"{what}: scoring failed: {exc}") from exc
        if np.isnan(snr) or (score is not None and not np.isfinite(score)):
            raise CheckFailed(f"{what}: LSD {score}, SNR {snr}")
        return out, score, missing

    def unit(self) -> Unit:
        u = Unit([], attempted=len(self.clips))
        scores = []
        for truth in self.clips:
            t0 = clock()
            try:
                out, score, missing = self._clip(truth)
            except UpbandError:
                u.rejected += 1
                continue
            u.latencies_s.append(clock() - t0)
            u.audio_s += out.duration
            u.short_outputs += missing > 0
            u.missing_samples += missing
            if score is not None:
                scores.append(score)
        u.lsd = float(np.mean(scores))
        return u


class TrainDesk:
    """Desk-width adversarial training from a fresh state on a 60 x 0.5 s
    corpus, one checkpoint write, then held-out evaluation."""

    name = "train_desk"
    preset = "desk"
    n_files, file_s = 60, 0.5
    steps = 12
    expected = ("data.load_examples", "data.make_pair", "data.read_wav", "training.train_step",
                "training.sample_batch", "training.adam_step", "training.save_checkpoint",
                "training.load_checkpoint", "checkpoint.save_tensors", "checkpoint.load_tensors",
                "model.generator_forward", "model.discriminator_forward",
                "model.spectral_normalize", "tensor.backward", "tensor.conv1d_grouped",
                "tensor.matmul", "tensor.linear", "tensor.softmax", "tensor.layer_norm",
                "tensor.gelu", "metrics.lsd", "pipeline.upsample_buffer",
                "training:generator_forward", "training:all_discriminators_forward")

    def __init__(self, seed: int, workdir: Path):
        cfg = config.load_config(None, preset=self.preset)
        self.cfg = dataclasses.replace(cfg, train=dataclasses.replace(
            cfg.train, max_steps=self.steps, checkpoint_interval=0))
        self.workdir = workdir
        corpus_dir = workdir / "corpus"
        corpus_dir.mkdir()
        items = [f"synth_{i:04d}.wav" for i in range(self.n_files)]
        corpus = data.Corpus(corpus_dir, items)
        self.train_set, self.heldout = data.split_corpus(
            corpus, heldout_fraction=self.cfg.data.heldout_fraction, seed=self.cfg.train.seed)
        # stratify pitch within each side so the held-out set always spans the range
        rng = np.random.default_rng(seed)
        n = int(self.file_s * SR_HIGH)
        for side in (self.heldout, self.train_set):
            for item, period in zip(side.items, stratified_periods(rng, len(side.items))):
                write_pcm16(corpus_dir / item, harmonic_note(rng, period, n), SR_HIGH)
        self.examples = None
        self.step_times: list[float] = []
        self.digest = None
        self.rounds = 0
        inner = training.train_step

        def timed_train_step(*args, **kwargs):
            t0 = clock()
            report = inner(*args, **kwargs)
            self.step_times.append(clock() - t0)
            return report

        training.train_step = timed_train_step

    def setup(self) -> None:
        self.examples = data.load_examples(self.train_set, exclude=self.heldout)

    def unit(self) -> Unit:
        c = self.cfg
        self.rounds += 1
        run_dir = self.workdir / f"run{self.rounds}"
        self.step_times.clear()
        final = training.train_loop(self.examples, c.generator, c.discriminator, c.train, run_dir)
        log = (run_dir / "loss.log").read_bytes()
        rows = [line.split("\t") for line in log.decode().splitlines()]
        if len(rows) != self.steps or len(self.step_times) != self.steps:
            raise CheckFailed(f"{self.name}: {len(rows)} loss lines and {len(self.step_times)} "
                              f"timed steps for {self.steps} steps")
        if not all(np.isfinite(float(v)) for row in rows for v in row[1:]):
            raise CheckFailed(f"{self.name}: non-finite loss in loss.log")
        digest = hashlib.sha256(log).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed(f"{self.name}: loss.log differs between rounds of the same seed")
        report = metrics.evaluate_corpus(load_model_fn(c, final), self.heldout.paths(),
                                         data.read_wav, c.lsd, train_files=self.train_set.paths())
        if not np.isfinite(report.lsd_mean):
            raise CheckFailed(f"{self.name}: non-finite held-out LSD")
        shutil.rmtree(run_dir)
        # one step sees batch_size windows of batch_frames hops
        step_audio = c.train.batch_size * c.train.batch_frames * dsp.HOP / SR_HIGH
        return Unit(list(self.step_times), audio_s=step_audio * self.steps,
                    attempted=self.steps, lsd=report.lsd_mean)


WORKLOADS = {w.name: w for w in (UpsampleLong, UpsampleClips, TrainDesk)}
