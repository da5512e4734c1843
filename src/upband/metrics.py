"""Objective evaluation: log-spectral distance and signal-to-noise ratio.

LSD is the per-frame RMS difference of base-10 log power spectra,
averaged over frames, on a 2048-point Hann STFT with hop 512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import SAMPLE_RATE, AudioBuffer, _stft_segments, stft
from .errors import DataError, require_positive

POWER_FLOOR = 1e-10


@dataclass
class LsdConfig:
    n_fft: int = 2048
    hop: int = 512
    # hann window and base-10 log are fixed by the metric definition

    def __post_init__(self):
        require_positive("LsdConfig", n_fft=self.n_fft, hop=self.hop)


def _log_power(x: np.ndarray, sample_rate: int, samples: slice, frames: slice,
               cfg: LsdConfig) -> np.ndarray:
    """Base-10 log power of frames ``frames`` of the STFT of ``x[samples]``,
    whose samples an ``AudioBuffer`` has already checked."""
    segment = AudioBuffer._unchecked(x[samples], sample_rate)
    power = np.abs(stft(segment, n_fft=cfg.n_fft, hop=cfg.hop)[frames])
    np.square(power, out=power)
    np.maximum(power, POWER_FLOOR, out=power)
    return np.log10(power, out=power)


def _frame_distances(x: np.ndarray, y: np.ndarray, sample_rate: int, samples: slice,
                     frames: slice, cfg: LsdConfig) -> np.ndarray:
    """Per-frame RMS log-power difference over one segment's frames."""
    d = _log_power(x, sample_rate, samples, frames, cfg)
    d -= _log_power(y, sample_rate, samples, frames, cfg)
    np.square(d, out=d)
    return np.sqrt(np.mean(d, axis=1))


def _aligned(reference: AudioBuffer, approx: AudioBuffer) -> tuple[np.ndarray, np.ndarray]:
    """Both signals' samples, trimmed to the shorter one's length."""
    if reference.sample_rate != approx.sample_rate:
        raise DataError(f"sample-rate mismatch: {reference.sample_rate} vs {approx.sample_rate}")
    n = min(len(reference), len(approx))
    return reference.samples[:n], approx.samples[:n]


def lsd(reference: AudioBuffer, approx: AudioBuffer, cfg: LsdConfig = LsdConfig()) -> float:
    """Mean over frames of the per-frame RMS log-power difference. Both
    signals go through ``stft`` one frame block at a time, each block
    reduced to its frames' values before the next, so neither whole
    spectrogram is held; the values are those of whole-signal STFTs."""
    x, y = _aligned(reference, approx)
    sr = reference.sample_rate
    per_frame = [_frame_distances(x, y, sr, samples, frames, cfg)
                 for samples, frames in _stft_segments(len(x), cfg.n_fft, cfg.hop)]
    return float(np.mean(np.concatenate(per_frame)))


def snr(reference: AudioBuffer, approx: AudioBuffer) -> float:
    """10 log10(signal power / error power) in dB; +inf for exact equality."""
    x, y = _aligned(reference, approx)
    sig = float(np.sum(x ** 2))
    if sig == 0.0:
        raise DataError("snr: reference signal is all-zero")
    err = float(np.sum((x - y) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(sig / err)


@dataclass
class EvalReport:
    lsd_mean: float
    lsd_std: float
    snr_mean: float
    snr_std: float
    n_files: int

    def as_kv(self) -> str:
        return (f"lsd_mean={self.lsd_mean:.4f} lsd_std={self.lsd_std:.4f} "
                f"snr_mean={self.snr_mean:.4f} snr_std={self.snr_std:.4f} "
                f"n_files={self.n_files}")

    def as_table(self, label: str) -> str:
        return (f"{'model':<12} {'LSD':>14} {'SNR (dB)':>16}\n"
                f"{label:<12} {self.lsd_mean:>7.3f} ± {self.lsd_std:.3f} "
                f"{self.snr_mean:>9.3f} ± {self.snr_std:.3f}   (n={self.n_files})")


def evaluate_corpus(model_fn, files, read_fn, lsd_cfg: LsdConfig = LsdConfig(),
                    train_files=()) -> EvalReport:
    """Run the full inference pipeline on held-out files and aggregate LSD/SNR.

    ``model_fn`` is what ``pipeline.upsample_buffer`` takes; None evaluates
    the plain interpolation baseline. ``read_fn`` loads a path into an
    AudioBuffer, which must be at SAMPLE_RATE. ``train_files`` is checked
    for overlap with the held-out set before any work is done.
    """
    from .pipeline import upsample_buffer
    from .dsp import downsample

    files = list(files)
    if not files:
        raise DataError("evaluate_corpus: held-out set is empty")
    overlap = set(map(str, files)) & set(map(str, train_files))
    if overlap:
        raise DataError(f"evaluate_corpus: held-out files also appear in the training set: "
                        f"{sorted(overlap)[:3]}")
    lsds, snrs = [], []
    for path in files:
        truth = read_fn(path)
        if truth.sample_rate != SAMPLE_RATE:
            raise DataError(f"evaluate_corpus: {path} is at {truth.sample_rate} Hz, "
                            f"need {SAMPLE_RATE} Hz")
        low = downsample(truth, 2)
        approx = upsample_buffer(low, model_fn)
        lsds.append(lsd(truth, approx, lsd_cfg))
        snrs.append(snr(truth, approx))
    lsds = np.asarray(lsds)
    snrs = np.asarray(snrs)
    std = lambda a: float(np.std(a, ddof=1)) if len(a) > 1 else 0.0
    return EvalReport(lsd_mean=float(np.mean(lsds)), lsd_std=std(lsds),
                      snr_mean=float(np.mean(snrs)), snr_std=std(snrs),
                      n_files=len(files))
