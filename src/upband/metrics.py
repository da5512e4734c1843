"""Objective evaluation: log-spectral distance and signal-to-noise ratio.

LSD is the per-frame RMS difference of base-10 log power spectra,
averaged over frames, on a 2048-point Hann STFT with hop 512.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import SAMPLE_RATE, AudioBuffer, stft
from .errors import DataError, require_positive

POWER_FLOOR = 1e-10


@dataclass
class LsdConfig:
    n_fft: int = 2048
    hop: int = 512
    # hann window and base-10 log are fixed by the metric definition

    def __post_init__(self):
        require_positive("LsdConfig", n_fft=self.n_fft, hop=self.hop)


def _log_power(audio: AudioBuffer, cfg: LsdConfig) -> np.ndarray:
    power = np.abs(stft(audio, n_fft=cfg.n_fft, hop=cfg.hop))
    np.square(power, out=power)
    np.maximum(power, POWER_FLOOR, out=power)
    return np.log10(power, out=power)


def _aligned(reference: AudioBuffer, approx: AudioBuffer) -> tuple[AudioBuffer, AudioBuffer]:
    if reference.sample_rate != approx.sample_rate:
        raise DataError(f"sample-rate mismatch: {reference.sample_rate} vs {approx.sample_rate}")
    n = min(len(reference), len(approx))
    return (AudioBuffer(reference.samples[:n], reference.sample_rate),
            AudioBuffer(approx.samples[:n], approx.sample_rate))


def lsd(reference: AudioBuffer, approx: AudioBuffer, cfg: LsdConfig = LsdConfig()) -> float:
    reference, approx = _aligned(reference, approx)
    x = _log_power(reference, cfg)
    y = _log_power(approx, cfg)
    x -= y
    np.square(x, out=x)
    per_frame = np.sqrt(np.mean(x, axis=1))
    return float(np.mean(per_frame))


def snr(reference: AudioBuffer, approx: AudioBuffer) -> float:
    """10 log10(signal power / error power) in dB; +inf for exact equality."""
    reference, approx = _aligned(reference, approx)
    sig = float(np.sum(reference.samples ** 2))
    if sig == 0.0:
        raise DataError("snr: reference signal is all-zero")
    err = float(np.sum((reference.samples - approx.samples) ** 2))
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
