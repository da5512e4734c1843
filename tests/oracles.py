"""Test oracles: the finite-difference gradient checker and invariant checks.

Each invariant oracle checks one invariant the pipeline rests on against an
independent reference and raises ``NumericError`` when it does not hold.
Oracles reach the library through module attributes (``dsp.istft``,
``metrics.lsd``, ...), so patching the function under check makes its
oracle trip; ``test_selfcheck.py`` shows that each one does.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from upband import dsp, metrics, model, tensor as tt
from upband.dsp import AudioBuffer
from upband.errors import NumericError


def numeric_gradient(fn: Callable[[Sequence[tt.Tensor]], tt.Tensor], inputs: Sequence[tt.Tensor],
                     eps: Optional[float] = None) -> list[np.ndarray]:
    """Central finite differences of a scalar-valued fn w.r.t. each input."""
    grads = []
    with tt.no_grad():
        for t in inputs:
            flat = t.data.reshape(-1)
            scale = max(1.0, float(np.max(np.abs(flat))) if flat.size else 1.0)
            h = eps if eps is not None else (1e-3 * scale if t.dtype == np.float32 else 1e-6 * scale)
            g = np.zeros_like(flat, dtype=np.float64)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = float(fn(inputs).data)
                flat[i] = orig - h
                fm = float(fn(inputs).data)
                flat[i] = orig
                g[i] = (fp - fm) / (2.0 * h)
            grads.append(g.reshape(t.shape).astype(t.dtype))
    return grads


def check_gradients(fn: Callable[[Sequence[tt.Tensor]], tt.Tensor], inputs: Sequence[tt.Tensor],
                    rel_tol: float, eps: Optional[float] = None) -> float:
    """Compare analytic gradients of scalar fn against central differences.

    Returns the worst relative error; raises NumericError when it exceeds
    rel_tol. Inputs must all have requires_grad set.
    """
    tt.reset_tape()
    for t in inputs:
        t.grad = None
    loss = fn(inputs)
    tt.backward(loss)
    numeric = numeric_gradient(fn, inputs, eps=eps)
    worst = 0.0
    for t, num in zip(inputs, numeric):
        if t.grad is None:
            raise NumericError("check_gradients: input missing analytic gradient")
        denom = max(float(np.max(np.abs(num))), float(np.max(np.abs(t.grad))), 1e-8)
        err = float(np.max(np.abs(t.grad.astype(np.float64) - num.astype(np.float64)))) / denom
        worst = max(worst, err)
    if worst > rel_tol:
        raise NumericError(f"gradient check failed: max relative error {worst:.3e} > {rel_tol:.1e}")
    return worst


def stft_roundtrip() -> None:
    """``istft(stft(x))`` returns white noise away from the edges."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=44100) * 0.1
    y = dsp.istft(dsp.stft(AudioBuffer(x, 44100)))
    n = min(len(y), len(x))
    c = slice(1024, n - 1024)
    err = np.linalg.norm(y[c] - x[c]) / np.linalg.norm(x[c])
    if not err < 1e-4:
        raise NumericError(f"stft roundtrip: relative error {err:.2e} >= 1e-4")


def sinc_oracle() -> None:
    """A 1 kHz tone upsampled 2x matches the closed-form tone at 44.1 kHz."""
    sr, n = 22050, 22050
    t = np.arange(n) / sr
    up = dsp.sinc_upsample(AudioBuffer(0.5 * np.sin(2 * np.pi * 1000 * t), sr), 2)
    ref = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(2 * n) / (2 * sr))
    c = slice(int(0.1 * 2 * n), int(0.9 * 2 * n))
    err = np.max(np.abs(up.samples[c] - ref[c]))
    if not err < 1e-3:
        raise NumericError(f"sinc: 1 kHz tone max error {err:.2e} >= 1e-3")


def istft_one_shot(spec: np.ndarray, hop: int = dsp.HOP) -> np.ndarray:
    """``dsp.istft`` as one pass over all frames: every frame's inverse
    transform at once, overlap-added in frame order."""
    n_fft = 2 * (spec.shape[1] - 1)
    window = dsp._hann_periodic(n_fft)
    n_frames, pieces = spec.shape[0], n_fft // hop
    frames = (np.fft.irfft(spec, n=n_fft, axis=1) * window).reshape(n_frames, pieces, hop)
    wsq_pieces = (window * window).reshape(pieces, hop)
    y = np.zeros((n_frames + pieces - 1, hop))
    norm = np.zeros_like(y)
    for j in range(pieces - 1, -1, -1):
        y[j:j + n_frames] += frames[:, j]
        norm[j:j + n_frames] += wsq_pieces[j]
    y, norm = y.reshape(-1), norm.reshape(-1)
    np.divide(y, norm, out=y, where=norm > 1e-10)
    pad = n_fft // 2
    return y[pad:len(y) - pad]


def reconstruct_one_shot(spec: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``dsp.reconstruct_full``'s samples from the whole rescaled spectrum
    at once, put through ``istft_one_shot``."""
    magnitude = np.abs(spec)
    scale = np.empty_like(magnitude)
    scale[:, :dsp.LOW_BINS] = np.maximum(magnitude[:, :dsp.LOW_BINS], dsp.LOG_MAG_FLOOR)
    scale[:, dsp.LOW_BINS:] = np.exp(high)
    silent = magnitude == 0.0
    np.divide(scale, magnitude, out=scale, where=~silent)
    full = spec * scale
    full[silent] = scale[silent]
    return np.clip(istft_one_shot(full), -1.0, 1.0)


def log_power_one_shot(audio: AudioBuffer, cfg: metrics.LsdConfig) -> np.ndarray:
    """Base-10 log power spectrogram of the whole signal, floored as
    ``metrics.lsd`` floors it."""
    power = np.square(np.abs(dsp.stft(audio, n_fft=cfg.n_fft, hop=cfg.hop)))
    return np.log10(np.maximum(power, metrics.POWER_FLOOR))


def lsd_one_shot(reference: AudioBuffer, approx: AudioBuffer,
                 cfg: metrics.LsdConfig = metrics.LsdConfig()) -> float:
    """``metrics.lsd`` over both whole log power spectrograms at once."""
    x, y = (AudioBuffer(a, reference.sample_rate) for a in metrics._aligned(reference, approx))
    diff = log_power_one_shot(x, cfg) - log_power_one_shot(y, cfg)
    return float(np.mean(np.sqrt(np.mean(np.square(diff), axis=1))))


def lsd_direct(reference: AudioBuffer, approx: AudioBuffer) -> float:
    """``metrics.lsd`` written as explicit frame and bin loops."""
    cfg = metrics.LsdConfig()
    x, y = (log_power_one_shot(AudioBuffer(a, reference.sample_rate), cfg)
            for a in metrics._aligned(reference, approx))
    n_frames, n_bins = x.shape
    acc = 0.0
    for l in range(n_frames):
        inner = 0.0
        for k in range(n_bins):
            diff = x[l, k] - y[l, k]
            inner += diff * diff
        acc += math.sqrt(inner / n_bins)
    return acc / n_frames


def lsd_oracle() -> None:
    """The vectorized ``metrics.lsd`` agrees with ``lsd_direct`` on noise pairs."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = AudioBuffer(rng.normal(size=16384) * 0.2, 44100)
        y = AudioBuffer(rng.normal(size=16384) * 0.2, 44100)
        diff = abs(metrics.lsd(x, y) - lsd_direct(x, y))
        if not diff < 1e-9:
            raise NumericError(f"lsd: optimized vs direct differ by {diff:.2e}")


def spectral_norm() -> None:
    """Power iteration drives a static weight's normalized sigma to one."""
    rng = np.random.default_rng(5)
    u = rng.normal(size=16)
    sn = {"w": (u / np.linalg.norm(u)).astype(np.float32)}
    w = tt.Tensor(rng.normal(size=(16, 16)), requires_grad=True)
    with tt.no_grad():
        for _ in range(50):
            model.spectral_normalize(w, sn, "w", update=True)
        normalized = model.spectral_normalize(w, sn, "w", update=False)
    sigma = np.linalg.svd(normalized.data, compute_uv=False)[0]
    if not 0.95 <= sigma <= 1.05:
        raise NumericError(f"spectral norm: sigma {sigma:.4f} outside [0.95, 1.05]")


def group_independence() -> None:
    """Perturbing one input channel group of a grouped convolution changes
    exactly the matching output group, bit for bit."""
    rng = np.random.default_rng(9)
    c = 256
    for g in (4, 16, 64, 256):
        x = rng.normal(size=(1, c, 16)).astype(np.float32)
        w = tt.Tensor(rng.normal(size=(c, c // g, 4)).astype(np.float32))
        b = tt.Tensor(np.zeros(c, dtype=np.float32))
        with tt.no_grad():
            base = tt.conv1d_grouped(tt.Tensor(x), w, b, stride=2, padding=1, groups=g).data
            x2 = x.copy()
            x2[:, c // g:2 * c // g] += 1.0  # perturb group 1 only
            out2 = tt.conv1d_grouped(tt.Tensor(x2), w, b, stride=2, padding=1, groups=g).data
        changed = np.nonzero(np.any(base != out2, axis=(0, 2)))[0]
        if not np.array_equal(changed, np.arange(c // g, 2 * c // g)):
            raise NumericError(f"group independence violated at groups={g}")
