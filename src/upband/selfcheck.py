"""Invariant oracles, run by ``upband check`` and by the test suite.

Each oracle checks one invariant the pipeline rests on against an
independent reference and raises ``NumericError`` when it does not hold.
Oracles reach the library through module attributes (``dsp.istft``,
``metrics.lsd``, ...), so patching the function under check makes its
oracle trip.
"""

from __future__ import annotations

import math

import numpy as np

from . import dsp, metrics, model, tensor as tt
from .dsp import AudioBuffer
from .errors import NumericError


def gradcheck() -> None:
    """Analytic gradients of the composite primitives against central differences."""
    rng = np.random.default_rng(7)
    cases = [
        (lambda ins: tt.tsum(tt.matmul(ins[0], ins[1])), [(3, 4), (4, 2)]),
        (lambda ins: tt.tsum(
            tt.conv1d_grouped(ins[0], ins[1], ins[2], stride=2, padding=1, groups=4)),
         [(1, 8, 12), (8, 2, 4), (8,)]),
        (lambda ins: tt.tsum(tt.mul(tt.softmax(ins[0]), ins[1])), [(4, 6), (4, 6)]),
        (lambda ins: tt.tsum(tt.mul(tt.layer_norm(ins[0], ins[1], ins[2]), ins[3])),
         [(3, 8), (8,), (8,), (3, 8)]),
    ]
    for fn, shapes in cases:
        inputs = [tt.Tensor(rng.normal(size=s), requires_grad=True, dtype=np.float64)
                  for s in shapes]
        tt.check_gradients(fn, inputs, rel_tol=1e-6)


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


def lsd_direct(reference: AudioBuffer, approx: AudioBuffer) -> float:
    """``metrics.lsd`` written as explicit frame and bin loops."""
    cfg = metrics.LsdConfig()
    reference, approx = metrics._aligned(reference, approx)
    x = metrics._log_power(reference, cfg)
    y = metrics._log_power(approx, cfg)
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


SUITES = [
    ("gradcheck", gradcheck),
    ("stft_roundtrip", stft_roundtrip),
    ("sinc_oracle", sinc_oracle),
    ("lsd_oracle", lsd_oracle),
    ("spectral_norm", spectral_norm),
    ("group_independence", group_independence),
]
