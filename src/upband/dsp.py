"""Waveform and spectrogram processing.

Covers the signal path around the model: windowed-sinc upsampling and
anti-aliased decimation, centered STFT / least-squares iSTFT, log
magnitudes, and full-band reconstruction that rescales the interpolated
signal's complex spectrum, keeping its phase.

The spectral kernels walk their frames in blocks of FRAME_BLOCK bytes of
float64 frames. ``stft`` windows and transforms one block at a time into
its preallocated output, and ``istft`` and ``reconstruct_full`` rescale,
inverse-transform and overlap-add one block at a time, in frame order. So
their temporaries are a block's, never a whole spectrogram's, and each
row's FFT and each output sample's frame-order sum are what one pass over
all frames gives. ``_stft_segments`` cuts a signal into pieces whose STFTs
are one block each and hold its frames byte for byte, for consumers such as
``metrics.lsd`` that reduce each block as it comes.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ShapeError

log = logging.getLogger(__name__)

SAMPLE_RATE = 44100              # the full rate; the model's input runs at half of it
N_FFT = 1024
HOP = 256
N_BINS = N_FFT // 2 + 1          # 513
LOW_BINS = N_FFT // 4 + 1        # 257 conditioning bins
HIGH_BINS = N_BINS - LOW_BINS    # 256 predicted bins
LOG_MAG_FLOOR = 1e-5

# Truncated realization of ideal band-limited interpolation: Kaiser window
# with the passband edge at the band edge itself, so the transition band
# straddles Nyquist instead of eating into the top working bins.
FILTER_TAPS = 129
KAISER_BETA = 8.6
# The decimator hands on the band the model conditions on, so its kernel is
# long enough to keep the transition band inside 11.0-11.25 kHz at 44.1 kHz:
# conditioning bins up to 255 (11.0 kHz) lose at most 1 dB and nothing folds
# back into them (-98 dB at 11.25 kHz). At 129 taps the transition band is about
# 1.9 kHz wide, damping 10.8 kHz by 2.4 dB and folding 11.25 kHz back at -12 dB.
DECIMATOR_TAPS = 2049
# bytes of one frame block's float64 frames: 128 frames at N_FFT (0.74 s at
# 44.1 kHz), so the median clip is one block, and 64 at the LSD's 2048
FRAME_BLOCK = 1 << 20


@dataclass
class AudioBuffer:
    """Mono waveform plus its sample rate; samples nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError(f"AudioBuffer: expected mono 1-D samples, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("AudioBuffer: samples must be finite")
        if self.sample_rate <= 0:
            raise DataError(f"AudioBuffer: sample rate must be positive, got {self.sample_rate}")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    @classmethod
    def _unchecked(cls, samples: np.ndarray, sample_rate: int) -> "AudioBuffer":
        """A buffer of float64 1-D ``samples`` already known to be finite,
        such as a slice of another buffer's, built without checking them again."""
        buf = object.__new__(cls)
        buf.samples, buf.sample_rate = samples, sample_rate
        return buf


@functools.lru_cache(maxsize=8)
def _hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window; cached, since ``metrics.lsd`` makes an STFT per
    frame block; the returned array is read-only."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=8)
def _windowed_sinc(cutoff: float, taps: int = FILTER_TAPS, beta: float = KAISER_BETA) -> np.ndarray:
    """Linear-phase low-pass FIR; cutoff in cycles/sample, unit DC gain.

    Cached, since the Kaiser window of the long decimator kernel costs about
    as much as filtering a short clip; the returned array is read-only.
    """
    m = (taps - 1) // 2
    n = np.arange(taps) - m
    h = 2.0 * cutoff * np.sinc(2.0 * cutoff * n)
    h *= np.kaiser(taps, beta)
    h /= np.sum(h)
    h.flags.writeable = False
    return h


def sinc_upsample(audio: AudioBuffer, factor: int) -> AudioBuffer:
    """Band-limited interpolation: zero insertion + windowed-sinc low-pass.

    Output has exactly factor * len(audio) samples at factor * sample_rate,
    time-aligned with the input (group delay compensated). Accuracy degrades
    near the edges where the truncated kernel runs off the signal.
    """
    if factor < 2:
        raise DataError(f"sinc_upsample: factor must be >= 2, got {factor}")
    if len(audio) == 0:
        raise DataError("sinc_upsample: empty input")
    n = len(audio)
    up = np.zeros(n * factor, dtype=np.float64)
    up[::factor] = audio.samples
    h = _windowed_sinc(0.5 / factor) * factor
    delay = (len(h) - 1) // 2
    y = np.convolve(up, h, mode="full")[delay:delay + n * factor]
    return AudioBuffer(y, audio.sample_rate * factor)


def _fft_size(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT handles quickly."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def downsample(audio: AudioBuffer, factor: int) -> AudioBuffer:
    """Anti-aliased decimation; trims the tail to a multiple of factor.

    The low-pass uses DECIMATOR_TAPS taps, applied as one FFT convolution
    with the signal taken as zero beyond its ends; output sample m is
    aligned with input sample factor * m.
    """
    if factor < 2:
        raise DataError(f"downsample: factor must be >= 2, got {factor}")
    x = audio.samples
    n = (len(x) // factor) * factor
    if n == 0:
        raise DataError("downsample: input shorter than one output sample")
    x = x[:n]
    h = _windowed_sinc(0.5 / factor, DECIMATOR_TAPS)
    delay = (len(h) - 1) // 2
    size = _fft_size(n + len(h) - 1)  # no circular wrap into the kept samples
    spectrum = np.fft.rfft(x, size)
    spectrum *= np.fft.rfft(h, size)
    y = np.fft.irfft(spectrum, size)[delay:delay + n]
    return AudioBuffer(y[::factor], audio.sample_rate // factor)


def _block_frames(n_fft: int) -> int:
    """Frames in one block of ``n_fft``-sample frames (at least one)."""
    return max(1, FRAME_BLOCK // (8 * n_fft))


def _frame_blocks(n_frames: int, n_fft: int):
    """(start, stop) of each block of ``n_fft``-sample frames, in frame order."""
    step = _block_frames(n_fft)
    for start in range(0, n_frames, step):
        yield start, min(start + step, n_frames)


def stft(audio: AudioBuffer, n_fft: int = N_FFT, hop: int = HOP) -> np.ndarray:
    """Centered STFT with a periodic Hann window and reflect padding: complex
    [frames, n_fft // 2 + 1]. Frames are windowed into one block-sized
    buffer and transformed straight into the output, one frame block at a
    time."""
    x = audio.samples
    if len(x) < n_fft:
        raise DataError(f"stft: audio length {len(x)} shorter than n_fft {n_fft}")
    pad = n_fft // 2
    xp = np.pad(x, (pad, pad), mode="reflect")
    frames = sliding_window_view(xp, n_fft)[::hop]
    window = _hann_periodic(n_fft)
    spec = np.empty((len(frames), n_fft // 2 + 1), dtype=np.complex128)
    windowed = np.empty((min(len(frames), _block_frames(n_fft)), n_fft))
    for start, stop in _frame_blocks(len(frames), n_fft):
        block = np.multiply(frames[start:stop], window, out=windowed[:stop - start])
        np.fft.rfft(block, axis=1, out=spec[start:stop])
    return spec


def _segment(n_samples: int, start: int, stop: int, n_fft: int = N_FFT,
             hop: int = HOP) -> tuple[slice, slice]:
    """Where frames [start, stop) of the ``stft`` of an ``n_samples`` signal
    come from without a whole-signal STFT: ``stft(x[samples])[frames]`` is
    byte-identical to ``stft(x)[start:stop]``. The segment holds every sample
    those frames read and starts early enough that none of them reads its
    reflect padding, except at an end of the signal, where that padding is
    the whole signal's. It is never shorter than ``n_fft``."""
    pad = n_fft // 2
    first = max(min(start - -(-pad // hop), (n_samples - n_fft) // hop), 0)
    begin = first * hop
    end = min(n_samples, max(begin + n_fft, (stop - 1) * hop - pad + n_fft))
    return slice(begin, end), slice(start - first, stop - first)


def _stft_segments(n_samples: int, n_fft: int, hop: int):
    """``_segment`` over consecutive runs of frames that cover the ``stft``
    of an ``n_samples`` signal, each run short enough that its segment's
    STFT is one frame block. A signal shorter than ``n_fft`` still gives
    one segment, which ``stft`` refuses."""
    n_frames = 1 + (n_samples + 2 * (n_fft // 2) - n_fft) // hop
    # a segment's STFT also holds the context frames on either side of its run
    run = max(1, _block_frames(n_fft) - 2 * -(-n_fft // (2 * hop)))
    for start in range(0, max(n_frames, 1), run):
        yield _segment(n_samples, start, min(start + run, n_frames), n_fft, hop)


def istft(spec, hop: int = HOP) -> np.ndarray:
    """Least-squares overlap-add inverse of ``stft`` (window-square
    normalized): samples from a complex [frames, bins] spectrogram whose
    frame length is 2 * (bins - 1).

    ``spec`` is read one frame block at a time, as ``spec[start:stop]``, so
    any object with a ``shape`` that slices into frame blocks will do."""
    n_frames, n_bins = spec.shape
    n_fft = 2 * (n_bins - 1)
    window = _hann_periodic(n_fft)
    wsq = window * window
    # constant-overlap-add condition: hop divides n_fft, and the squared
    # window's hop-long blocks cover every position of a block
    if n_fft % hop != 0 or np.any(wsq.reshape(-1, hop).sum(axis=0) < 1e-8):
        raise DataError(f"istft: window/hop combination (hann {n_fft}, hop {hop}) violates "
                        "the overlap-add constant condition")
    # overlap-add in hop-long pieces: piece j of frame t lands on segment
    # t + j, and adding the last piece first sums every segment in frame
    # order, within a frame block and from one block to the next
    pieces = n_fft // hop
    y = np.zeros((n_frames + pieces - 1, hop))
    for start, stop in _frame_blocks(n_frames, n_fft):
        frames = np.fft.irfft(spec[start:stop], n=n_fft, axis=1)
        frames *= window
        frames = frames.reshape(stop - start, pieces, hop)
        for j in range(pieces - 1, -1, -1):
            y[start + j:stop + j] += frames[:, j]
        del frames  # before the next block's spectrum is made
    # the squared window overlap-added in the same order: over more than
    # `pieces` frames, rows for the first and last pieces - 1 segments and
    # one row that every segment between them shares
    k = min(n_frames, pieces)
    norm = np.zeros((k + pieces - 1, hop))
    wsq_pieces = wsq.reshape(pieces, hop)
    for j in range(pieces - 1, -1, -1):
        norm[j:j + k] += wsq_pieces[j]
    e = pieces - 1
    parts = [(y, norm)] if k == n_frames else \
        [(y[:e], norm[:e]), (y[e:n_frames], norm[e]), (y[n_frames:], norm[e + 1:])]
    for part, weight in parts:
        np.divide(part, weight, out=part, where=weight > 1e-10)
    y = y.reshape(-1)
    pad = n_fft // 2
    return y[pad:len(y) - pad]


def to_log_magnitude(magnitude: np.ndarray) -> np.ndarray:
    """Natural-log magnitudes, floored at LOG_MAG_FLOOR before the log."""
    out = np.maximum(magnitude, LOG_MAG_FLOOR)
    return np.log(out, out=out)


class _FullSpectrum:
    """``spec`` with each bin scaled to the magnitude ``reconstruct_full``
    gives it, made one frame block at a time as ``istft`` slices it, so the
    whole of it is never held."""

    def __init__(self, spec: np.ndarray, high: np.ndarray):
        self.spec, self.high, self.shape = spec, high, spec.shape

    def __getitem__(self, frames: slice) -> np.ndarray:
        spec = self.spec[frames]
        magnitude = np.abs(spec)
        # target over current magnitude; a silent bin keeps its target, at phase 0
        scale = np.empty_like(magnitude)
        np.maximum(magnitude[:, :LOW_BINS], LOG_MAG_FLOOR, out=scale[:, :LOW_BINS])
        np.exp(self.high[frames], out=scale[:, LOW_BINS:])
        silent = magnitude == 0.0
        np.divide(scale, magnitude, out=scale, where=~silent)
        full = spec * scale
        full[silent] = scale[silent]
        return full


def reconstruct_full(spec: np.ndarray, high: np.ndarray, sample_rate: int) -> AudioBuffer:
    """Full-band waveform from the interpolated signal's complex spectrum
    ``spec`` [T, N_BINS] and predicted upper log magnitudes ``high``
    [T, HIGH_BINS].

    Every bin keeps the phase of ``spec``. The lower LOW_BINS bins keep its
    magnitude, floored at LOG_MAG_FLOOR; the upper bins take ``exp(high)``.
    A bin where ``spec`` is 0 takes phase 0. The result goes through
    ``istft``, which scales, inverse-transforms and overlap-adds one frame
    block at a time.

    Output is clamped to [-1, 1]; any clipping is reported via the module
    logger rather than silently discarded.
    """
    if spec.shape[0] != high.shape[0]:
        raise ShapeError(f"reconstruct_full: frame counts differ "
                         f"(spec {spec.shape[0]}, high {high.shape[0]})")
    if spec.shape[1] != N_BINS or high.shape[1] != HIGH_BINS:
        raise ShapeError(f"reconstruct_full: need {N_BINS} spectrum bins and {HIGH_BINS} "
                         f"predicted bins, got {spec.shape[1]} and {high.shape[1]}")
    samples = istft(_FullSpectrum(spec, high))
    clipped = int(np.count_nonzero(np.abs(samples) > 1.0))
    if clipped:
        log.warning("reconstruct_full: clamped %d samples outside [-1, 1]", clipped)
        np.clip(samples, -1.0, 1.0, out=samples)
    return AudioBuffer(samples, sample_rate)
