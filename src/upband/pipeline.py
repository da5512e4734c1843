"""End-to-end inference: low-rate waveform in, full-band waveform out.

Stages: band-limited interpolation to the target rate, STFT, model
prediction of the upper 256 log-magnitude bins from the lower 257, then
inverse STFT of the interpolated spectrum with its upper magnitudes
replaced by the prediction, every bin keeping the interpolated phase.
The spectral stages walk the file in blocks of whole generator windows,
so their working memory does not grow with the file's length. Inside a
block, the largest arrays are its complex spectrum, kept for its phase,
and the generator's windows; ``dsp.stft`` and ``dsp.reconstruct_full``
run in frame blocks of ``dsp.FRAME_BLOCK`` bytes, so they add no other
array of the block's size.
"""

from __future__ import annotations

import numpy as np

from . import dsp
from .dsp import AudioBuffer

# frames per block, rounded down to whole generator windows (at least one):
# about 6 s of 44.1 kHz output
BLOCK_FRAMES = 1024
# frames on each side of a frame whose samples reach into its STFT window
HALO = dsp.N_FFT // (2 * dsp.HOP)
# frames before an output sample's own frame that overlap-add into it
LEAD_IN = dsp.N_FFT // dsp.HOP - 1


def _window_starts(n_frames: int, max_frames: int) -> tuple[np.ndarray, int]:
    """First frames of ceil(n_frames / max_frames) equal windows over
    ``n_frames`` frames, the last ending at frame ``n_frames``, and their
    length; fewer frames than windows fall in two windows."""
    n = -(-n_frames // max_frames)
    length = -(-n_frames // n)
    return np.minimum(np.arange(n) * length, n_frames - length), length


def upsample_buffer(audio: AudioBuffer, model_fn=None) -> AudioBuffer:
    """Upsample ``audio`` by 2; ``model_fn`` of None gives the plain
    sinc-interpolation baseline.

    The model path feeds ``model_fn`` the log magnitudes of the
    interpolation's lower LOW_BINS STFT bins as windows [n, L, LOW_BINS]
    and takes back [n, L, HIGH_BINS]. Over T frames there are
    n = ceil(T / model_fn.max_frames) windows of L = ceil(T / n) frames, the
    last ending at frame T; where two windows overlap the later one wins.
    ``dsp.reconstruct_full`` turns the prediction and the complex spectrum
    into samples.

    The windows run in blocks of about BLOCK_FRAMES frames. Each block makes
    one ``dsp.stft``, one ``model_fn`` and one ``dsp.reconstruct_full`` call;
    the STFT reads HALO frames of context on each side and the
    reconstruction LEAD_IN frames of the block before, so the output is
    byte-identical to one call of each over the whole file, which is what a
    file of one block makes. Each block logs its own clamp warning; its
    count includes the 2 * HOP samples at the block's edges that the blocks
    beside it recompute. A signal shorter than one STFT frame is zero-padded
    to one and the result trimmed back."""
    interp = dsp.sinc_upsample(audio, 2)
    if model_fn is None:
        return interp
    n, sr, hop = len(interp), interp.sample_rate, dsp.HOP
    x = interp.samples
    if n < dsp.N_FFT:
        x = np.pad(x, (0, dsp.N_FFT - n))
    n_frames = 1 + len(x) // hop
    starts, length = _window_starts(n_frames, model_fn.max_frames)
    per_block = max(1, BLOCK_FRAMES // length)
    # a file of one block returns its reconstruction as it is
    out = np.empty((n_frames - 1) * hop) if len(starts) > per_block else None
    # predictions for the (up to) LEAD_IN frames before the block
    tail = np.empty((0, dsp.HIGH_BINS))
    for k in range(0, len(starts), per_block):
        windows = starts[k:k + per_block]
        # frames [first, final) take this block's prediction; the next
        # block's first window, which wins any overlap, starts at final
        first = windows[0]
        final = starts[k + per_block] if k + per_block < len(starts) else n_frames
        origin = max(first - LEAD_IN, 0)
        # the block's frames, byte-identical to a whole-file STFT's
        segment, kept = dsp._segment(len(x), origin, windows[-1] + length)
        spec = dsp.stft(AudioBuffer(x[segment], sr))[kept]
        frames = (windows - origin)[:, None] + np.arange(length)
        # neither the log magnitudes nor high are alive through the forward,
        # nor pred through the reconstruction: each stage's working set
        # stays at a single pass's
        pred = model_fn(dsp.to_log_magnitude(np.abs(spec[:, :dsp.LOW_BINS]))[frames])
        high = np.empty((len(spec), dsp.HIGH_BINS))
        high[:first - origin] = tail
        high[frames] = pred
        del pred
        used = final - origin
        block = dsp.reconstruct_full(spec[:used], high[:used], sr).samples
        if out is None:
            return AudioBuffer(block[:n], sr)
        # output sample p overlap-adds frames p // HOP - 1 to p // HOP + 2
        begin = max(first - HALO, 0) * hop
        end = (n_frames - 1) * hop if final == n_frames else max(final - HALO, 0) * hop
        out[begin:end] = block[begin - origin * hop:end - origin * hop]
        # a copy, so that this block's arrays go before the next block's
        # STFT and forward allocate theirs
        tail = high[max(used - LEAD_IN, 0):used].copy()
        del spec, high, block
    return AudioBuffer(out[:n], sr)
