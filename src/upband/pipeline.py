"""End-to-end inference: low-rate waveform in, full-band waveform out.

Stages: band-limited interpolation to the target rate, STFT, model
prediction of the upper 256 log-magnitude bins from the lower 257, then
inverse STFT of the interpolated spectrum with its upper magnitudes
replaced by the prediction, every bin keeping the interpolated phase.
"""

from __future__ import annotations

import numpy as np

from . import dsp
from .dsp import AudioBuffer


def upsample_buffer(audio: AudioBuffer, model_fn=None) -> AudioBuffer:
    """Upsample ``audio`` by 2; ``model_fn`` of None gives the plain
    sinc-interpolation baseline. The model path feeds the model the log
    magnitudes of the interpolation's lower LOW_BINS STFT bins and hands
    its prediction and the complex spectrum to ``dsp.reconstruct_full``.
    It zero-pads a signal shorter than one STFT frame to one and trims the
    result back."""
    interp = dsp.sinc_upsample(audio, 2)
    if model_fn is None:
        return interp
    n = len(interp)
    if n < dsp.N_FFT:
        interp = AudioBuffer(np.pad(interp.samples, (0, dsp.N_FFT - n)), interp.sample_rate)
    spec = dsp.stft(interp)
    low = dsp.to_log_magnitude(np.abs(spec[:, :dsp.LOW_BINS]))
    high = np.asarray(model_fn(low), dtype=np.float64)
    out = dsp.reconstruct_full(spec, high, interp.sample_rate)
    return AudioBuffer(out.samples[:n], out.sample_rate)
