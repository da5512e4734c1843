"""Each oracle in ``oracles.py`` holds on the library as it is and trips when
the function it checks is broken."""

import numpy as np
import pytest

from upband import dsp, metrics, model, tensor as tt
from upband.errors import NumericError

import oracles


def _softmax_gradcheck():
    rng = np.random.default_rng(7)
    ins = [tt.Tensor(rng.normal(size=(4, 6)), requires_grad=True, dtype=np.float64)
           for _ in range(2)]
    oracles.check_gradients(lambda i: tt.tsum(tt.mul(tt.softmax(i[0]), i[1])), ins,
                            rel_tol=1e-6)


def _softmax_identity_backward(monkeypatch):
    softmax = tt.softmax
    monkeypatch.setattr(tt, "softmax", lambda a, axis=-1: tt._result(
        softmax(tt.Tensor(a.data), axis).data, (a,), lambda g: (g,)))


def _scale_istft(monkeypatch):
    istft = dsp.istft
    monkeypatch.setattr(dsp, "istft", lambda spec: 1.001 * istft(spec))


def _shift_upsample(monkeypatch):
    upsample = dsp.sinc_upsample
    monkeypatch.setattr(dsp, "sinc_upsample", lambda audio, factor: dsp.AudioBuffer(
        np.roll(upsample(audio, factor).samples, 1), audio.sample_rate * factor))


def _offset_lsd(monkeypatch):
    lsd = metrics.lsd
    monkeypatch.setattr(metrics, "lsd", lambda *args: lsd(*args) + 1e-6)


def _skip_spectral_norm(monkeypatch):
    monkeypatch.setattr(model, "spectral_normalize", lambda weight, *args, **kw: weight)


def _leak_channel_mean(monkeypatch):
    conv = tt.conv1d_grouped
    monkeypatch.setattr(tt, "conv1d_grouped", lambda x, *args, **kw: tt.Tensor(
        conv(x, *args, **kw).data + x.data.mean(axis=(1, 2), keepdims=True)))


# per oracle, a call of it and a patch that breaks the function it checks
_CASES = {
    "check_gradients": (_softmax_gradcheck, _softmax_identity_backward),
    "stft_roundtrip": (oracles.stft_roundtrip, _scale_istft),
    "sinc_oracle": (oracles.sinc_oracle, _shift_upsample),
    "lsd_oracle": (oracles.lsd_oracle, _offset_lsd),
    "spectral_norm": (oracles.spectral_norm, _skip_spectral_norm),
    "group_independence": (oracles.group_independence, _leak_channel_mean),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_oracle_holds_then_trips_when_broken(name, monkeypatch):
    oracle, break_it = _CASES[name]
    oracle()
    break_it(monkeypatch)
    with pytest.raises(NumericError):
        oracle()
