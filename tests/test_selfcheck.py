import numpy as np
import pytest

from upband import dsp, metrics, model, selfcheck, tensor as tt
from upband.errors import NumericError


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


# per oracle, a patch that breaks the function it checks
_BREAKS = {"gradcheck": _softmax_identity_backward, "stft_roundtrip": _scale_istft,
           "sinc_oracle": _shift_upsample, "lsd_oracle": _offset_lsd,
           "spectral_norm": _skip_spectral_norm, "group_independence": _leak_channel_mean}


@pytest.mark.parametrize("name,oracle", selfcheck.SUITES, ids=[n for n, _ in selfcheck.SUITES])
def test_oracle_holds_then_trips_when_broken(name, oracle, monkeypatch):
    oracle()
    _BREAKS[name](monkeypatch)
    with pytest.raises(NumericError):
        oracle()

