"""Audio file I/O, paired-example construction, and corpus handling.

WAV support is a small RIFF parser: PCM 16- and 24-bit and IEEE float
32-bit, plain or ``WAVE_FORMAT_EXTENSIBLE``, mono or multichannel
(downmixed with a warning). Training pairs are built by decimating
full-rate ground truth, re-interpolating it, and splitting the
spectrogram into conditioning and target bins. A seeded
harmonic-stack generator provides a small corpus whose upper band is a
deterministic function of the lower band, so the prediction task is
learnable at desk scale.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dsp import AudioBuffer, LOW_BINS
from .errors import DataError, WavFormatError

log = logging.getLogger(__name__)

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
# (format code, bits per sample) -> little-endian sample dtype and full scale
_CODECS = {(_FMT_PCM, 16): ("<i2", 32768.0), (_FMT_PCM, 24): ("<i4", 2.0 ** 31),
           (_FMT_IEEE_FLOAT, 32): ("<f4", 1.0)}


# ---------------------------------------------------------------------------
# WAV I/O


def read_wav(path) -> AudioBuffer:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"read_wav: cannot read {path}: {exc}") from exc
    view = memoryview(blob)  # chunk bodies are slices of it, not copies
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WavFormatError(f"read_wav: {path} is not a RIFF/WAVE file")
    fmt = None
    data = None
    off = 12
    while off + 8 <= len(blob):
        chunk_id = blob[off:off + 4]
        (chunk_size,) = struct.unpack_from("<I", blob, off + 4)
        body = view[off + 8:off + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"read_wav: {path}: truncated 'fmt ' chunk")
            fmt = list(struct.unpack_from("<HHIIHH", body, 0))
            if fmt[0] == _FMT_EXTENSIBLE:
                # the SubFormat GUID at byte 24 starts with the format code
                if len(body) < 40:
                    raise WavFormatError(f"read_wav: {path}: truncated 'fmt ' chunk "
                                         f"(extensible format needs 40 bytes, got {len(body)})")
                (fmt[0],) = struct.unpack_from("<H", body, 24)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(f"read_wav: {path}: truncated 'data' chunk "
                                     f"(expected {chunk_size} bytes, got {len(body)})")
            data = body
        off += 8 + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise WavFormatError(f"read_wav: {path}: missing 'fmt ' chunk")
    if data is None:
        raise WavFormatError(f"read_wav: {path}: missing 'data' chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if sample_rate == 0:
        raise WavFormatError(f"read_wav: {path}: sample rate is zero")
    codec = _CODECS.get((audio_format, bits))
    if codec is None:
        raise WavFormatError(f"read_wav: {path}: unsupported codec (format {audio_format}, "
                             f"{bits}-bit); need PCM-16, PCM-24 or float-32")
    dtype, full_scale = codec
    width = bits // 8
    raw = np.frombuffer(data, dtype=np.uint8, count=len(data) // width * width)
    if width == 3:
        # each 24-bit sample becomes the top three bytes of an int32
        padded = np.zeros((raw.size // 3, 4), dtype=np.uint8)
        padded[:, 1:] = raw.reshape(-1, 3)
        raw = padded.reshape(-1)
    samples = raw.view(dtype).astype(np.float64) / full_scale
    if channels > 1:
        log.warning("read_wav: %s has %d channels; averaging to mono", path, channels)
        samples = samples[:len(samples) // channels * channels]
        samples = samples.reshape(-1, channels).mean(axis=1)
    elif channels == 0:
        raise WavFormatError(f"read_wav: {path}: zero channels")
    return AudioBuffer(samples, sample_rate)


def write_wav(path, audio: AudioBuffer) -> None:
    """IEEE float 32-bit mono; round-trips float32 sample values exactly."""
    samples = audio.samples.astype("<f4")
    sr = audio.sample_rate
    fmt_body = struct.pack("<HHIIHH", _FMT_IEEE_FLOAT, 1, sr, sr * 4, 4, 32)
    fact_body = struct.pack("<I", len(samples))
    riff_size = 4 + (8 + len(fmt_body)) + (8 + len(fact_body)) + (8 + samples.nbytes)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE")
        f.write(b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body)
        f.write(b"fact" + struct.pack("<I", len(fact_body)) + fact_body)
        f.write(b"data" + struct.pack("<I", samples.nbytes))
        f.write(samples)  # the array's own buffer, not a bytes copy of it


# ---------------------------------------------------------------------------
# paired examples


@dataclass
class TrainingExample:
    low_log_mag: np.ndarray        # [T, 257] from the re-interpolated signal
    high_log_mag_real: np.ndarray  # [T, 256] from the ground-truth signal


def make_pair(high: AudioBuffer, source: str = "") -> TrainingExample:
    """Build one training example from full-rate ground truth.

    Conditioning bins come from decimate -> interpolate (what the model
    will see at inference time), targets from the ground truth's own STFT.
    """
    if high.sample_rate != dsp.SAMPLE_RATE:
        raise DataError(f"make_pair: {source or 'input'} is at {high.sample_rate} Hz, "
                        f"need {dsp.SAMPLE_RATE} Hz")
    if len(high) < dsp.N_FFT:
        raise DataError(f"make_pair: need at least {dsp.N_FFT} samples, got {len(high)}")
    n_even = len(high) - (len(high) % 2)
    truth = AudioBuffer(high.samples[:n_even], high.sample_rate)
    interp = dsp.sinc_upsample(dsp.downsample(truth, 2), 2)

    low = dsp.to_log_magnitude(np.abs(dsp.stft(interp)[:, :LOW_BINS]))
    high_bins = dsp.to_log_magnitude(np.abs(dsp.stft(truth)[:, LOW_BINS:]))

    if not (np.all(np.isfinite(low)) and np.all(np.isfinite(high_bins))):
        raise DataError(f"make_pair: non-finite spectrogram values from {source or 'input'}")
    return TrainingExample(low_log_mag=low.astype(np.float32),
                           high_log_mag_real=high_bins.astype(np.float32))


# ---------------------------------------------------------------------------
# corpus


@dataclass
class Corpus:
    root: Path
    items: list[str]               # relative paths

    def paths(self) -> list[Path]:
        return [self.root / item for item in self.items]


def save_manifest(corpus: Corpus, path) -> None:
    Path(path).write_text("\n".join(corpus.items) + "\n", encoding="utf-8")


def load_manifest(root, path) -> Corpus:
    """One relative path per line; a tab-separated second column is ignored."""
    items = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        item = line.strip().split("\t", 1)[0]
        if item:
            items.append(item)
    return Corpus(root=Path(root), items=items)


def split_corpus(corpus: Corpus, heldout_fraction: float | None = None,
                 heldout_tag: str | None = None, seed: int = 0) -> tuple[Corpus, Corpus]:
    """Deterministic train/held-out split by tag match or seeded shuffle of
    the sorted path list."""
    items = sorted(corpus.items)
    if heldout_tag is not None:
        held = [p for p in items if heldout_tag in p]
        train = [p for p in items if heldout_tag not in p]
    else:
        if heldout_fraction is None:
            raise DataError("split_corpus: need heldout_fraction or heldout_tag")
        rng = np.random.default_rng(seed)
        order = list(rng.permutation(len(items)))
        n_held = max(1, int(round(heldout_fraction * len(items))))
        held_idx = set(order[:n_held])
        held = [items[i] for i in range(len(items)) if i in held_idx]
        train = [items[i] for i in range(len(items)) if i not in held_idx]
    if not held or not train:
        raise DataError(f"split_corpus: split leaves an empty side "
                        f"(train {len(train)}, heldout {len(held)})")
    return Corpus(corpus.root, train), Corpus(corpus.root, held)


# ---------------------------------------------------------------------------
# synthetic corpus


def synth_signal(rng: np.random.Generator, duration_s: float) -> AudioBuffer:
    """Harmonic stack with partials up to 20 kHz plus low-level noise.

    The partial amplitude rolloff exponent is a function of the
    fundamental, so the upper band is predictable from the lower band.
    """
    n = int(round(duration_s * dsp.SAMPLE_RATE))
    t = np.arange(n) / dsp.SAMPLE_RATE
    f0 = float(rng.uniform(200.0, 400.0))
    rolloff = 0.2 + 0.2 * (f0 - 200.0) / 200.0
    n_partials = int(20000.0 // f0)
    x = np.zeros(n)
    for k in range(1, n_partials + 1):
        amp = k ** (-rolloff)
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        x += amp * np.sin(2.0 * np.pi * k * f0 * t + phi)
    # slow amplitude envelope for frame-to-frame variety
    env = 0.6 + 0.4 * np.sin(2.0 * np.pi * 1.5 * t + float(rng.uniform(0, 2 * np.pi)))
    x *= env
    x += 1e-4 * rng.standard_normal(n)
    x *= 0.5 / np.max(np.abs(x))
    return AudioBuffer(x, dsp.SAMPLE_RATE)


def synth_corpus(seed: int, n_files: int, duration_s: float, out_dir) -> Corpus:
    """Write a deterministic synthetic corpus of WAV files plus a manifest."""
    if n_files < 2:
        raise DataError(f"synth_corpus: need at least 2 files (train + heldout), got {n_files}")
    if not (np.isfinite(duration_s) and round(duration_s * dsp.SAMPLE_RATE) > 0):
        raise DataError(f"synth_corpus: duration must be finite and give at least one sample "
                        f"at {dsp.SAMPLE_RATE} Hz, got {duration_s} s")
    if seed < 0:
        raise DataError(f"synth_corpus: seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n_files):
        name = f"synth_{i:04d}.wav"
        write_wav(out_dir / name, synth_signal(rng, duration_s))
        items.append(name)
    corpus = Corpus(root=out_dir, items=items)
    save_manifest(corpus, out_dir / "manifest.txt")
    return corpus


def load_examples(corpus: Corpus, exclude: Corpus | None = None) -> list[TrainingExample]:
    """Read every corpus file into a TrainingExample; refuses files that
    also appear in ``exclude`` (held-out leakage guard)."""
    if exclude is not None:
        leaked = set(corpus.items) & set(exclude.items)
        if leaked:
            raise DataError(f"load_examples: files appear in both splits: {sorted(leaked)[:3]}")
    return [make_pair(read_wav(p), source=str(p)) for p in corpus.paths()]
