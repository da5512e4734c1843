import struct

import numpy as np
import pytest

from upband import data, tensor as tt
from upband.model import DiscriminatorConfig, GeneratorConfig


@pytest.fixture(autouse=True)
def empty_tape():
    """Start every test on an empty tape: a backward keeps the nodes that
    are not its loss's ancestors, so they would otherwise reach the next
    test."""
    tt.reset_tape()


def tiny_gen_cfg(**kw):
    base = dict(n_layers=2, d_model=64, n_heads=2, d_ff=128)
    base.update(kw)
    return GeneratorConfig(**base)


def tiny_disc_cfg(**kw):
    base = dict(group_counts=(1, 4, 16, 64), channels=64)
    base.update(kw)
    return DiscriminatorConfig(**base)


# KSDATAFORMAT_SUBTYPE_* GUIDs after their leading two-byte format code
_SUBTYPE_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def fmt_body(fmt_code, bits, channels=1, sr=22050, extensible=False):
    """A 'fmt ' chunk body; ``extensible`` writes the WAVE_FORMAT_EXTENSIBLE
    tag and puts ``fmt_code`` into the SubFormat GUID."""
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else fmt_code, channels, sr,
                       sr * block, block, bits)
    if extensible:
        body += struct.pack("<HHIH", 22, bits, 0, fmt_code) + _SUBTYPE_TAIL
    return body


def write_riff(path, fmt, data_body):
    """Write a RIFF/WAVE file made of one 'fmt ' and one 'data' chunk."""
    riff = 4 + 8 + len(fmt) + 8 + len(data_body)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", riff) + b"WAVE")
        f.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        f.write(b"data" + struct.pack("<I", len(data_body)) + data_body)


@pytest.fixture(scope="session")
def small_examples():
    rng = np.random.default_rng(2)
    return [data.make_pair(data.synth_signal(rng, 0.4), source=f"mem_{i}")
            for i in range(3)]


@pytest.fixture(scope="session")
def synth_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    data.synth_corpus(seed=0, n_files=8, duration_s=0.4, out_dir=root)
    return root
