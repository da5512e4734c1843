"""Spans around upband's public functions, recorded from outside the package.

Every public function of the traced modules is replaced by a wrapper at
each name it is bound under, in every ``upband`` module: ``training``
imports ``generator_forward`` by name, so patching ``model`` alone would
miss the training calls. Each binding site gets its own wrapper so a site
that never fires can be told apart from one that was never patched.

Spans are kept in memory as ``[name, start, end, parent_index]`` and
written out by the caller when the run ends. A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

TRACED_MODULES = ("tensor", "model", "training", "dsp", "pipeline", "metrics", "data",
                  "checkpoint")


def _attn_elems(args, kwargs):
    """B * H * T^2 * n_layers for one generator_forward(params, cfg, low) call."""
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    low = args[2] if len(args) > 2 else kwargs["low"]
    shape = low.shape
    b, t = (1, shape[0]) if len(shape) == 2 else (shape[0], shape[1])
    return b * cfg.n_heads * t * t * cfg.n_layers


def _tape_nodes(args, kwargs):
    from upband import tensor
    active_tape = getattr(tensor.active_tape, "__wrapped__", tensor.active_tape)
    return len(active_tape().nodes)


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


# span name -> (counter name, "enter" or "exit", function of the call's arguments)
COUNTERS = {
    "tensor.backward": ("tape_nodes", "enter", _tape_nodes),
    "model.generator_forward": ("attn_elems", "enter", _attn_elems),
    "checkpoint.save_tensors": ("bytes", "exit", _file_bytes),
}


class Tracer:
    """Owns the wrappers, the span list and the per-site call counts."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.site_calls: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every public function of TRACED_MODULES at every binding site."""
        import upband
        mods = {info.name: importlib.import_module(f"upband.{info.name}")
                for info in pkgutil.iter_modules(upband.__path__)}
        targets = {}
        for short in TRACED_MODULES:
            mod = mods[short]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(fn)] = (f"{short}.{attr}", fn)
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and inspect.isfunction(value):
                    span_name, fn = targets[id(value)]
                    setattr(mod, attr, self._wrap(span_name, f"{short}:{attr}", fn))

    def _wrap(self, name: str, site: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, counts, site_calls = self.spans, self._stack, self.counts, self.site_calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            site_calls[site] += 1
            if counter is not None and counter[1] == "enter":
                counts[f"{name}.{counter[0]}"] += counter[2](args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None and counter[1] == "exit":
                counts[f"{name}.{counter[0]}"] += counter[2](args, kwargs)
            return result

        return wrapper


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out


def train_phases(spans: list[list]) -> tuple[float, float]:
    """Discriminator and generator phase seconds summed over train_step spans.

    Each step is split at the end of its first adam_step child: everything
    before it is the discriminator update, everything after the generator's.
    """
    first_adam: dict[int, int] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        if name == "training.adam_step" and parent >= 0 and parent not in first_adam:
            first_adam[parent] = i
    d_phase = g_phase = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        if name == "training.train_step" and i in first_adam:
            split = spans[first_adam[i]][2]
            d_phase += split - start
            g_phase += end - split
    return d_phase, g_phase


def calls_under(spans: list[list], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count
