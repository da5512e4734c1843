"""Command-line entry point.

Commands: ``synth`` (generate a synthetic corpus), ``train``,
``upsample``, ``evaluate``, ``check``. Exit codes: 0 success, 1 config
error, 2 data error (an output that cannot be written too), 3 numeric
abort, 4 self-check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data, metrics, model, selfcheck, training
from .config import RunConfig, load_config, render_config
from .errors import ConfigError, DataError, NumericError, UpbandError
from .pipeline import upsample_buffer


def _echo(cfg: RunConfig, run_dir: Path | None = None) -> None:
    text = render_config(cfg)
    print(text)
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config_effective.cfg").write_text(text, encoding="utf-8")


def _collect_overrides(args) -> dict:
    overrides = {}
    if getattr(args, "max_steps", None) is not None:
        overrides["train.max_steps"] = args.max_steps
    if getattr(args, "seed", None) is not None:
        overrides["train.seed"] = args.seed
    if getattr(args, "corpus", None):
        overrides["paths.corpus"] = args.corpus
    if getattr(args, "run_dir", None):
        overrides["paths.run_dir"] = args.run_dir
    return overrides


def _load_split(cfg: RunConfig):
    """Train and held-out sides of the corpus. The shuffle's seed is fixed, so
    the held-out set depends only on the corpus and ``[data]``, not on the
    train seed: under the same ``[data]``, evaluate scores no training file."""
    corpus_dir = Path(cfg.paths.corpus)
    manifest = corpus_dir / "manifest.txt"
    if not corpus_dir.is_dir() or not manifest.exists():
        raise DataError(f"corpus not found at {corpus_dir} (expected manifest.txt)")
    corpus = data.load_manifest(corpus_dir, manifest)
    tag = cfg.data.heldout_tag or None
    return data.split_corpus(corpus, heldout_fraction=cfg.data.heldout_fraction,
                             heldout_tag=tag)


def cmd_synth(args) -> int:
    corpus = data.synth_corpus(args.seed, args.files, args.duration, args.out)
    print(f"wrote {len(corpus.items)} files to {corpus.root}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, preset=args.preset, overrides=_collect_overrides(args))
    run_dir = Path(cfg.paths.run_dir)
    _echo(cfg, run_dir)
    train_corpus, heldout = _load_split(cfg)
    examples = data.load_examples(train_corpus, exclude=heldout)
    final = training.train_loop(examples, cfg.generator, cfg.discriminator, cfg.train,
                                run_dir, resume_from=args.resume)
    print(f"final checkpoint: {final}")
    return 0


def _load_model_fn(checkpoint: str, cfg: RunConfig):
    state = training.load_checkpoint(checkpoint, cfg.generator, cfg.discriminator, cfg.train)
    return model.make_generator_fn(state.params, cfg.generator)


def cmd_upsample(args) -> int:
    cfg = load_config(args.config, preset=args.preset)
    _echo(cfg)
    audio = data.read_wav(args.input)
    if audio.sample_rate != 22050:
        raise DataError(f"upsample: expected 22050 Hz input, got {audio.sample_rate} Hz")
    if not args.bypass_model and args.checkpoint is None:
        raise ConfigError("upsample: need --checkpoint or --bypass-model")
    model_fn = None if args.bypass_model else _load_model_fn(args.checkpoint, cfg)
    out = upsample_buffer(audio, model_fn)
    data.write_wav(args.output, out)
    print(f"wrote {args.output}: {len(out)} samples at {out.sample_rate} Hz")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, preset=args.preset, overrides=_collect_overrides(args))
    _echo(cfg)
    train_corpus, heldout = _load_split(cfg)
    if not args.baseline and args.checkpoint is None:
        raise ConfigError("evaluate: need --checkpoint or --baseline")
    model_fn = None if args.baseline else _load_model_fn(args.checkpoint, cfg)
    report = metrics.evaluate_corpus(model_fn, heldout.paths(), data.read_wav, cfg.lsd,
                                     train_files=train_corpus.paths())
    label = "baseline" if args.baseline else "model"
    print(report.as_table(label))
    print(report.as_kv())
    return 0


def cmd_check(args) -> int:
    for name, suite in selfcheck.SUITES:
        try:
            suite()
        except Exception as exc:
            print(f"{name}: FAIL ({exc})")
            return 4
        print(f"{name}: ok")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="upband",
                                     description="Neural audio upsampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--preset", default="default", help="default or desk")

    p = sub.add_parser("synth", help="generate a synthetic training corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--files", type=int, default=60)
    p.add_argument("--duration", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="adversarial training")
    common(p)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--run-dir", default=None)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("upsample", help="22050 Hz wav in, 44100 Hz wav out")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--bypass-model", action="store_true",
                   help="pure interpolation baseline, no checkpoint needed")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=cmd_upsample)

    p = sub.add_parser("evaluate", help="LSD/SNR report on the held-out split")
    common(p)
    p.add_argument("--corpus", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--baseline", action="store_true")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("check", help="run the invariant self-check suites")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except UpbandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
