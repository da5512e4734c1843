"""Command-line entry point.

Commands: ``synth`` (generate a synthetic corpus), ``train``,
``upsample``, ``evaluate``. Exit codes: 0 success, 1 config error, 2 data
error (an output that cannot be written too), 3 numeric abort.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data, metrics, model, training
from .config import RunConfig, load_config, render_config
from .errors import ConfigError, DataError, NumericError, UpbandError
from .pipeline import upsample_buffer


def _echo(cfg: RunConfig, run_dir: Path | None = None) -> None:
    text = render_config(cfg)
    print(text)
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config_effective.cfg").write_text(text, encoding="utf-8")


def _config(args) -> RunConfig:
    """The run's configuration: every option whose ``dest`` is a dotted config
    key and that was given overrides the preset and ``--config`` file."""
    return load_config(args.config, preset=args.preset, overrides={
        k: v for k, v in vars(args).items() if "." in k and v is not None})


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
    cfg = _config(args)
    run_dir = Path(cfg.paths.run_dir)
    _echo(cfg, run_dir)
    train_corpus, heldout = _load_split(cfg)
    examples = data.load_examples(train_corpus, exclude=heldout)
    final = training.train_loop(examples, cfg.generator, cfg.discriminator, cfg.train,
                                run_dir, resume_from=args.resume,
                                train_files=train_corpus.items)
    print(f"final checkpoint: {final}")
    return 0


def _load_model(checkpoint: str, cfg: RunConfig):
    """A checkpoint's generator function and the file names it trained on."""
    state = training.load_checkpoint(checkpoint, cfg.generator, cfg.discriminator, cfg.train)
    return model.make_generator_fn(state.params, cfg.generator), state.train_files


def cmd_upsample(args) -> int:
    cfg = _config(args)
    _echo(cfg)
    audio = data.read_wav(args.input)
    if audio.sample_rate != 22050:
        raise DataError(f"upsample: expected 22050 Hz input, got {audio.sample_rate} Hz")
    if not args.bypass_model and args.checkpoint is None:
        raise ConfigError("upsample: need --checkpoint or --bypass-model")
    model_fn = None if args.bypass_model else _load_model(args.checkpoint, cfg)[0]
    out = upsample_buffer(audio, model_fn)
    data.write_wav(args.output, out)
    print(f"wrote {args.output}: {len(out)} samples at {out.sample_rate} Hz")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    _echo(cfg)
    train_corpus, heldout = _load_split(cfg)
    if not args.baseline and args.checkpoint is None:
        raise ConfigError("evaluate: need --checkpoint or --baseline")
    model_fn, trained_on = (None, ()) if args.baseline else _load_model(args.checkpoint, cfg)
    # the checkpoint's training files count under this corpus root, whatever
    # [data] split them when it trained
    train_files = train_corpus.paths() + [heldout.root / name for name in trained_on]
    report = metrics.evaluate_corpus(model_fn, heldout.paths(), data.read_wav, cfg.lsd,
                                     train_files=train_files)
    label = "baseline" if args.baseline else "model"
    print(report.as_table(label))
    print(report.as_kv())
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
    p.add_argument("--max-steps", type=int, dest="train.max_steps")
    p.add_argument("--seed", type=int, dest="train.seed")
    p.add_argument("--corpus", dest="paths.corpus")
    p.add_argument("--run-dir", dest="paths.run_dir")
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
    p.add_argument("--corpus", dest="paths.corpus")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--baseline", action="store_true")
    p.set_defaults(fn=cmd_evaluate)
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
