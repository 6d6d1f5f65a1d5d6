"""Command-line entry point.

Verbs: synth, train, extract, rdm, rsa, sweep, filters, report. Each runs
independently on intermediate artifacts so desk-scale partial runs are
cheap; `report` executes the whole pipeline from a config file.

Exit codes: 0 success, 2 configuration error, 3 data error (which covers
a statistic the data leave undefined). Flags given on the command line
override values from --config; a flag that sets a config or SynthSpec
field has that field's name as its dest, and a comma list parses as it
does in a config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .data import (
    SynthSpec,
    load_brain_by_roi,
    load_stimulus_dir,
    read_rdm_files,
    write_csv,
    write_rdm_csv,
    write_synth_dataset,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    TrainingDivergedError,
    UndefinedStatisticError,
)
from .filters import summarize_filters, write_filter_grid_csv, write_filter_scores_csv
from .network import TAPS, extract_all_taps, load_checkpoint, save_checkpoint
from .pipeline import (
    ExperimentConfig,
    best_layer_sweep,
    load_features_dir,
    read_labeled_set,
    run_experiment,
    save_features,
    score_conditions,
)
from .rdm import rdm_from_features
from .rules import train as train_rule

log = logging.getLogger(__name__)


def _config_value(key: str):
    """An argparse type= that reads a flag as a config file reads field `key`."""
    def parse(raw):
        try:
            return ExperimentConfig.parse_value(key, raw)
        except ConfigurationError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _given(args, cls) -> dict:
    """The flags given on the command line whose dest names a field of `cls`."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name, None) is not None}


def _load_config(args) -> ExperimentConfig:
    cfg = (ExperimentConfig.from_file(args.config) if getattr(args, "config", None)
           else ExperimentConfig())
    return dataclasses.replace(cfg, **_given(args, ExperimentConfig))


def _cmd_synth(args) -> int:
    spec = SynthSpec(**_given(args, SynthSpec))
    paths = write_synth_dataset(spec, args.seed, args.out)
    cfg = ExperimentConfig(
        train_data=(str(paths["train"]),),
        # an empty test set is a data error, so --test 0 writes and names none
        test_data=(str(paths["test"]),) if "test" in paths else (),
        stimuli_dir=str(paths["stimuli"]), brain_rdm_dir=str(paths["brain"]),
        out_dir=str(Path(args.out) / "run"), resolution=spec.extraction_resolution,
        channels=spec.channels, num_classes=spec.num_classes,
        train_limit=spec.num_train,
    )
    cfg.to_file(Path(args.out) / "synth.cfg")
    print(f"synthetic dataset written under {args.out} (config: synth.cfg)")
    return 0


def _cmd_train(args) -> int:
    # the verb trains one cell: the config checks its rule and seed before
    # any output directory is made
    cfg = dataclasses.replace(_load_config(args), rules=(args.rule,), seeds=(args.seed,))
    dataset = read_labeled_set(cfg.train_data, cfg.train_limit, cfg.num_classes)
    ckpt = args.ckpt or f"{args.rule}_seed{args.seed}.ckpt"
    for path in (ckpt, args.metrics):   # before training, which writes them last
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    state = train_rule(args.rule, cfg, dataset, args.seed,
                       metrics_path=args.metrics, channels=cfg.channels,
                       num_classes=cfg.num_classes)
    save_checkpoint(state, ckpt, rule=args.rule)
    print(f"checkpoint written to {ckpt}")
    return 0


def _cmd_extract(args) -> int:
    state, rule = load_checkpoint(args.ckpt)
    stimuli = load_stimulus_dir(args.stimuli, resolution=args.resolution)
    save_features(extract_all_taps(state, stimuli), stimuli.ids, Path(args.out))
    print(f"features for rule {rule!r} written to {args.out}")
    return 0


def _cmd_rdm(args) -> int:
    feats, ids = load_features_dir(args.features)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for tap, matrix in feats.items():
        write_rdm_csv(rdm_from_features(matrix, ids), ids, out / f"{tap}.csv")
    print(f"RDMs written to {out}")
    return 0


def _load_model_rdms(path):
    """Model RDM vectors from CSVs (one file or a directory of them), keyed
    by file stem in sorted order, plus the stimulus ids they all share."""
    path = Path(path)
    paths = sorted(path.glob("*.csv"), key=lambda p: p.stem) if path.is_dir() else [path]
    if not paths:
        raise DataFormatError(f"{path}: no model RDM CSVs found")
    return read_rdm_files(paths)


def _cmd_rsa(args) -> int:
    cfg = _load_config(args)
    vecs, ids = _load_model_rdms(args.model_rdm)
    _, mean_brain = load_brain_by_roi(args.brain_dir, ids)
    # each model is one condition with a single "seed": its own RDM
    scores = {roi: score_conditions({name: ([v], v) for name, v in vecs.items()},
                                    mean_brain[roi], roi, cfg)
              for roi in sorted(mean_brain)}
    rows = [[name, roi, s[name]["rho"], *s[name]["ci"], len(vec)]
            for name, vec in vecs.items() for roi, s in scores.items()]
    write_csv(args.out, ["model", "roi", "rho", "ci_low", "ci_high", "n_pairs"], rows)
    print(f"RSA table written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    models, ids = _load_model_rdms(args.rdm_dir)
    unknown = [t for t in models if t not in TAPS]
    if unknown:
        raise ConfigurationError(
            f"RDM files must be named <tap>.csv with tap in {TAPS}; got {unknown}")
    _, mean_brain = load_brain_by_roi(args.brain_dir, ids)
    sweep = best_layer_sweep(models, mean_brain)
    rows = [[tap] + row for tap, row in zip(sweep["taps"], sweep["matrix"])]
    rows.append(["best"] + [sweep["best_tap"][r] for r in sweep["rois"]])
    write_csv(args.out, ["tap"] + sweep["rois"], rows)
    print(f"sweep matrix written to {args.out}")
    return 0


def _cmd_filters(args) -> int:
    state, rule = load_checkpoint(args.ckpt)
    summary = summarize_filters(state, rule=rule or "unknown")
    write_filter_scores_csv(summary, args.out_scores)
    write_filter_grid_csv(summary, args.out_grid)
    print(f"filter scores -> {args.out_scores}, grid -> {args.out_grid}")
    return 0


def _cmd_report(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    n_fail = len(report["failures"])
    print(f"run complete: {cfg.out_dir} ({n_fail} failed cells)"
          if n_fail else f"run complete: {cfg.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="brainalign",
                                description="Learning-rule comparison pipeline")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("synth", help="generate a synthetic desk-scale dataset")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    # dests are SynthSpec fields, which supply the defaults
    s.add_argument("--train", dest="num_train", type=int)
    s.add_argument("--test", dest="num_test", type=int)
    s.add_argument("--classes", dest="num_classes", type=int)
    s.add_argument("--stimuli", dest="num_stimuli", type=int)
    s.add_argument("--stim-size", dest="stimulus_size", type=int)
    s.add_argument("--resolution", dest="extraction_resolution", type=int)
    s.add_argument("--noise", dest="noise_amplitude", type=float)
    s.add_argument("--channels", type=_config_value("channels"))
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("train", help="train one rule x seed cell")
    s.add_argument("--config")
    s.add_argument("--rule", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--epochs", type=int)
    s.add_argument("--ckpt", help="checkpoint output path")
    s.add_argument("--metrics", help="per-epoch metrics CSV path")
    s.set_defaults(func=_cmd_train)

    s = sub.add_parser("extract", help="extract tap features from a checkpoint")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--stimuli", required=True)
    s.add_argument("--resolution", type=int, default=224)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_extract)

    s = sub.add_parser("rdm", help="build RDM CSVs from extracted features")
    s.add_argument("--features", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_rdm)

    s = sub.add_parser("rsa", help="score model RDMs against brain RDMs")
    s.add_argument("--config")
    s.add_argument("--model-rdm", required=True, help="RDM CSV or directory")
    s.add_argument("--brain-dir", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_rsa)

    s = sub.add_parser("sweep", help="all-tap x all-ROI Spearman matrix")
    s.add_argument("--rdm-dir", required=True, help="directory of <tap>.csv model RDMs")
    s.add_argument("--brain-dir", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("filters", help="conv1 peakedness scores and filter grid")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--out-scores", required=True)
    s.add_argument("--out-grid", required=True)
    s.set_defaults(func=_cmd_filters)

    s = sub.add_parser("report", help="run the full experiment from a config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", dest="out_dir", help="override the run directory")
    s.add_argument("--seeds", type=_config_value("seeds"), help="override seeds, e.g. 0,1")
    s.add_argument("--rules", type=_config_value("rules"), help="override rules, e.g. random,bp")
    s.add_argument("--epochs", type=int)
    s.add_argument("--resolution", type=int)
    s.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError, TrainingDivergedError,
            UndefinedStatisticError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
