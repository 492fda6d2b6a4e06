"""Command-line entry point: run experiments, evaluate attacks, check
gradients, and pretty-print report streams."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import gradcheck as gradcheck_mod
from . import pin_heap
from .attack import (
    MODES,
    attack_outputs,
    class_accuracies,
    extract_examples,
    mia_accuracy,
    mia_gain,
    split_for_attack,
    train_attacker,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_config
from .data import load_dataset
from .document import check_value
from .models import build_attacker
from .orchestrator import (
    RngTree,
    RunConfig,
    check_dataset_fits,
    finetune_steps,
    run_compression,
)
from .report import pretty_table, read_report, summary_record, write_record


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    try:
        config, dataset, out_dir = load_config(args.config)
        if args.seed is not None:
            check_value(RunConfig, "seed", args.seed, "seed")
            config = dataclasses.replace(config, seed=args.seed)
        if args.deterministic:
            config = dataclasses.replace(config, deterministic=True)
        datasets = load_dataset(dataset)
        check_dataset_fits(config.target, datasets)
        finetune_steps(config, len(datasets[0]))
        out_dir = Path(out_dir if args.out_dir is None else args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.jsonl"
        fh = open(report_path, "w", encoding="utf-8")
    except (OSError, TypeError, ValueError) as exc:
        return _fail(str(exc), 2)

    def checkpointer(report, model):
        save_checkpoint(out_dir / f"checkpoint_{report.iteration:04d}.bin",
                        model, iteration=report.iteration, seed=config.seed,
                        dataset=dataset, attacker_mode=config.attacker_mode)

    with fh:
        sink = lambda report: write_record(fh, report.as_record())
        try:
            model, reports = run_compression(config, datasets,
                                             report_sink=sink,
                                             iteration_callback=checkpointer)
        except Exception as exc:  # partial report trail is already on disk
            return _fail(f"run aborted: {exc}", 1)
        summary = summary_record([r.as_record() for r in reports])
        write_record(fh, summary)
    save_checkpoint(out_dir / "checkpoint_final.bin", model,
                    iteration=reports[-1].iteration, seed=config.seed,
                    dataset=dataset, attacker_mode=config.attacker_mode)
    print(f"selected={summary['final_selected']} "
          f"task_acc={summary['final_task_acc']:.4f} "
          f"mia_acc={summary['final_mia_acc']:.4f} "
          f"tm_score={summary['final_tm_score']:.4f} "
          f"epochs={summary['total_epochs']:.2f}")
    print(f"report: {report_path}")
    return 0


def cmd_attack_eval(args) -> int:
    try:
        check_value(RunConfig, "attacker_epochs_first", args.attacker_epochs,
                    "--attacker-epochs")
        check_value(RunConfig, "seed", args.seed, "seed")  # None passes
        ckpt = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 2)
    header = ckpt.header
    if args.mode is not None and args.mode != header.attacker_mode:
        return _fail(f"mode mismatch: checkpoint records "
                     f"{header.attacker_mode!r}, requested {args.mode!r}", 2)
    mode = args.mode or header.attacker_mode
    try:
        if args.dataset is not None:
            descriptor = json.loads(Path(args.dataset).read_text())
        else:
            descriptor = header.dataset
        datasets = load_dataset(descriptor)
        check_dataset_fits(ckpt.model.spec, datasets)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), 2)

    seq = RngTree(header.seed if args.seed is None else args.seed)
    rng_split = seq.next()  # first spawn: matches the run's split stream
    try:
        splits = split_for_attack(*datasets, rng_split)
        examples, attack_eval = extract_examples(ckpt.model, splits, mode)
        attacker = build_attacker(mode, ckpt.model, seq.next())
        train_attacker(attacker, examples, epochs=args.attacker_epochs,
                       rng=seq.next(),
                       learning_rate=RunConfig.attacker_learning_rate)
        acc = mia_accuracy(attacker, ckpt.model, splits)
        gain = mia_gain(attacker, ckpt.model, splits)
        member_acc, nonmember_acc = class_accuracies(
            attack_outputs(attacker, attack_eval.x), attack_eval.y)
    except (ValueError, FloatingPointError) as exc:
        return _fail(str(exc), 1)
    print(f"mode: {mode}")
    print(f"MIA accuracy: {acc:.4f}")
    print(f"MIA gain: {gain:.4f}")
    print(f"member accuracy: {member_acc:.4f}  "
          f"non-member accuracy: {nonmember_acc:.4f}")
    return 0


def cmd_gradcheck(_args) -> int:
    try:
        results = gradcheck_mod.run_cases()
    except ValueError as exc:
        return _fail(str(exc), 1)
    for r in results:
        print(f"{r.name}: {r.max_rel_err:.3e}")
    worst = gradcheck_mod.worst_case(results)
    print(f"max relative error: {worst.max_rel_err:.3e} ({worst.name})")
    if worst.max_rel_err >= gradcheck_mod.TOLERANCE:
        return _fail(f"gradient check failed: {worst.name} at "
                     f"{worst.max_rel_err:.3e} "
                     f"(tolerance {gradcheck_mod.TOLERANCE})", 1)
    print("gradient check passed")
    return 0


def cmd_report(args) -> int:
    try:
        records = read_report(args.path)
        if not records:
            return _fail("report stream is empty", 1)
        table = pretty_table(records)
    except OSError as exc:
        return _fail(str(exc), 2)
    except ValueError as exc:
        return _fail(str(exc), 1)
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseguard",
        description="Dynamic sparse training co-optimized against simulated "
                    "membership-inference attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a compression experiment")
    run_p.add_argument("--config", required=True,
                       help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--deterministic", action="store_true",
                       help="record wall_time_s as 0 so reruns are "
                            "byte-identical; the default, so this only "
                            "overrides a config that sets deterministic "
                            "false")
    run_p.add_argument("--out-dir", default=None,
                       help="override the config output directory")
    run_p.set_defaults(func=cmd_run)

    eval_p = sub.add_parser("attack-eval",
                            help="train a fresh attacker against a checkpoint")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--dataset", default=None,
                        help="JSON dataset descriptor file (default: the "
                             "descriptor recorded in the checkpoint)")
    eval_p.add_argument("--mode", choices=MODES, default=None,
                        help="attack mode; must match the checkpoint")
    eval_p.add_argument("--attacker-epochs", type=int,
                        default=RunConfig.attacker_epochs_first)
    eval_p.add_argument("--seed", type=int, default=None)
    eval_p.set_defaults(func=cmd_attack_eval)

    gc_p = sub.add_parser("gradcheck",
                          help="finite-difference check of every layer/loss")
    gc_p.set_defaults(func=cmd_gradcheck)

    rep_p = sub.add_parser("report", help="pretty-print a report stream")
    rep_p.add_argument("--path", required=True)
    rep_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_heap()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
