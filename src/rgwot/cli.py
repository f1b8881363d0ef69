"""Command line interface.

Subcommands:
  synth    write one of the stock synthetic task profiles to disk
  train    train an encoder on a manifest, checkpoint it with a loss curve
  align    solve one video pair, dump the coupling CSV and an SVG heat band
  segment  label every video with a trained encoder; reports and SVG bands
  eval     score a directory of predicted labels against the manifest's

Each subcommand takes only the flags its output depends on, and the same
command line always writes the same bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data_model import BACKGROUND, Hyperparams, load_labels, load_manifest, load_task, save_labels
from .encoder import load_encoder, save_encoder
from .errors import RgwotError
from .evaluation import evaluate, write_metrics_csv
from .priors import build_cost_bundle
from .segmentation import segment_task
from .solver import solve_fgwot
from .synth import profiles, write_task
from .training import hyper_header, train, write_loss_csv
from .viz import (
    alignment_svg,
    segmentation_svg,
    write_coupling_csv,
    write_order_report,
    write_trace_csv,
)


# flag -> argparse settings; dest is the Hyperparams field the flag sets
_HYPER_FLAGS = {
    "--k": dict(dest="k", type=int, help="number of key steps (default: the manifest's k)"),
    "--alpha": dict(dest="alpha", type=float),
    "--epsilon": dict(dest="epsilon", type=float),
    "--rho": dict(dest="rho", type=float),
    "--r": dict(dest="r", type=float),
    "--zeta": dict(dest="zeta", type=float),
    "--xi": dict(dest="xi", type=float),
    "--tau": dict(dest="tau", type=float),
    "--sigma": dict(dest="sigma", type=float),
    "--lambda": dict(dest="lam", type=float),
    "--epochs": dict(dest="epochs", type=int),
    "--lr": dict(dest="learning_rate", type=float),
    "--sampled-frames": dict(dest="sampled_frames", type=int),
    "--no-virtual": dict(dest="use_virtual", action="store_false",
                         help="disable the virtual background frame"),
}
_SOLVER_FLAGS = "--alpha --epsilon --rho --r --no-virtual"
# training scores every sampled frame, so train's --zeta only sets the value
# its sidecar and loss-curve header record; perfbench's fixed train command
# line passes it
_TRAINING_FLAGS = "--zeta --xi --tau --sigma --lambda --epochs --lr --sampled-frames"


def _add_hyper_flags(p: argparse.ArgumentParser, flags: str) -> None:
    for flag in flags.split():
        p.add_argument(flag, default=None, **_HYPER_FLAGS[flag])


def _hyper_from_args(args, manifest) -> Hyperparams:
    """Hyperparams from the flags given; k falls back to the manifest's."""
    overrides = {"k": manifest.k}
    for spec in _HYPER_FLAGS.values():
        value = getattr(args, spec["dest"], None)
        if value is not None:
            overrides[spec["dest"]] = value
    return Hyperparams(**overrides)


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgwot", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic task")
    p.add_argument("--profile", required=True, choices=["easy", "hard", "collapse-prone"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("train", help="train an encoder")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dump-couplings", action="store_true",
                   help="dump the coupling and objective trace of every training step")
    _add_hyper_flags(p, f"{_SOLVER_FLAGS} {_TRAINING_FLAGS}")

    p = sub.add_parser("align", help="solve one video pair")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pair", nargs=2, metavar=("X", "Y"), required=True)
    p.add_argument("--out", required=True)
    _add_hyper_flags(p, _SOLVER_FLAGS)

    p = sub.add_parser("segment", help="label every video of a task")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--beta", type=float, default=1.0, help="Potts smoothing weight")
    p.add_argument("--no-masks", action="store_true",
                   help="skip alignment-based background masking")
    _add_hyper_flags(p, f"--k {_SOLVER_FLAGS} --zeta")

    p = sub.add_parser("eval", help="score predicted labels against the manifest's")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred-dir", required=True,
                   help="directory of <video_id>.labels.txt predictions")
    p.add_argument("--out", required=True)
    _add_hyper_flags(p, "--k")
    return parser


def cmd_synth(args) -> int:
    out = Path(args.out)
    stock = profiles(seed=args.seed)
    task = stock[args.profile]
    manifest_path = write_task(task, out)
    print(f"wrote {task.videos} videos and {manifest_path}")
    return 0


def cmd_train(args) -> int:
    manifest = load_manifest(args.manifest)
    hyper = _hyper_from_args(args, manifest)
    features, _ = load_task(manifest)
    videos = [features[v.video_id] for v in manifest.videos]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    dump_dir = out / "couplings"
    if args.dump_couplings:
        dump_dir.mkdir(parents=True, exist_ok=True)
    solves = []  # (inner solves capped, inner solves, worst inner violation) per step

    def on_target(coupling):
        if args.dump_couplings:
            step = len(solves)
            write_coupling_csv(coupling.T, dump_dir / f"step_{step:05d}.csv")
            write_trace_csv(coupling.objective_trace, dump_dir / f"step_{step:05d}_trace.csv")
        solves.append((coupling.inner_capped, coupling.outer_iterations,
                       coupling.inner_violation))

    encoder, history = train(videos, hyper, rng, on_target=on_target)
    save_encoder(encoder, out / "encoder.rgwf", hyper)
    write_loss_csv(history, out / "loss_curve.csv", hyper)
    final = history[-1].total if history else float("nan")
    print(f"trained {hyper.epochs} epochs ({len(history)} steps), final loss {final:.4f}")
    _print_inner_solves(solves)
    print(f"checkpoint: {out / 'encoder.rgwf'}")
    return 0


def _print_inner_solves(solves) -> None:
    """One line over (inner solves capped, inner solves, worst violation) triples."""
    capped = sum(c for c, _, _ in solves)
    inner = sum(n for _, n, _ in solves)
    worst = max((v for _, _, v in solves), default=0.0)
    print(f"inner solves capped {capped} of {inner}, worst inner violation {worst:.2e}")


def cmd_align(args) -> int:
    manifest = load_manifest(args.manifest)
    hyper = _hyper_from_args(args, manifest)
    features, _ = load_task(manifest)
    x_id, y_id = args.pair
    for vid in (x_id, y_id):
        manifest.entry(vid)  # raises ParseError for unknown ids
    enc = load_encoder(args.checkpoint)
    ex = enc.encode(features[x_id]).data
    ey = enc.encode(features[y_id]).data
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before the solve, so an unusable --out costs none
    bundle = build_cost_bundle(ex, ey, hyper)
    coupling = solve_fgwot(bundle, hyper)
    write_coupling_csv(coupling.T, out / f"coupling_{x_id}_{y_id}.csv")
    write_trace_csv(coupling.objective_trace, out / f"trace_{x_id}_{y_id}.csv")
    alignment_svg(coupling.T, out / f"alignment_{x_id}_{y_id}.svg")
    status = "converged" if coupling.converged else "not converged"
    print(f"{x_id} vs {y_id}: {status} after {coupling.outer_iterations} outer iterations, "
          f"{coupling.inner_capped} inner solves capped, "
          f"worst inner violation {coupling.inner_violation:.2e}")
    return 0


def _write_scores(manifest, predictions, gt_labels, k: int, out: Path, header: str) -> None:
    report = evaluate(predictions, list(gt_labels.values()), k)
    write_metrics_csv(report, out / "metrics.csv", manifest.task_name, header)
    print(f"macro F1 {report.macro.f1:.4f}  IoU {report.macro.iou:.4f}")


def cmd_segment(args) -> int:
    manifest = load_manifest(args.manifest)
    hyper = _hyper_from_args(args, manifest)
    features, gt_labels = load_task(manifest)
    videos = [features[v.video_id] for v in manifest.videos]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = f"task={manifest.task_name} k={hyper.k} beta={args.beta} seed={args.seed} " \
        + hyper_header(hyper)
    enc = load_encoder(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    solves = []  # (inner solves capped, inner solves, worst inner violation) per mask solve
    at_cap = []  # per mask solve: stopped at the outer cap

    def on_coupling(coupling):
        solves.append((coupling.inner_capped, coupling.outer_iterations,
                       coupling.inner_violation))
        # the plan still moved when the outer loop ran out; a structure-free
        # solve stops after its first pass with final_delta 0
        at_cap.append(not coupling.converged and coupling.final_delta > 0)

    result = segment_task(videos, enc, hyper.k, args.beta, hyper, rng,
                          use_masks=not args.no_masks, on_coupling=on_coupling)
    frames = sum(seq.labels.size for seq in result.labels)
    if solves:
        _print_inner_solves(solves)
        masked = sum(int(np.count_nonzero(seq.labels == BACKGROUND)) for seq in result.labels)
        print(f"masked {masked} of {frames} frames, {sum(at_cap)} of {len(at_cap)} "
              f"alignment solves stopped at the outer cap")
    print(f"smoothing relabelled {sum(result.relabelled)} of {frames} frames")
    rows = []
    for seq in result.labels:
        save_labels(seq, out / f"{seq.video_id}.labels.txt")
        rows.append((seq.video_id, seq.labels))
        if seq.video_id in gt_labels:
            rows.append((f"{seq.video_id} (gt)", gt_labels[seq.video_id].labels))
    write_order_report(result, out / "order_report.txt", header)
    segmentation_svg(rows, hyper.k, out / "segmentation.svg")
    if all(v.video_id in gt_labels for v in manifest.videos):
        _write_scores(manifest, list(result.labels), gt_labels, hyper.k, out, header)
    return 0


def cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    k = manifest.k if args.k is None else args.k
    _, gt_labels = load_task(manifest)  # evaluate names a video without labels
    predictions = [load_labels(Path(args.pred_dir) / f"{v.video_id}.labels.txt", v.video_id)
                   for v in manifest.videos]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_scores(manifest, predictions, gt_labels, k, out, f"task={manifest.task_name} k={k}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "synth": cmd_synth,
        "train": cmd_train,
        "align": cmd_align,
        "segment": cmd_segment,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (RgwotError, OSError) as exc:  # OSError: say, an --out that names a file
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
