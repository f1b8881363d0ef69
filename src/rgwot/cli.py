"""Command line interface.

Subcommands:
  synth    write one of the stock synthetic task profiles to disk
  train    train an encoder on a manifest, checkpoint it with a loss curve
  align    solve one video pair, dump the coupling CSV and an SVG heat band
  segment  label every video with a trained encoder; reports and SVG bands
  eval     score predicted labels (from --pred-dir or a fresh segmentation)

Every run is deterministic given --seed. RGWOT_NUMBA=0 switches the
numeric kernels to the numpy backend.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data_model import Hyperparams, load_labels, load_manifest, load_task, save_labels
from .encoder import Encoder, load_encoder, save_encoder
from .errors import RgwotError
from .evaluation import evaluate, write_metrics_csv
from .segmentation import segment_task
from .synth import profiles, write_task
from .training import hyper_header, train, write_loss_csv
from .viz import (
    alignment_svg,
    segmentation_svg,
    write_coupling_csv,
    write_order_report,
    write_trace_csv,
)


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None, help="number of key steps (manifest wins if unset)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--sampled-frames", dest="sampled_frames", type=int, default=None)
    p.add_argument("--no-virtual", action="store_true", help="disable the virtual background frame")


def _hyper_from_args(args, manifest=None) -> Hyperparams:
    overrides = {}
    for name in ("alpha", "epsilon", "rho", "r", "zeta", "xi", "tau", "sigma",
                 "lam", "epochs", "learning_rate", "sampled_frames"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "k", None) is not None:
        overrides["k"] = args.k
    elif manifest is not None:
        overrides["k"] = manifest.k
    if getattr(args, "no_virtual", False):
        overrides["use_virtual"] = False
    return Hyperparams(**overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgwot", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic task")
    p.add_argument("--profile", required=True, choices=["easy", "hard", "collapse-prone"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train an encoder")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-couplings", action="store_true",
                   help="dump the coupling and objective trace of every training step")
    _add_hyper_flags(p)

    p = sub.add_parser("align", help="solve one video pair")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pair", nargs=2, metavar=("X", "Y"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_hyper_flags(p)

    for name in ("segment", "eval"):
        p = sub.add_parser(name, help=f"{name} a task")
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--beta", type=float, default=1.0, help="Potts smoothing weight")
        p.add_argument("--no-masks", action="store_true",
                       help="skip alignment-based background masking")
        if name == "eval":
            p.add_argument("--pred-dir", default=None,
                           help="directory of <video_id>.labels.txt predictions")
        _add_hyper_flags(p)
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
    on_target = None
    if args.dump_couplings:
        dump_dir = out / "couplings"
        dump_dir.mkdir(parents=True, exist_ok=True)
        counter = iter(range(10**9))

        def on_target(coupling):
            step = next(counter)
            write_coupling_csv(coupling.T, dump_dir / f"step_{step:05d}.csv")
            write_trace_csv(coupling.objective_trace, dump_dir / f"step_{step:05d}_trace.csv")

    encoder, history = train(videos, hyper, rng, on_target=on_target)
    save_encoder(encoder, out / "encoder.rgwf", hyper)
    write_loss_csv(history, out / "loss_curve.csv", hyper)
    final = history[-1].total if history else float("nan")
    print(f"trained {hyper.epochs} epochs ({len(history)} steps), final loss {final:.4f}")
    print(f"checkpoint: {out / 'encoder.rgwf'}")
    return 0


def cmd_align(args) -> int:
    from .priors import build_cost_bundle
    from .solver import solve_fgwot

    manifest = load_manifest(args.manifest)
    hyper = _hyper_from_args(args, manifest)
    features, _ = load_task(manifest)
    x_id, y_id = args.pair
    for vid in (x_id, y_id):
        manifest.entry(vid)  # raises ParseError for unknown ids
    enc = load_encoder(args.checkpoint)
    ex = enc.encode(features[x_id]).data
    ey = enc.encode(features[y_id]).data
    bundle = build_cost_bundle(ex, ey, hyper)
    coupling = solve_fgwot(bundle, hyper)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_coupling_csv(coupling.T, out / f"coupling_{x_id}_{y_id}.csv")
    write_trace_csv(coupling.objective_trace, out / f"trace_{x_id}_{y_id}.csv")
    alignment_svg(coupling.T, out / f"alignment_{x_id}_{y_id}.svg")
    status = "converged" if coupling.converged else "not converged"
    print(f"{x_id} vs {y_id}: {status} after {coupling.outer_iterations} outer iterations")
    return 0


def _segment(args, need_metrics: bool) -> int:
    manifest = load_manifest(args.manifest)
    hyper = _hyper_from_args(args, manifest)
    features, gt_labels = load_task(manifest)
    videos = [features[v.video_id] for v in manifest.videos]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = f"task={manifest.task_name} k={hyper.k} beta={args.beta} seed={args.seed} " \
        + hyper_header(hyper)

    pred_dir = getattr(args, "pred_dir", None)
    if pred_dir is not None:
        predictions = []
        for v in manifest.videos:
            path = Path(pred_dir) / f"{v.video_id}.labels.txt"
            predictions.append(load_labels(path, v.video_id))
    else:
        if args.checkpoint is None:
            print("error: need --checkpoint (or --pred-dir for eval)", file=sys.stderr)
            return 1
        enc = load_encoder(args.checkpoint)
        rng = np.random.default_rng(args.seed)
        result = segment_task(videos, enc, hyper.k, args.beta, hyper, rng,
                              use_masks=not args.no_masks)
        predictions = list(result.labels)
        for seq in predictions:
            save_labels(seq, out / f"{seq.video_id}.labels.txt")
        write_order_report(result, out / "order_report.txt", header)
        rows = []
        for seq in predictions:
            rows.append((seq.video_id, seq.labels))
            if seq.video_id in gt_labels:
                rows.append((f"{seq.video_id} (gt)", gt_labels[seq.video_id].labels))
        segmentation_svg(rows, hyper.k, out / "segmentation.svg")

    have_gt = all(v.video_id in gt_labels for v in manifest.videos)
    if have_gt:
        report = evaluate(predictions, [gt_labels[v.video_id] for v in manifest.videos],
                          hyper.k)
        write_metrics_csv(report, out / "metrics.csv", manifest.task_name, header)
        print(f"macro F1 {report.macro.f1:.4f}  IoU {report.macro.iou:.4f}")
    elif need_metrics:
        print("error: manifest has no ground-truth labels to evaluate against",
              file=sys.stderr)
        return 1
    return 0


def cmd_segment(args) -> int:
    return _segment(args, need_metrics=False)


def cmd_eval(args) -> int:
    return _segment(args, need_metrics=True)


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
    except RgwotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
