"""Span tracing of rgwot's layers, applied from outside the package.

While a `Tracer` is active, each traced function is replaced by a wrapper
that records a span (name, start, end, parent span id) and, for a few
layers, counters read from the call's arguments and return value. Modules
that import a function by name (`from .solver import solve_fgwot`) hold their
own reference, so the function is rebound in each importing module as well
as in the one that defines it. Originals are restored when the block exits.

Spans stay in memory; the caller writes them out when the run ends. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

import numpy as np

from rgwot import cli, encoder, kernels, priors, segmentation, solver, training


def _observe_sinkhorn(tracer, args, result):
    # (G, logp, logq, eps, max_iters, tol, f0, g0) -> (f, g, iters, violation).
    # A kernel with another signature is still timed; its counters stay 0.
    if not (isinstance(result, tuple) and len(result) == 4 and len(args) >= 6):
        return
    iters, violation = int(result[2]), float(result[3])
    tracer.count["sweeps"] += iters
    tracer.count["capped"] += iters >= int(args[4]) and violation > float(args[5])
    # computed, not measured: each sweep's three log-sum-exp passes read the
    # float64 cost matrix once
    tracer.count["sinkhorn_bytes"] += 3 * 8 * np.size(args[0]) * iters


def _observe_solve(tracer, args, coupling):
    tracer.count["outer_iters"] += coupling.outer_iterations
    tracer.count["nonconverged"] += not coupling.converged
    tracer.samples["final_delta"].append(float(coupling.final_delta))


def _observe_masks(tracer, args, masks):
    tracer.count["masked_frames"] += sum(int(np.count_nonzero(m)) for m in masks)
    tracer.count["mask_frames"] += sum(int(np.size(m)) for m in masks)


def _observe_expansion(tracer, args, result):
    labels, trace = result
    tracer.count["expansion_moves"] += len(trace) - 1
    unary_argmin = np.argmin(args[0].unary, axis=1)
    tracer.count["relabelled_frames"] += int(np.count_nonzero(labels != unary_argmin))


# (span name, places the function is bound, observer). Places missing from
# the program are skipped, so the benchmark keeps running when a layer is
# renamed or removed; that layer's metrics then read 0.
LAYERS = (
    ("kernels.sinkhorn_log", ((kernels, "sinkhorn_log"),), _observe_sinkhorn),
    ("kernels.banded_gw_product", ((kernels, "banded_gw_product"),), None),
    ("kernels.cidm_parts", ((kernels, "cidm_parts"),), None),
    ("solver.solve_fgwot", ((solver, "solve_fgwot"), (training, "solve_fgwot"),
                            (segmentation, "solve_fgwot")), _observe_solve),
    ("solver.fgwot_objective", ((solver, "fgwot_objective"),), None),
    ("priors.build_cost_bundle", ((priors, "build_cost_bundle"), (training, "build_cost_bundle"),
                                  (segmentation, "build_cost_bundle")), None),
    ("priors.background_mask", ((priors, "background_mask"), (training, "background_mask"),
                                (segmentation, "background_mask")), None),
    ("encoder.forward", ((encoder.Encoder, "forward"),), None),
    ("encoder.backward", ((encoder.Encoder, "backward"),), None),
    ("encoder.adam_update", ((training, "adam_update"),), None),
    ("losses.total_loss", ((training, "total_loss"),), None),
    ("training.train", ((cli, "train"),), None),
    ("training.train_step", ((training, "train_step"),), None),
    ("segmentation.segment_task", ((cli, "segment_task"),), None),
    ("segmentation.compute_segment_masks", ((segmentation, "compute_segment_masks"),),
     _observe_masks),
    ("segmentation.init_centers", ((segmentation, "init_centers"),), None),
    ("segmentation.alpha_expansion", ((segmentation, "alpha_expansion"),), _observe_expansion),
    ("data_model.load_task", ((cli, "load_task"),), None),
    ("evaluation.evaluate", ((cli, "evaluate"),), None),
    ("viz.write_order_report", ((cli, "write_order_report"),), None),
    ("viz.segmentation_svg", ((cli, "segmentation_svg"),), None),
    ("viz.alignment_svg", ((cli, "alignment_svg"),), None),
    ("viz.write_coupling_csv", ((cli, "write_coupling_csv"),), None),
    ("viz.write_trace_csv", ((cli, "write_trace_csv"),), None),
    ("io.save_encoder", ((cli, "save_encoder"),), None),
    ("io.write_loss_csv", ((cli, "write_loss_csv"),), None),
    ("io.save_labels", ((cli, "save_labels"),), None),
    ("io.write_metrics_csv", ((cli, "write_metrics_csv"),), None),
)


class Tracer:
    """Spans and counters of one traced command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent id or -1]
        self.count: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def active(self):
        """Bind the traced wrappers in place of the originals for the block."""
        saved = []
        try:
            for name, places, observe in LAYERS:
                for owner, attr in places:
                    original = owner.__dict__.get(attr)
                    if original is None:
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command (self seconds, counts, ratios)."""
    own = tracer.self_times()
    count = tracer.count

    def calls(name):
        return float(len(tracer.durations(name)))

    solves = calls("solver.solve_fgwot")
    deltas = tracer.samples["final_delta"]
    return {
        "kernels.sinkhorn_log.calls": calls("kernels.sinkhorn_log"),
        "kernels.sinkhorn_log.s": own["kernels.sinkhorn_log"],
        "kernels.sinkhorn_log.self_frac": own["kernels.sinkhorn_log"] / wall_s,
        "kernels.sinkhorn_log.sweeps": count["sweeps"],
        "kernels.sinkhorn_log.capped": count["capped"],
        "kernels.sinkhorn_log.gbytes_computed": count["sinkhorn_bytes"] / 1e9,
        "kernels.banded_gw_product.calls": calls("kernels.banded_gw_product"),
        "kernels.banded_gw_product.s": own["kernels.banded_gw_product"],
        "kernels.cidm_parts.calls": calls("kernels.cidm_parts"),
        "kernels.cidm_parts.s": own["kernels.cidm_parts"],
        "solver.solve_fgwot.calls": solves,
        "solver.solve_fgwot.s": own["solver.solve_fgwot"],
        "solver.outer_iters": count["outer_iters"],
        "solver.nonconverged": count["nonconverged"],
        # 0 when the command ran no solve
        "solver.converged_frac": (solves - count["nonconverged"]) / solves if solves else 0.0,
        "solver.final_delta_max": max(deltas, default=0.0),
        "solver.fgwot_objective.s": own["solver.fgwot_objective"],
        "priors.build_cost_bundle.calls": calls("priors.build_cost_bundle"),
        "priors.build_cost_bundle.s": own["priors.build_cost_bundle"],
        "priors.background_mask.s": own["priors.background_mask"],
        "priors.masked_frames": count["masked_frames"],
        # 0 when segmentation ran without masks
        "priors.masked_frac": (count["masked_frames"] / count["mask_frames"]
                               if count["mask_frames"] else 0.0),
        "encoder.forward.s": own["encoder.forward"],
        "encoder.backward.s": own["encoder.backward"],
        "encoder.adam_update.s": own["encoder.adam_update"],
        "losses.total_loss.s": own["losses.total_loss"],
        "training.steps": calls("training.train_step"),
        "segmentation.compute_segment_masks.s": own["segmentation.compute_segment_masks"],
        "segmentation.init_centers.s": own["segmentation.init_centers"],
        "segmentation.alpha_expansion.s": own["segmentation.alpha_expansion"],
        "segmentation.alpha_expansion.calls": calls("segmentation.alpha_expansion"),
        "segmentation.expansion_moves": count["expansion_moves"],
        "segmentation.relabelled_frames": count["relabelled_frames"],
        "data_model.load_task.s": own["data_model.load_task"],
        "viz.s": sum(s for name, s in own.items() if name.startswith("viz.")),
        "evaluation.evaluate.s": own["evaluation.evaluate"],
        "io.write_s": sum(s for name, s in own.items() if name.startswith("io.")),
    }


def pooled_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Percentiles over the spans of all traced commands of a run."""
    steps = [d * 1e3 for t in tracers for d in t.durations("training.train_step")]
    solves = [d * 1e3 for t in tracers for d in t.durations("solver.solve_fgwot")]
    return {
        "training.step_ms_p50": percentile(steps, 50),
        "training.step_ms_p98": percentile(steps, 98),
        "solver.solve_ms_p50": percentile(solves, 50),
    }


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def median_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_command) for key in per_command[0]}
