#!/usr/bin/env python3
"""End-to-end benchmark of the rgwot pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload train-easy --seed 7 --seconds 20 --trace 0

One run generates a synthetic task from --seed with `rgwot.synth`, sets up
(for the segment workloads this trains a checkpoint), then calls the real
CLI in-process (`rgwot.cli.main`) again and again for --seconds seconds,
checking every output. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced commands and reports the
per-layer metrics of the traced ones (see tracing.py). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. The full record of a run (machine facts, every command, every
span) is written to .perfbench/<workload>-seed<seed>-trace<t>.json.
"""

import os
import sys
from pathlib import Path

# Set before numpy loads. With OpenBLAS's default two threads on a 2-core
# machine the second thread spins: 150 epochs of train on easy took 29 s of
# CPU for 15 s of wall time, against 15 s and 16 s with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["RGWOT_THREADS"] = "1"  # the CLI default; spans assume one thread

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "rgwot" / "cli.py").is_file():
    sys.exit(f"perfbench: {ROOT / 'src' / 'rgwot'} not found; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from rgwot import active_backend, cli, synth  # noqa: E402

WORK = ROOT / ".perfbench"
# metric names, units and each workload's reason for being in the benchmark
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

# README quick-start flags, except 30 epochs instead of 150 so that one run
# holds enough commands for a steady median (the workloads stay in their
# regime: epochs only change how many 33x33 solves run).
TRAIN = ("train", "--epochs", "30", "--sigma", "24", "--lr", "1e-3", "--zeta", "0")
LABEL = ("segment", "--k", "7", "--beta", "1", "--zeta", "0", "--no-masks")
K = 7  # the --k of every segment command: predicted ids 0..K-1 are scored
SETUPS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    profile: str  # rgwot.synth profile
    argv: tuple[str, ...]  # timed command, completed by --manifest/--out/--seed
    resize: dict = dataclasses.field(default_factory=dict)  # SynthTask fields replaced
    floors: dict = dataclasses.field(default_factory=dict)  # criterion 6, at the stock seed
    # The timed command runs under program seeds 0..n-1 (clip sampling,
    # k-means seeding). On hard, k-means lands in one of two solutions whose
    # F1 differs by about 0.25 and whose smoothing work differs too, so the
    # metrics average over seeds; cheap commands average over more.
    program_seeds: int = 8


WORKLOADS = {
    "train-easy": Workload(profile="easy", argv=TRAIN, floors={"f1": 0.75, "iou": 0.60}),
    "segment-hard-masked": Workload(
        profile="hard",
        argv=("segment", "--k", "7", "--beta", "1"),
        # 4 videos of 100 step frames (about 130 with background) instead of
        # 10 of 180-220: the stock task takes about 57 s per command, longer
        # than a whole run may last; a fixed length keeps solve sizes alike
        resize={"videos": 4, "frames_per_video": (100, 100)},
        program_seeds=6,  # the costliest command: keeps a run under a minute
    ),
    "segment-hard-smooth": Workload(
        profile="hard",
        # beta 30: at the README's beta 1 smoothing relabels almost no frame
        argv=("segment", "--k", "7", "--beta", "30", "--zeta", "0", "--no-masks"),
        floors={"f1": 0.50},
        program_seeds=24,
    ),
}


def run_cli(argv) -> tuple[int, str]:
    """rgwot.cli.main with its console output captured (stdout ends in our JSON)."""
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        code = cli.main([str(a) for a in argv])
    return code, console.getvalue()


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_facts() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "rgwot_backend": active_backend(),
    }


class Run:
    """One benchmark run: set-ups, timed commands, checks and their tallies."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        # The profile's step and background means stay those of its stock
        # seed; --seed draws the videos. With the means drawn from --seed as
        # well, train-easy's wall time moved by 70% between seeds 0 and 4,
        # which would swamp any change under test. At the stock seed this is
        # the stock task.
        stock = synth.profiles()[self.wl.profile]
        self.task = dataclasses.replace(stock, seed=seed, **self.wl.resize)
        self.stock_seed = seed == stock.seed
        _, truth, _ = synth.generate(self.task)
        self.truth = {seq.video_id: seq.labels for seq in truth}
        self.setup_s: list[float] = []
        self.commands: list[dict] = []
        self.tracers: list[tracing.Tracer] = []
        self.problems: list[str] = []
        self.scores: dict[int, tuple[float, float]] = {}
        self.first_artifacts: dict[int, dict[str, bytes]] = {}
        self.attempted = 0
        self.failed = 0
        self.manifest = self.checkpoint = None

    @property
    def trains(self) -> bool:
        return self.wl.argv[0] == "train"

    def set_up(self, i: int) -> None:
        """Package import in a fresh interpreter, task synthesis, checkpoint."""
        start = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-c", "import rgwot.cli"], env=env, check=True,
                       timeout=120)
        manifest = synth.write_task(self.task, self.work / f"setup{i}" / "task")
        checkpoint = None
        if not self.trains:
            ckpt_dir = self.work / f"setup{i}" / "checkpoint"
            code, console = run_cli([*TRAIN, "--manifest", manifest, "--out", ckpt_dir, "--seed", 0])
            if code != 0:
                raise RuntimeError(f"checkpoint training failed during set-up: {console}")
            checkpoint = ckpt_dir / "encoder.rgwf"
        self.setup_s.append(time.perf_counter() - start)
        if self.checkpoint is not None and checkpoint.read_bytes() != self.checkpoint.read_bytes():
            self.problems.append("set-ups trained different checkpoints from one seed")
        self.manifest, self.checkpoint = manifest, checkpoint

    def command(self, program_seed: int, traced: bool) -> None:
        out = self.work / f"command{len(self.commands)}"
        argv = [*self.wl.argv, "--manifest", self.manifest, "--out", out, "--seed", program_seed]
        if self.checkpoint is not None:
            argv += ["--checkpoint", self.checkpoint]
        tracer = tracing.Tracer() if traced else None
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                code, console = run_cli(argv)
            else:
                with tracer.active(), tracer.span("cli.main"):
                    code, console = run_cli(argv)
        except Exception:  # a command that raises is a failed command; keep measuring
            code, console = -1, traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        record = {"program_seed": program_seed, "traced": traced, "wall_s": wall,
                  "cpu_s": cpu, "bytes_written": checks.bytes_written(out) if out.exists() else 0}
        problems = [f"exit code {code}: {console}"] if code != 0 else self.check(out, program_seed)
        operations = self.operations()
        self.attempted += operations
        if problems:
            self.failed += operations
            self.problems += [f"command {len(self.commands)} (seed {program_seed}): {p}"
                              for p in problems]
        record["problems"] = problems
        self.commands.append(record)
        if tracer is not None:
            self.tracers.append(tracer)

    def operations(self) -> int:
        """Training steps of one `train`, or videos labelled by one `segment`."""
        if self.trains:
            return int(TRAIN[TRAIN.index("--epochs") + 1]) * (self.task.videos // 2)
        return self.task.videos

    def check(self, out: Path, program_seed: int) -> list[str]:
        problems = []
        if self.trains:
            problems += checks.check_training(out, self.operations())
        else:
            problems += self.check_labels(out)
        artifacts = checks.artifact_bytes(out)
        first = self.first_artifacts.get(program_seed)
        if first is not None:
            differ = sorted(n for n in first.keys() | artifacts.keys()
                            if first.get(n) != artifacts.get(n))
            if differ:
                problems.append(f"rerun of seed {program_seed} changed {', '.join(differ)}")
            shutil.rmtree(out)
            return problems
        self.first_artifacts[program_seed] = artifacts
        if problems:
            return problems
        labels = out
        if self.trains:  # quality of a trained encoder = quality of its labels
            labels = out / "labels"
            code, console = run_cli([*LABEL, "--manifest", self.manifest, "--out", labels,
                                     "--seed", program_seed, "--checkpoint", out / "encoder.rgwf"])
            if code != 0:
                return [f"labelling with the trained encoder failed: {console}"]
            problems += self.check_labels(labels)
            if problems:
                return problems
        ids = list(self.truth)
        f1, iou = checks.macro_scores([checks.read_labels(labels / f"{v}.labels.txt") for v in ids],
                                      [self.truth[v] for v in ids], K)
        self.scores[program_seed] = (f1, iou)
        if self.stock_seed:
            for name, value in (("f1", f1), ("iou", iou)):
                floor = self.wl.floors.get(name)
                if floor is not None and value < floor:
                    problems.append(f"macro {name} {value:.4f} below the floor {floor}")
        return problems

    def check_labels(self, out: Path) -> list[str]:
        frames = {v: labels.size for v, labels in self.truth.items()}
        return checks.check_labels(out, list(self.truth), frames, K)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": self.wall_per_command(self.commands),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # 0 only when no command produced labels to score
            "macro_f1": statistics.mean(f1 for f1, _ in self.scores.values()) if self.scores else 0.0,
        }

    @staticmethod
    def wall_per_command(commands: list[dict]) -> float:
        """Mean over program seeds of each seed's median wall time.

        Program seeds differ in work (clip sampling changes Sinkhorn sweeps),
        so a plain median would depend on which seeds a run had time to repeat.
        """
        by_seed: dict[int, list[float]] = {}
        for c in commands:
            by_seed.setdefault(c["program_seed"], []).append(c["wall_s"])
        return statistics.mean(statistics.median(w) for w in by_seed.values())

    def per_layer(self) -> dict[str, float]:
        traced = [c for c in self.commands if c["traced"]]
        plain = [c for c in self.commands if not c["traced"]]
        per_command = []
        for tracer, record in zip(self.tracers, traced):
            metrics = tracing.layer_metrics(tracer, record["wall_s"])
            metrics["io.bytes_written"] = float(record["bytes_written"])
            per_command.append(metrics)
        out = tracing.median_metrics(per_command)
        out.update(tracing.pooled_metrics(self.tracers))
        out["trace_overhead_frac"] = self.wall_per_command(traced) / self.wall_per_command(plain) - 1
        out["process.cpu_s"] = statistics.median(c["cpu_s"] for c in plain)
        out["process.blas_threads"] = float(blas_threads())
        return out


def measure(run: Run, seconds: float, trace: bool) -> None:
    for i in range(1 if trace else SETUPS):
        run.set_up(i)
    seeds = range(run.wl.program_seeds)
    start = time.perf_counter()
    i = 0
    if not trace:
        # every program seed once, then one rerun for the determinism check
        while i < len(seeds) + 1 or time.perf_counter() - start < seconds:
            run.command(seeds[i % len(seeds)], traced=False)
            i += 1
        return
    while i < 2 or time.perf_counter() - start < seconds:
        # same seed untraced and traced, alternating which goes first
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            run.command(seeds[i % len(seeds)], traced=traced)
        i += 1


def write_record(run: Run, trace: bool, metrics: dict, facts: dict) -> Path:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{run.name}-seed{run.seed}-trace{int(trace)}.json"
    spans = [[[name, round(s * 1e6), round(e * 1e6), parent] for name, s, e, parent in t.spans]
             for t in run.tracers]
    record = {
        "workload": run.name, "why": WHY[run.name], "seed": run.seed, "trace": trace,
        "machine": facts, "task": {"profile": run.wl.profile, **run.wl.resize},
        "stock_seed": run.stock_seed, "setup_s": run.setup_s, "commands": run.commands,
        "scores": {str(k): v for k, v in run.scores.items()}, "problems": run.problems,
        "metrics": metrics, "span_fields": ["name", "start_us", "end_us", "parent"],
        "spans": spans,
    }
    path.write_text(json.dumps(record))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, Path(tempfile.mkdtemp(dir=WORK)))
    try:
        measure(run, args.seconds, trace)
        metrics = run.per_layer() if trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work)
    facts = machine_facts()
    path = write_record(run, trace, metrics, facts)

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if declared.keys() != metrics.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(declared.keys() ^ metrics.keys())}")

    print(f"workload {run.name} seed {run.seed}"
          f"{' (stock seed)' if run.stock_seed else ''}: {WHY[run.name]}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, unit in declared.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':40s} {run.failed / run.attempted:.6g} fraction "
          f"({run.failed}/{run.attempted} operations over {len(run.commands)} commands)")
    for problem in run.problems:
        print(f"  problem: {problem}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
