"""labelforge benchmark: runs one workload's CLI commands end to end.

    python3 perfbench/run.py --workload cli-tall --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the commands run the sources under ``src``.
Inputs are drawn from --seed by the benchmark's own sampler and written
under .perfbench_work/<workload>/. One client runs the commands one after
another as child processes (a closed loop; two processes at most), repeating
the workload while the next repetition is expected to end within --seconds,
and at least twice, then checks the outputs. The last stdout line is the
JSON result; the lines before it are a readable report and a ``# record``
line with the fields needed to reproduce the run.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
(spans.py), plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import BALANCE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_REPEATS = 5
MIN_REPS = 2  # repeated runs must give byte-identical outputs
MAX_RUN_S = 150.0  # start no repetition past this, to end within 180 s

# Output files whose bytes must repeat across repetitions, per command.
OUTPUT_FILES = {
    "synth": "synth.csv",
    "train": "model.txt",
    "predict": "preds.csv",
    "gridsearch": "cells.csv",
}
FIT_COMMANDS = ("train", "gridsearch")

# Per-layer metrics: name -> (unit, group whose functions must exist).
PER_LAYER = {
    "cli.self_s": ("s", None),
    "dataio.read_s": ("s", "dataio.read"),
    "dataio.write_s": ("s", "dataio.write"),
    "dataio.bytes_read": ("bytes", "dataio.read"),
    "dataio.bytes_written": ("bytes", "dataio.write"),
    "priors.build_s": ("s", "priors.build"),
    "model.loglik_s": ("s", "model.loglik"),
    "model.loglik_calls": ("count", "model.loglik"),
    "train.fit_s": ("s", "train.fit"),
    "train.epochs": ("count", "train.fit"),
    "train.epoch_s": ("s", "train.fit"),
    "train.grad_s": ("s", "train.grad"),
    "train.grad_calls": ("count", "train.grad"),
    "train.grad_call_us": ("us", "train.grad"),
    "infer.predict_s": ("s", "infer.predict"),
    "infer.rows": ("count", "infer.predict"),
    "infer.degenerate_rows": ("count", "infer.predict"),
    "metrics.score_s": ("s", "metrics.score"),
    "experiments.cells": ("count", "experiments.grid"),
    "experiments.cells_failed": ("count", "experiments.grid"),
    "trace.overhead_frac": ("ratio", None),
    "label_acc": ("ratio", None),
    "label_coverage": ("ratio", None),
}
# Printed and recorded, but left out of the result line: each is zero by
# construction on some workload (the command or call never runs there).
REPORT_ONLY = {
    "cli.holdout_s": ("s", "cli.holdout"),
    "experiments.split_s": ("s", "experiments.split"),
    "experiments.cell_s": ("s", "experiments.cell"),
}
# Counts that must repeat exactly between traced repetitions.
EXACT_COUNTS = (
    "train.grad_calls", "train.epochs", "model.loglik_calls", "experiments.cells",
    "experiments.cells_failed", "infer.rows", "infer.degenerate_rows",
    "dataio.bytes_read", "dataio.bytes_written",
)


@dataclass
class Rep:
    """One repetition of the workload's commands."""

    walls: dict[str, float] = field(default_factory=dict)
    cpus: dict[str, float] = field(default_factory=dict)  # user + system CPU seconds
    peak_rss_mb: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    spans: list[tuple[float, dict]] = field(default_factory=list)


class Tally:
    """Operations attempted and failed: CLI invocations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def check(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append(f"{fn.__name__}: {exc}")
            return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("PYTHONPATH", "LABELFORGE_SEED"):
        env.pop(key, None)
    return env


def cpu_clock() -> float:
    """CPU seconds (user + system) used so far by this process and the
    children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_cli(argv: list[str], workdir: Path, spans_file: Path | None = None):
    """Run one labelforge command; returns (exit code, wall s, CPU s, peak
    RSS MB, stdout)."""
    cmd = [sys.executable, str(CHILD)]
    if spans_file is not None:
        cmd += ["--spans", str(spans_file)]
    cmd += ["--", *argv]
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text()[-2000:])
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, out_path.read_text()


def run_rep(commands, workdir: Path, tally: Tally, traced: bool) -> Rep | None:
    rep = Rep()
    for name, argv in commands:
        spans_file = workdir / f"spans-{name}.bin" if traced else None
        code, wall, cpu, rss, stdout = run_cli(argv, workdir, spans_file)
        if not tally.op(code == 0, f"{name} exited {code}"):
            return None
        rep.walls[name] = wall
        rep.cpus[name] = cpu
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        rep.stdout[name] = stdout
        if name in OUTPUT_FILES:
            rep.digests[name] = sha256(workdir / OUTPUT_FILES[name])
        if traced:
            rep.spans.append((wall, spans.load(spans_file)))
    return rep


def setup(workload, seed: int, workdir: Path, tally: Tally):
    """Draw and write the inputs, then warm up: one untimed CLI start, which
    also compiles the sources on a fresh checkout."""
    inputs = workload.make_inputs(seed, workdir)
    code, _, _, _, _ = run_cli(["--help"], workdir)
    tally.op(code == 0, f"warm-up exited {code}")
    return inputs


def output_checks(workload, inputs, rep: Rep, workdir: Path, tally: Tally) -> dict:
    """Check the output files and ``rep``'s stdout; returns label quality
    figures. The files are the last repetition's; the digest comparison
    shows that every repetition wrote the same bytes."""
    if "synth" in rep.walls:
        tally.check(checks.check_synth, workdir / "synth.csv", workload.n,
                    workload.coverage, workload.accuracy, BALANCE)
    if "gridsearch" in rep.walls:
        n_cells = 1
        for values in workload.grid.values():
            n_cells *= len(values)
        return tally.check(checks.check_cells, workdir / "cells.csv",
                           rep.stdout["gridsearch"], n_cells) or {}
    tally.check(checks.check_model_roundtrip, workdir / "model.txt", workdir / "roundtrip.txt")
    quality = tally.check(checks.check_predictions, workdir / "preds.csv", workdir / "model.txt",
                          inputs.votes, inputs.truth)
    if quality is None:
        return {}
    tally.check(checks.check_evaluate, rep.stdout["evaluate"], quality.pop("labels"), inputs.truth)
    return quality


def median(values):
    return statistics.median(values) if values else None


def command_medians(reps: list[Rep], commands, cpu: bool = False) -> dict:
    """Median wall (or CPU) time of each command over ``reps``. A workload's
    time is the sum of these, so a slow spell that hits one command in one
    repetition moves none of the medians."""
    return {name: median([(r.cpus if cpu else r.walls)[name] for r in reps])
            for name, _ in commands}


def layer_metrics(rep: Rep) -> tuple[dict, dict, list]:
    """Per-layer metrics of one traced repetition, the self time per layer,
    and the functions found absent."""
    summary = spans.summarize(rep.spans)
    group_s, calls, counts = summary["group_s"], summary["group_calls"], summary["counts"]
    epochs = counts.get("epochs", 0)
    grads = calls["train.grad"]
    metrics = {
        "cli.self_s": summary["cli_self_s"],
        "cli.holdout_s": group_s["cli.holdout"],
        "dataio.read_s": group_s["dataio.read"],
        "dataio.write_s": group_s["dataio.write"],
        "dataio.bytes_read": counts.get("bytes_read", 0),
        "dataio.bytes_written": counts.get("bytes_written", 0),
        "priors.build_s": group_s["priors.build"],
        "model.loglik_s": group_s["model.loglik"],
        "model.loglik_calls": calls["model.loglik"],
        "train.fit_s": group_s["train.fit"],
        "train.epochs": epochs,
        "train.epoch_s": group_s["train.fit"] / epochs if epochs else 0.0,
        "train.grad_s": group_s["train.grad"],
        "train.grad_calls": grads,
        "train.grad_call_us": group_s["train.grad"] / grads * 1e6 if grads else 0.0,
        "infer.predict_s": group_s["infer.predict"],
        "infer.rows": counts.get("rows", 0),
        "infer.degenerate_rows": counts.get("degenerate_rows", 0),
        "metrics.score_s": group_s["metrics.score"],
        "experiments.split_s": group_s["experiments.split"],
        "experiments.cell_s": group_s["experiments.cell"],
        "experiments.cells": counts.get("cells", 0),
        "experiments.cells_failed": counts.get("cells_failed", 0),
    }
    absent = sorted({name for _, dumped in rep.spans for name in dumped["absent"]})
    return metrics, summary["self_s"], absent


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """Digest of the measured sources and the benchmark, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fmt(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def run_rounds(commands, workdir: Path, tally: Tally, seconds: int, trace: bool):
    """Repeat the workload; returns the untraced and the traced repetitions.

    A round is one repetition, or with tracing an untraced and a traced one
    back to back, so both see the same machine state. Rounds go on while the
    next is expected to end within ``seconds``, and at least MIN_REPS run.
    """
    plain: list[Rep] = []
    traced: list[Rep] = []
    order = [False, True] if trace else [False]
    budget = min(seconds, MAX_RUN_S)
    start = time.perf_counter()
    round_s = 0.0
    while len(plain) < MIN_REPS or time.perf_counter() - start + round_s <= budget:
        round_start = time.perf_counter()
        for is_traced in order:
            rep = run_rep(commands, workdir, tally, is_traced)
            if rep is None:
                return plain, traced
            (traced if is_traced else plain).append(rep)
        round_s = time.perf_counter() - round_start
    return plain, traced


def traced_metrics(traced: list[Rep], commands, wall_s, quality: dict, tally: Tally):
    """Per-layer metrics (value, unit) over the traced repetitions: medians
    of times, and counts, which must repeat exactly. Also returns the self
    time per layer and the functions found absent."""
    per_rep = [layer_metrics(r) for r in traced]
    absent = per_rep[0][2]
    absent_groups = {group for group, names in spans.GROUPS.items()
                     if all(name in absent for name in names)}
    for name in EXACT_COUNTS:
        tally.op(len({m[name] for m, _, _ in per_rep}) == 1,
                 f"{name} differs between traced repetitions")
    traced_wall = sum(command_medians(traced, commands).values())
    metrics = {}
    for name, (unit, group) in {**PER_LAYER, **REPORT_ONLY}.items():
        if name == "trace.overhead_frac":
            value = (traced_wall - wall_s) / wall_s if wall_s else None
        elif name in ("label_acc", "label_coverage"):
            value = quality.get(name)
        elif group in absent_groups:
            value = None
        elif unit in ("count", "bytes"):
            value = per_rep[0][0][name]
        else:
            value = median([m[name] for m, _, _ in per_rep])
        metrics[name] = (value, unit)
    layer_self = {layer: median([s[layer] for _, s, _ in per_rep]) for layer in spans.LAYERS}
    return metrics, layer_self, absent


def write_spans(path: Path, commands, traced: list[Rep]) -> None:
    """All traced spans, one JSON line per command run; spans of one
    command share the line's trace id."""
    with open(path, "w") as fh:
        for rep_no, rep in enumerate(traced):
            for (name, _), (wall, dumped) in zip(commands, rep.spans):
                fh.write(json.dumps({"trace": f"rep{rep_no}-{name}", "wall_s": wall,
                                     **dumped}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "labelforge" / "cli.py").is_file():
        print(f"perfbench: no labelforge sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("perfbench: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the model round-trip check

    workdir = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()

    setup_s, setup_cpu_s, input_digests = [], [], []
    for _ in range(SETUP_REPEATS):
        start, start_cpu = time.perf_counter(), cpu_clock()
        inputs = setup(workload, args.seed, workdir, tally)
        setup_s.append(time.perf_counter() - start)
        setup_cpu_s.append(cpu_clock() - start_cpu)
        input_digests.append({name: sha256(workdir / name) for name in inputs.files})
    tally.op(all(d == input_digests[0] for d in input_digests),
             "inputs differ between set-ups of one seed")

    commands = workload.commands(workload, args.seed)
    plain, traced = run_rounds(commands, workdir, tally, args.seconds, bool(args.trace))

    quality = {}
    reps = plain + traced
    if plain:
        quality = output_checks(workload, inputs, plain[0], workdir, tally)
        for name in reps[0].digests:
            tally.op(all(r.digests[name] == reps[0].digests[name] for r in reps),
                     f"{name} output differs between repetitions")
        for name in reps[0].stdout:
            tally.op(all(r.stdout[name] == reps[0].stdout[name] for r in reps),
                     f"{name} stdout differs between repetitions")

    walls = command_medians(plain, commands) if plain else {}
    wall_s = sum(walls.values()) if plain else None
    cpus = command_medians(plain, commands, cpu=True) if plain else {}
    end_to_end = {
        "setup_s": (median(setup_cpu_s), "s"),
        "cpu_s": (sum(cpus.values()) if plain else None, "s"),
        "fit_cpu_s": (sum(v for n, v in cpus.items() if n in FIT_COMMANDS) if plain else None, "s"),
        "peak_rss_mb": (median([r.peak_rss_mb for r in plain]), "MB"),
    }
    per_layer, layer_self, absent = {}, {}, []
    if traced:
        per_layer, layer_self, absent = traced_metrics(traced, commands, wall_s, quality, tally)

    error_rate = len(tally.failures) / tally.attempted
    print(f"# labelforge benchmark: workload {workload.name}, seed {args.seed}, "
          f"{len(plain)} untraced and {len(traced)} traced repetitions")
    print(f"#   setup_s           {fmt(median(setup_cpu_s))} s CPU, {fmt(median(setup_s))} s "
          f"wall (median of {len(setup_s)})")
    for name, value in walls.items():
        print(f"#   {name + '_s':<17} {fmt(cpus[name])} s CPU, {fmt(value)} s wall "
              f"(median of {len(plain)}; max wall {fmt(max(r.walls[name] for r in plain))})")
    print(f"#   cpu_s             {fmt(end_to_end['cpu_s'][0])} s (sum of command CPU medians)")
    print(f"#   fit_cpu_s         {fmt(end_to_end['fit_cpu_s'][0])} s")
    print(f"#   wall_s            {fmt(wall_s)} s (sum of command wall medians)")
    print(f"#   peak_rss_mb       {fmt(end_to_end['peak_rss_mb'][0])} MB (median of {len(plain)})")
    for name, value in quality.items():
        print(f"#   {name:<17} {fmt(value)}")
    print(f"#   error_rate        {fmt(error_rate)} ({len(tally.failures)} of {tally.attempted})")
    for failure in tally.failures:
        print(f"#   FAILED: {failure}")
    if traced:
        print(f"# per layer (median of {len(traced)} traced repetitions):")
        for name, (value, unit) in per_layer.items():
            print(f"#   {name:<25} {fmt(value)} {unit if value is not None else ''}")
        print("# self time by layer: " + ", ".join(f"{k} {v:.4g} s" for k, v in layer_self.items()))
        if absent:
            print(f"# absent functions: {', '.join(absent)}")
        write_spans(workdir / "spans.jsonl", commands, traced)
        print(f"# spans written to {(workdir / 'spans.jsonl').relative_to(ROOT)}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": f"python3 perfbench/run.py --workload {workload.name} --seed {args.seed} "
                   f"--seconds {args.seconds} --trace {args.trace}",
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "repetitions": {"setup": len(setup_s), "untraced": len(plain), "traced": len(traced)},
        "input_sha256": input_digests[0],
        "setup_s_each": setup_s,
        "setup_cpu_s_each": setup_cpu_s,
        "command_cpu_s": cpus,
        "command_cpu_s_each": {name: [r.cpus[name] for r in plain] for name in walls},
        "wall_s_each": {"untraced": [sum(r.walls.values()) for r in plain],
                        "traced": [sum(r.walls.values()) for r in traced]},
        "command_s": walls,
        "command_s_each": {name: [r.walls[name] for r in plain] for name in walls},
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "quality": quality,
        "error_rate": error_rate,
        "failures": tally.failures,
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "layer_self_s": layer_self,
        "absent": absent,
    }
    print("# record " + json.dumps(record, sort_keys=True))
    (workdir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.trace:
        reported = {k: per_layer.get(k, (None, unit)) for k, (unit, _) in PER_LAYER.items()}
    else:
        reported = end_to_end
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        # an absent layer is reported as 0 so the line stays complete
        "metrics": {k: {"value": 0.0 if v is None else v, "unit": u}
                    for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
