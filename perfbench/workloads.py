"""The benchmark's workloads: their inputs, drawn from the benchmark seed by
the benchmark's own sampler, and the labelforge commands each one runs.

Inputs never come from ``labelforge.generate_synthetic`` or ``synth``, so a
change to the library cannot change what it is measured on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# LF statistics shared by cli-tall and grid-minibatch: coverage and accuracy
# ramp across the ten LFs.
TALL_COVERAGE = np.linspace(0.1, 0.6, 10)
TALL_ACCURACY = np.linspace(0.55, 0.9, 10)
BALANCE = 0.5

# Early stopping never fires when patience >= epochs, so the work per fit is
# fixed whatever the validation losses do. Sizes keep one repetition of a
# workload to a few seconds, so that a run holds several and its medians
# are not moved by a slow spell of a shared machine.
TALL_EPOCHS = 20
WIDE_EPOCHS = 10
GRID_EPOCHS = 5

GRID = {
    "strengths": [10.0, 100.0],
    "learning_rates": [0.01],
    "alpha_inits": [0.8, 1.0],
    "ps": [0.5, 0.7, 0.9],
    "force_abstain": [True, False],
}

DATA = "data.csv"
GRID_FILE = "grid.json"


@dataclass
class Inputs:
    """The sampled matrix and truth (kept for the output checks) and the
    files written for the CLI."""

    votes: np.ndarray
    truth: np.ndarray
    files: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # separates the workloads' random streams for one seed
    n: int
    coverage: np.ndarray
    accuracy: np.ndarray
    commands: Callable[["Workload", int], list[tuple[str, list[str]]]]
    grid: dict | None = None

    @property
    def m(self) -> int:
        return len(self.coverage)

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        rng = np.random.default_rng([seed, self.tag])
        votes, truth = sample(rng, self.n, self.coverage, self.accuracy, BALANCE)
        write_csv(workdir / DATA, votes, truth)
        files = [DATA]
        if self.grid is not None:
            (workdir / GRID_FILE).write_text(json.dumps(self.grid, sort_keys=True) + "\n")
            files.append(GRID_FILE)
        return Inputs(votes, truth, files)


def pipeline(epochs: int, train_flags: tuple = (), synth: bool = False):
    """[synth,] train, predict, evaluate: the README's CLI workflow. Each
    command's (name, argv) is run in order in the work directory."""

    def commands(w: Workload, seed: int) -> list[tuple[str, list[str]]]:
        s = ["--seed", str(seed)]
        steps = [
            ("train", ["train", "--data", DATA, "--mode", "map-mv", "--val-frac", "0.1",
                       "--epochs", str(epochs), "--patience", str(epochs),
                       *train_flags, "--out", "model.txt", *s]),
            ("predict", ["predict", "--model", "model.txt", "--data", DATA,
                         "--out", "preds.csv", *s]),
            ("evaluate", ["evaluate", "--pred", "preds.csv", "--truth", DATA, *s]),
        ]
        if synth:
            steps.insert(0, ("synth", [
                "synth", "--m", str(w.m), "--n", str(w.n), "--alpha", _floats(w.accuracy),
                "--beta", _floats(w.coverage), "--balance", str(BALANCE),
                "--out", "synth.csv", *s]))
        return steps

    return commands


def gridsearch(w: Workload, seed: int) -> list[tuple[str, list[str]]]:
    return [("gridsearch", [
        "gridsearch", "--data", DATA, "--mode", "map-mv", "--batch", "64",
        "--epochs", str(GRID_EPOCHS), "--patience", str(GRID_EPOCHS),
        "--grid", GRID_FILE, "--out", "cells.csv", "--seed", str(seed)])]


def _floats(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)


def sample(rng, n: int, coverage, accuracy, balance: float):
    """Draw (votes, truth) from the paper's generative model: each LF votes
    with probability coverage, and votes the true label with probability
    accuracy when it votes."""
    m = len(coverage)
    truth = np.where(rng.random(n) < balance, 1, -1).astype(np.int8)
    voted = rng.random((n, m)) < coverage
    correct = rng.random((n, m)) < accuracy
    signed = np.where(correct, truth[:, None], -truth[:, None])
    return np.where(voted, signed, 0).astype(np.int8), truth


def write_csv(path: Path, votes: np.ndarray, truth: np.ndarray) -> None:
    """The dataset format of the README: header lf_0..lf_{m-1},y."""
    header = ",".join([f"lf_{j}" for j in range(votes.shape[1])] + ["y"])
    cells = np.array(["-1", "0", "1"])[np.column_stack([votes, truth]) + 1]
    body = "\n".join(map(",".join, cells.tolist()))
    path.write_text(f"{header}\n{body}\n")


WORKLOADS = {
    w.name: w
    for w in (
        # The user's batch path. CSV parse and write are about half of it and
        # the full-batch kernel most of the rest; about 12k distinct vote
        # patterns for 100k rows.
        Workload("cli-tall", 1, 100_000, TALL_COVERAGE, TALL_ACCURACY,
                 pipeline(TALL_EPOCHS, ("--p", "0.7"), synth=True)),
        # 6,840 gradient calls of 64 rows: per-call overhead dominates and
        # CSV I/O is negligible; the train layer used the opposite way.
        Workload("grid-minibatch", 2, 5_000, TALL_COVERAGE, TALL_ACCURACY,
                 gridsearch, grid=GRID),
        # 120x the kernel cost per row and too many LFs for a vote-pattern
        # path (m > 39). Every row underflows to `degenerate` in predict at
        # the seed code; the shape is kept so that stays visible.
        Workload("cli-wide", 3, 2_000, np.full(1200, 0.5), np.linspace(0.55, 0.9, 1200),
                 pipeline(WIDE_EPOCHS)),
    )
}
