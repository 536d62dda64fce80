"""Checks of the CLI's output files against the benchmark's own inputs and
its own arithmetic. Each check raises CheckFailed with the reason, or
returns the figures it measured on the way.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

PRED_HEADER = "index,label,score_pos,abstain_reason"
RESULTS_HEADER = "experiment,mode,size,replicate,metric,value"
REASONS = ("none", "tie", "forced", "degenerate")
CELL_METRICS = ("f1", "accuracy", "precision", "recall", "auc_roc", "coverage")
# Log-domain and linear-domain posteriors agree to far better than this; rows
# whose two-class posterior gap is below it may be labelled either way.
POSTERIOR_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _lines(path: Path) -> list[str]:
    _require(path.is_file(), f"{path.name} was not written")
    return path.read_text().splitlines()


def _columns(rows: list[str], width: int, what: str) -> list[tuple[str, ...]]:
    cells = [row.split(",") for row in rows]
    _require(all(len(c) == width for c in cells), f"{what}: a row has not {width} fields")
    return list(zip(*cells))


def read_model(path: Path) -> dict[str, str]:
    fields = {}
    for line in _lines(path):
        key, sep, value = line.partition(": ")
        _require(sep == ": ", f"{path.name}: malformed line {line!r}")
        fields[key] = value
    return fields


def read_predictions(path: Path, n: int):
    lines = _lines(path)
    _require(lines[:1] == [PRED_HEADER], f"{path.name}: header {lines[:1]!r}")
    _require(len(lines) - 1 == n, f"{path.name}: {len(lines) - 1} rows for {n} inputs")
    index, labels, scores, reasons = _columns(lines[1:], 4, path.name)
    try:
        index = np.array(index).astype(np.int64)
        labels = np.array(labels).astype(np.int64)
        scores = np.array(scores).astype(np.float64)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    reasons = np.array(reasons)
    _require(np.array_equal(index, np.arange(n)), f"{path.name}: index column is not 0..n-1")
    _require(np.isin(labels, (-1, 0, 1)).all(), f"{path.name}: label outside {{-1, 0, 1}}")
    _require(((scores >= 0) & (scores <= 1)).all(), f"{path.name}: score outside [0, 1]")
    _require(np.isin(reasons, REASONS).all(), f"{path.name}: unknown abstain reason")
    return labels, scores, reasons


def log_joint(votes: np.ndarray, accuracy, coverage, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Log P(row, y=+1) and log P(row, y=-1) under saved parameters and the
    majority-vote-anchored label prior of strength p."""
    pos = (votes == 1).astype(np.float64)
    neg = (votes == -1).astype(np.float64)
    off = 1.0 - pos - neg
    with np.errstate(divide="ignore"):
        agree = np.log(accuracy * coverage)
        disagree = np.log((1.0 - accuracy) * coverage)
        abstain = np.log(1.0 - coverage)
    base = (off * abstain).sum(axis=1)
    ll_pos = base + (pos * agree).sum(axis=1) + (neg * disagree).sum(axis=1)
    ll_neg = base + (neg * agree).sum(axis=1) + (pos * disagree).sum(axis=1)
    mv = np.sign(pos.sum(axis=1) - neg.sum(axis=1))
    prior_pos = np.where(mv > 0, p, np.where(mv < 0, 1.0 - p, 0.5))
    with np.errstate(divide="ignore"):
        return ll_pos + np.log(prior_pos), ll_neg + np.log(1.0 - prior_pos)


def check_predictions(pred_path: Path, model_path: Path, votes, truth) -> dict:
    """Row count, value ranges and reasons; then every row that is not
    degenerate is labelled by the argmax of the benchmark's own log-domain
    posterior, and its score is that posterior."""
    n = votes.shape[0]
    labels, scores, reasons = read_predictions(pred_path, n)
    model = read_model(model_path)
    try:
        accuracy = np.array(model["accuracy"].split(","), dtype=np.float64)
        coverage = np.array(model["coverage"].split(","), dtype=np.float64)
        p = float(model["prior_p"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{model_path.name}: {exc!r}") from None
    force_abstain = model.get("prior_force_abstain") == "true"
    _require(accuracy.shape == coverage.shape == (votes.shape[1],),
             f"{model_path.name}: parameter vectors do not match m={votes.shape[1]}")

    joint_pos, joint_neg = log_joint(votes, accuracy, coverage, p)
    posterior = np.exp(joint_pos - np.logaddexp(joint_pos, joint_neg))
    gap = 2.0 * posterior - 1.0
    degenerate = reasons == "degenerate"
    _require((labels[degenerate] == 0).all(), "a degenerate row carries a label")
    live = ~degenerate
    _require(np.abs(scores[live] - posterior[live]).max(initial=0.0) <= POSTERIOR_TOL,
             "score_pos differs from the log-domain posterior")
    clear = live & (np.abs(gap) > POSTERIOR_TOL)
    forced = reasons == "forced"
    if force_abstain:
        mv = np.sign((votes == 1).sum(axis=1) - (votes == -1).sum(axis=1))
        _require(np.array_equal(forced, mv == 0), "forced abstentions differ from MV abstentions")
    else:
        _require(not forced.any(), "forced abstention without force_abstain")
    voted = clear & ~forced
    _require(np.array_equal(labels[voted], np.sign(gap[voted]).astype(np.int64)),
             "a label differs from the argmax of the log-domain posterior")
    _require((reasons[voted] == "none").all(), "a clear-posterior row abstains")
    _require((np.abs(gap[reasons == "tie"]) <= POSTERIOR_TOL).all(), "a 'tie' row is no tie")
    return {
        "label_acc": float((labels == truth).mean()),
        "label_coverage": float((labels != 0).mean()),
        "degenerate_rows": int(degenerate.sum()),
        "labels": labels,
    }


def check_evaluate(stdout: str, labels: np.ndarray, truth: np.ndarray) -> None:
    """The printed confusion counts, n_scored, coverage and accuracy match
    the benchmark's own count over the predictions file."""
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    scored = labels != 0
    tp = int(((labels == 1) & (truth == 1)).sum())
    fp = int(((labels == 1) & (truth == -1)).sum())
    fn = int(((labels == -1) & (truth == 1)).sum())
    tn = int(((labels == -1) & (truth == -1)).sum())
    n_scored = int(scored.sum())
    accuracy = "NA" if n_scored == 0 else f"{(tp + tn) / n_scored * 100:.2f}"
    expected = {
        "confusion_tn_fp_fn_tp": f"{tn},{fp},{fn},{tp}",
        "n_scored": str(n_scored),
        "coverage": f"{float(scored.sum() / labels.shape[0]) * 100:.2f}",
        "accuracy": accuracy,
    }
    for key, value in expected.items():
        _require(fields.get(key) == value, f"evaluate printed {key}={fields.get(key)!r}, expected {value!r}")


def check_model_roundtrip(model_path: Path, copy_path: Path) -> None:
    """load_model then save_model reproduces the model file byte for byte."""
    from labelforge.dataio import load_model, save_model

    save_model(copy_path, load_model(model_path))
    _require(copy_path.read_bytes() == model_path.read_bytes(),
             "load_model -> save_model does not reproduce the model file")


def check_synth(path: Path, n: int, coverage, accuracy, balance: float) -> None:
    """synth writes n rows of valid cells whose LF statistics match the
    requested ones (tolerances are at least four standard errors at n=100k)."""
    lines = _lines(path)
    m = len(coverage)
    _require(lines[:1] == [",".join([f"lf_{j}" for j in range(m)] + ["y"])],
             f"{path.name}: header {lines[:1]!r}")
    _require(len(lines) - 1 == n, f"{path.name}: {len(lines) - 1} rows, expected {n}")
    try:
        table = np.array(",".join(lines[1:]).split(",")).astype(np.int64).reshape(n, m + 1)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    votes, truth = table[:, :m], table[:, m]
    _require(np.isin(votes, (-1, 0, 1)).all() and np.isin(truth, (-1, 1)).all(),
             f"{path.name}: cell outside the allowed values")
    voted = votes != 0
    _require(np.abs(voted.mean(axis=0) - coverage).max() < 0.01, "synth coverage off target")
    agree = (votes == truth[:, None]).sum(axis=0) / voted.sum(axis=0)
    _require(np.abs(agree - accuracy).max() < 0.02, "synth accuracy off target")
    _require(abs((truth == 1).mean() - balance) < 0.01, "synth class balance off target")


def check_cells(path: Path, stdout: str, n_cells: int) -> dict:
    """Every grid cell has its six metrics in range, and the printed best
    cell is one of them. Returns the best cell's validation accuracy and
    coverage."""
    lines = _lines(path)
    _require(lines[:1] == [RESULTS_HEADER], f"{path.name}: header {lines[:1]!r}")
    cells: dict[int, dict[str, float | None]] = {}
    for row in lines[1:]:
        fields = row.split(",")
        _require(len(fields) == 6 and fields[:3] == ["gridsearch", "map-mv", ""],
                 f"{path.name}: unexpected row {row!r}")
        _require(fields[4] in CELL_METRICS, f"{path.name}: unknown metric {fields[4]!r}")
        value = None if fields[5] == "NA" else float(fields[5])
        _require(value is None or 0.0 <= value <= 1.0, f"{path.name}: value out of range in {row!r}")
        cells.setdefault(int(fields[3]), {})[fields[4]] = value
    _require(sorted(cells) == list(range(n_cells)), f"{path.name}: cells {sorted(cells)}")
    _require(all(len(metrics) == len(CELL_METRICS) for metrics in cells.values()),
             f"{path.name}: a cell lacks metrics")
    match = re.search(r"^best cell #(\d+) wins=\d+", stdout, re.MULTILINE)
    _require(match is not None and int(match.group(1)) in cells, "no valid best cell printed")
    best = cells[int(match.group(1))]
    return {"label_acc": best["accuracy"] or 0.0, "label_coverage": best["coverage"]}
