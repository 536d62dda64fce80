"""Property tests of the file readers and writers.

The vectorised CSV readers are checked against the per-cell parser they
replaced, kept here as the reference; the writers against the per-row
writers. Random edits of valid files must make every reader either succeed
or raise DataError, and the CLI must then exit 2.
"""

import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import (
    DataError,
    Dataset,
    LabelPrior,
    ModelParams,
    build_mv_priors,
    load_model,
    predict,
    read_dataset,
    read_predictions,
    save_model,
    write_dataset,
    write_predictions,
)
from labelforge import dataio, model
from labelforge.cli import cli_main
from labelforge.dataio import ModelFile, read_grid
from labelforge.infer import Predictions

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

PREDICTIONS_HEADER = "index,label,score_pos,abstain_reason"
REASONS = ("none", "tie", "forced", "degenerate")


# --- reference: the per-cell parser and per-row writers -------------------


def _ref_cell(text, row, column, allowed):
    text = text.strip()
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"row {row}, column {column!r}: cell {text!r} is not an integer") from None
    if value not in allowed:
        raise DataError(f"row {row}, column {column!r}: value {value} not in {set(allowed)}")
    return value


def ref_read_dataset(path, truth_col="y"):
    lines = [line for line in Path(path).read_text().splitlines() if line.strip() != ""]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in lines[0].split(",")]
    truth_idx = header.index(truth_col) if truth_col in header else None
    lf_idx = [k for k in range(len(header)) if k != truth_idx]
    if not lf_idx:
        raise DataError(f"{path}: no LF columns in header")
    if len(lines) == 1:
        raise DataError(f"{path}: no data rows")
    votes_rows, truth_rows = [], []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"{path}: row {i}: expected {len(header)} fields, got {len(cells)}")
        votes_rows.append([_ref_cell(cells[k], i, header[k], (-1, 0, 1)) for k in lf_idx])
        if truth_idx is not None:
            truth_rows.append(_ref_cell(cells[truth_idx], i, header[truth_idx], (-1, 1)))
    truth = np.array(truth_rows, dtype=np.int64) if truth_idx is not None else None
    return np.array(votes_rows, dtype=np.int64), truth


def ref_read_predictions(path):
    lines = [line for line in Path(path).read_text().splitlines() if line.strip() != ""]
    if lines[0] != PREDICTIONS_HEADER:
        raise DataError(f"{path}: unexpected predictions header {lines[0]!r}")
    labels, scores, reasons = [], [], []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != 4:
            raise DataError(f"{path}: row {i}: expected 4 fields, got {len(cells)}")
        labels.append(_ref_cell(cells[1], i, "label", (-1, 0, 1)))
        scores.append(float(cells[2]))
        reasons.append(cells[3].strip())
    return labels, scores, reasons


def ref_write_dataset(votes, truth):
    header = [f"lf_{j}" for j in range(votes.shape[1])] + ([] if truth is None else ["y"])
    lines = [",".join(header)]
    for i in range(votes.shape[0]):
        cells = [str(int(v)) for v in votes[i]]
        if truth is not None:
            cells.append(str(int(truth[i])))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def ref_write_predictions(predictions):
    lines = [PREDICTIONS_HEADER]
    rows = zip(
        predictions.labels.tolist(),
        predictions.score_pos.tolist(),
        predictions.abstain_reason.tolist(),
    )
    for i, (label, score, reason) in enumerate(rows):
        lines.append(f"{i},{label},{score!r},{reason}")
    return ("\n".join(lines) + "\n").encode()


# --- strategies ------------------------------------------------------------

SPELLINGS = {-1: ["-1"], 0: ["0", "+0", "-0"], 1: ["1", "+1"]}
PADDING = st.sampled_from(["", "", " ", "\t", "  "])
LINE_END = st.sampled_from(["\n", "\r\n"])


@st.composite
def spelled_lines(draw, rows):
    """Join rows of cells into file text with padded cells, LF or CRLF line
    ends, blank lines anywhere after the header and an optional last line end."""
    text = ""
    for row in rows:
        text += ",".join(draw(PADDING) + cell + draw(PADDING) for cell in row)
        text += draw(LINE_END)
        if draw(st.integers(0, 4)) == 0:
            text += draw(PADDING) + draw(LINE_END)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def vote_matrix(n, m):
    return st.lists(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=m, max_size=m), min_size=n, max_size=n
    )


@st.composite
def spelled_datasets(draw):
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    votes = draw(vote_matrix(n, m))
    header = [f"lf_{j}" for j in range(m)]
    truth_at = draw(st.none() | st.integers(0, m))
    truth = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    rows = []
    for i in range(n):
        row = [draw(st.sampled_from(SPELLINGS[v])) for v in votes[i]]
        if truth_at is not None:
            row.insert(truth_at, draw(st.sampled_from(SPELLINGS[truth[i]])))
        rows.append(row)
    if truth_at is not None:
        header.insert(truth_at, "y")
    return ",".join(header) + draw(LINE_END) + draw(spelled_lines(rows))


@st.composite
def predictions(draw):
    # row counts on both sides of the steps in the index's digit count
    n = draw(st.integers(0, 8) | st.integers(9, 11) | st.integers(99, 101))
    labels = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    # repeated values and -0.0 check that the writer's per-distinct-value
    # formatting keeps every score's own repr; a small pool makes most rows
    # share a score, as rows that share a vote pattern do
    score = st.floats(0.0, 1.0) | st.sampled_from([0.5, 0.0, -0.0])
    if draw(st.booleans()):
        score = st.sampled_from(draw(st.lists(score, min_size=1, max_size=3)))
    scores = draw(st.lists(score, min_size=n, max_size=n))
    reasons = draw(st.lists(st.sampled_from(REASONS), min_size=n, max_size=n))
    return Predictions(
        labels=np.array(labels, dtype=np.int8),
        score_pos=np.array(scores, dtype=np.float64),
        abstain_reason=np.array(reasons, dtype="<U10"),
    )


def _write(path, text):
    Path(path).write_bytes(text if isinstance(text, bytes) else text.encode())
    return path


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("io_properties")


# --- readers against the reference ----------------------------------------


@PROPERTY
@given(text=spelled_datasets())
def test_read_dataset_matches_reference(scratch, text):
    path = _write(scratch / "spelled.csv", text)
    ref_votes, ref_truth = ref_read_dataset(path)
    ds = read_dataset(path)
    assert ds.votes.dtype == np.int8
    np.testing.assert_array_equal(ds.votes, ref_votes)
    if ref_truth is None:
        assert ds.truth is None
    else:
        assert ds.truth.dtype == np.int8
        np.testing.assert_array_equal(ds.truth, ref_truth)


BAD_CELLS = ["2", "x", "", "1.0", "--1", "+-1", "1 1"]


def _location(message):
    found = re.search(r"row (\d+)(?:, column ('[^']*'))?", message)
    return found.group(1), found.group(2)


@PROPERTY
@given(text=spelled_datasets(), data=st.data())
def test_read_dataset_error_location_matches_reference(scratch, text, data):
    """The first bad cell or ragged row is the one the per-cell parser finds."""
    lines = text.split("\n")
    body = [k for k in range(1, len(lines)) if lines[k].strip()]
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.sampled_from(body))
        cells = lines[k].split(",")
        if data.draw(st.booleans()):
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(st.sampled_from(BAD_CELLS))
        else:
            cells.append("0")
        lines[k] = ",".join(cells)
    path = _write(scratch / "located.csv", "\n".join(lines))
    with pytest.raises(DataError) as ref:
        ref_read_dataset(path)
    with pytest.raises(DataError) as new:
        read_dataset(path)
    assert _location(str(new.value)) == _location(str(ref.value))


@PROPERTY
@given(preds=predictions(), data=st.data())
def test_read_predictions_matches_reference(scratch, preds, data):
    rows = [
        [str(i), data.draw(st.sampled_from(SPELLINGS[int(label)])), repr(float(score)), reason]
        for i, (label, score, reason) in enumerate(
            zip(preds.labels, preds.score_pos, preds.abstain_reason)
        )
    ]
    text = PREDICTIONS_HEADER + data.draw(LINE_END) + data.draw(spelled_lines(rows))
    path = _write(scratch / "spelled_preds.csv", text)
    ref_labels, ref_scores, ref_reasons = ref_read_predictions(path)
    back = read_predictions(path)
    assert back.labels.dtype == np.int8
    np.testing.assert_array_equal(back.labels, ref_labels)
    np.testing.assert_array_equal(back.score_pos, np.array(ref_scores, dtype=np.float64))
    assert back.abstain_reason.tolist() == ref_reasons


@PROPERTY
@given(text=spelled_datasets(), preds=predictions(), chunk=st.integers(1, 40), data=st.data())
def test_readers_match_reference_at_any_chunk_size(scratch, text, preds, chunk, data):
    """Chunks of a few bytes split cells and rows anywhere; the one pass that
    reads the votes (every cell, or only the label column) and the text
    cells' offsets must not depend on where."""
    rows = [
        [str(i), data.draw(st.sampled_from(SPELLINGS[int(label)])), repr(float(score)), reason]
        for i, (label, score, reason) in enumerate(
            zip(preds.labels, preds.score_pos, preds.abstain_reason)
        )
    ]
    preds_path = _write(
        scratch / "chunked_preds.csv", PREDICTIONS_HEADER + "\n" + data.draw(spelled_lines(rows))
    )
    path = _write(scratch / "chunked.csv", text)
    with mock.patch.object(dataio, "_CHUNK", chunk):
        ds = read_dataset(path)
        back = read_predictions(preds_path)
    ref_votes, ref_truth = ref_read_dataset(path)
    np.testing.assert_array_equal(ds.votes, ref_votes)
    np.testing.assert_array_equal(ds.truth, ref_truth)
    ref_labels, ref_scores, ref_reasons = ref_read_predictions(preds_path)
    np.testing.assert_array_equal(back.labels, ref_labels)
    np.testing.assert_array_equal(back.score_pos, np.array(ref_scores, dtype=np.float64))
    assert back.abstain_reason.tolist() == ref_reasons


# Spellings of one value each; every cell must read as its own float().
SCORE_SPELLINGS = [
    ["0.5", "0.50", "5e-1", "+.5", ".5", "5E-1", "500e-3", "0.5" + "0" * 29],
    ["0", "0.0", "-0", "-0.0", "+0", "0e5", "1e-400"],
    ["1", "1.0", "1e0", "+1.", "1."],
    ["0.1", "0.10000000000000000555", "1e-1"],
]


@PROPERTY
@given(data=st.data())
def test_read_predictions_reads_each_spelling_as_its_float(scratch, data):
    n = data.draw(st.integers(1, 40))
    cells = [data.draw(st.sampled_from(data.draw(st.sampled_from(SCORE_SPELLINGS))))
             for _ in range(n)]
    rows = [[str(i), "0", cell, "tie"] for i, cell in enumerate(cells)]
    text = PREDICTIONS_HEADER + "\n" + data.draw(spelled_lines(rows))
    back = read_predictions(_write(scratch / "spellings.csv", text))
    expected = np.array([float(cell) for cell in cells])
    np.testing.assert_array_equal(back.score_pos.view(np.int64), expected.view(np.int64))


@PROPERTY
@given(preds=predictions())
def test_hash_collisions_never_merge_cells(scratch, preds):
    """With every row hashed alike, grouping rests on the byte comparison
    alone: reading and writing still treat each cell as its own."""
    path = scratch / "collide.csv"
    with mock.patch.object(model, "_mix", np.zeros_like):
        write_predictions(path, preds)
        assert path.read_bytes() == ref_write_predictions(preds)
        back = read_predictions(path)
    np.testing.assert_array_equal(back.score_pos.view(np.int64), preds.score_pos.view(np.int64))
    np.testing.assert_array_equal(back.labels, preds.labels)
    assert back.abstain_reason.tolist() == preds.abstain_reason.tolist()


# --- writers: same bytes as the per-row writers, and write-read-write -----


@PROPERTY
@given(case=st.integers(1, 8).flatmap(lambda n: st.tuples(
    vote_matrix(n, 3), st.none() | st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))))
def test_dataset_write_read_write(scratch, case):
    votes, truth = case
    ds = Dataset(np.array(votes, dtype=np.int8), None if truth is None else np.array(truth))
    first, second = scratch / "ds1.csv", scratch / "ds2.csv"
    write_dataset(first, ds)
    assert first.read_bytes() == ref_write_dataset(ds.votes, ds.truth)
    write_dataset(second, read_dataset(first))
    assert second.read_bytes() == first.read_bytes()


@PROPERTY
@given(preds=predictions())
def test_predictions_write_read_write(scratch, preds):
    first, second = scratch / "p1.csv", scratch / "p2.csv"
    write_predictions(first, preds)
    assert first.read_bytes() == ref_write_predictions(preds)
    back = read_predictions(first)
    assert back.labels.dtype == np.int8
    write_predictions(second, back)
    assert second.read_bytes() == first.read_bytes()


# --- fuzzing: random edits of valid files ----------------------------------


@pytest.fixture(scope="module")
def fuzz_cases(scratch):
    """For each reader: the reader, a valid file, and the CLI arguments that
    read a file of that kind (the file's path goes last)."""
    votes = np.array(
        [[1, 0, -1], [1, 1, 0], [0, -1, -1], [-1, 0, 1], [1, 1, 1], [0, 0, -1],
         [-1, -1, 0], [1, 0, 1], [0, 1, 1], [-1, 1, -1], [1, -1, 0], [0, 0, 1]],
        dtype=np.int8,
    )
    truth = np.array([1, 1, -1, -1, 1, -1, -1, 1, 1, -1, 1, 1], dtype=np.int8)
    data = scratch / "valid_data.csv"
    write_dataset(data, Dataset(votes, truth))
    params = ModelParams([0.8, 0.7, 0.6], [0.5, 0.6, 0.4])
    preds = scratch / "valid_preds.csv"
    write_predictions(preds, predict(votes, params, LabelPrior(p=0.7, force_abstain=True)))
    model = scratch / "valid_model.txt"
    save_model(model, ModelFile(params, build_mv_priors(votes, 10.0, p=0.7), "d0"))
    grid = scratch / "valid_grid.json"
    grid.write_text(json.dumps({"strengths": [10.0, 100.0], "learning_rates": [0.01],
                                "alpha_inits": [0.9], "ps": [0.5, 0.7],
                                "force_abstain": [True, False]}))
    out = scratch / "out.csv"
    return {
        "dataset": (read_dataset, data, ["evaluate", "--mode", "mv", "--data"]),
        "predictions": (read_predictions, preds, ["evaluate", "--truth", data, "--pred"]),
        "model": (load_model, model, ["predict", "--data", data, "--out", out, "--model"]),
        "grid": (read_grid, grid, ["gridsearch", "--data", data, "--grid"]),
    }


CHUNKS = st.sampled_from(
    [b"-", b"+", b"0", b"1", b"2", b",", b"\n", b"\r", b" ", b"\t", b".", b"e", b"nan",
     b"none", b"\x00", b"\xff", b'"', b"[", b"{", b"}", b":", b": ", b"-1", b"1e999"]
) | st.binary(min_size=1, max_size=3)
EDITS = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(["insert", "delete", "replace"]), CHUNKS),
    min_size=1,
    max_size=6,
)


def _mutate(data, edits):
    buf = bytearray(data)
    for pos, op, chunk in edits:
        i = pos % (len(buf) + 1)
        if op == "insert":
            buf[i:i] = chunk
        elif op == "delete":
            del buf[i : i + len(chunk)]
        else:
            buf[i : i + len(chunk)] = chunk
    return bytes(buf)


@pytest.mark.parametrize("kind", ["dataset", "predictions", "model", "grid"])
@FUZZ
@given(edits=EDITS)
def test_fuzzed_file_raises_only_data_error(scratch, fuzz_cases, kind, edits):
    reader, valid, argv = fuzz_cases[kind]
    path = _write(scratch / f"fuzzed_{kind}", _mutate(valid.read_bytes(), edits))
    try:
        reader(path)
    except DataError:
        assert cli_main([str(a) for a in argv + [path]]) == 2
