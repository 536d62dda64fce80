"""File formats: LF-matrix CSV datasets, prediction tables, results tables,
grid-search JSON files and the versioned plain-text model file.

The dataset format is a comma-separated header naming the LF columns plus
an optional ground-truth column (named "y" unless overridden), with every
body cell one of -1, 0, 1 (truth restricted to -1/1). Votes are read into
int8 arrays. The CSV readers work on the file's bytes with whole-array
numpy operations and never make a Python object per cell. One pass over
the bytes, a chunk at a time, locates every cell's closing separator and
reads each cell as a vote from the three bytes before it, so the working
memory is a few times the file's size and holds no per-byte offsets or
full-grid temporaries. Text cells are read as fixed-width words and
grouped by their bytes: each distinct score text is cast to float once,
and the predictions writer formats each distinct (label, score, reason)
tail once, to which each row adds only its index. A malformed file raises
DataError naming the first bad row (and column). The model file is a
human-diffable key-value record whose floats are written with repr, so a
write -> read -> write round trip is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .experiments import GridSpec
from .infer import REASON_DEGENERATE, REASON_FORCED, REASON_NONE, REASON_TIE, Predictions
from .model import Dataset, LabelPrior, ModelParams
from .priors import PriorSpec

MODEL_FORMAT_VERSION = 1

_MODEL_KEYS = (
    "format_version",
    "m",
    "accuracy",
    "coverage",
    "prior_source",
    "prior_strength",
    "prior_p",
    "prior_force_abstain",
    "prior_u",
    "prior_v",
    "prior_means",
    "config_digest",
)

RESULTS_HEADER = "experiment,mode,size,replicate,metric,value"
PREDICTIONS_HEADER = "index,label,score_pos,abstain_reason"

_NL, _COMMA, _SPACE, _TAB, _PLUS, _MINUS, _ZERO, _ONE = b"\n, \t+-01"
_LEADING_BLANK_LINES = re.compile(rb"(?:[ \t]*\n)*")

_LABEL_TEXT = ("-1", "0", "1")

_REASONS = np.array(  # dtype of Predictions.abstain_reason
    [REASON_NONE, REASON_TIE, REASON_FORCED, REASON_DEGENERATE], dtype="<U10"
)
# Longest score and reason cells read, in bytes (multiples of 8); repr of a
# float64 is at most 24 characters, the longest reason 10.
_SCORE_WIDTH, _REASON_WIDTH = 32, 16

_TAIL = _SCORE_WIDTH  # zero bytes after the body, so a window of that width from any cell fits
_CHUNK = 1 << 16  # bytes of text searched at a time for cell offsets
# Fewest LF columns for which read_dataset copies them out as a slice rather
# than gathering them (about 0.3 against 0.4 ms per million cells at 20).
_SLICE_COPY_LFS = 16
# _WORD_MASKS[k] keeps the first k bytes of a uint64 word and zeroes the rest.
_WORD_MASKS = np.frombuffer(
    b"".join(b"\xff" * k + b"\0" * (8 - k) for k in range(9)), dtype=np.uint64
)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _separator(byte: np.ndarray) -> np.ndarray:
    sep = byte == _COMMA
    sep |= byte == _NL
    return sep


def _kept(raw: np.ndarray) -> np.ndarray:
    """Mask of the bytes of ``raw`` that are not spaces or tabs; one right
    after a sign is kept, so "- 1" stays a bad cell."""
    kept = raw != _SPACE
    kept &= raw != _TAB
    kept[1:] |= raw[:-1] == _PLUS
    kept[1:] |= raw[:-1] == _MINUS
    return kept


def _live(body: np.ndarray) -> np.ndarray:
    """Mask of the bytes of ``body`` that are not the line end of a blank line."""
    newline = body == _NL
    live = np.empty(body.size, dtype=bool)
    live[:1] = True
    np.logical_and(newline[1:], newline[:-1], out=live[1:])
    np.logical_not(live[1:], out=live[1:])
    return live


def _read_padded(path) -> bytearray:
    """The file's bytes with LF line ends and a line end at the end, then
    ``_TAIL`` zero bytes, read into one buffer sized for them, so the
    padding copies nothing."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size + 1 + _TAIL)
        del data[fh.readinto(data) :]
        data += fh.read()  # whatever the file gained since its size was taken
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    data += bytes(_TAIL)
    return data


def _body(data: bytearray, end: int) -> np.ndarray:
    """The bytes of ``data`` from the header's line end at ``end`` on, without
    the spaces and tabs around cells and without blank lines. ``data`` ends
    in ``_TAIL`` zero bytes, and so does the result; when nothing is dropped
    it is a view of ``data``, not a copy. The space and tab mask is built
    only when the body holds one."""
    raw = np.frombuffer(data, dtype=np.uint8)[end:]
    body = raw[: raw.size - _TAIL]
    spaced = data.find(b" ", end) >= 0 or data.find(b"\t", end) >= 0
    if spaced:
        body = body[_kept(body)]
    live = _live(body)
    if not spaced and live.all():
        return raw
    body = body[live]
    text = np.zeros(body.size + _TAIL, dtype=np.uint8)
    text[: body.size] = body
    return text


def _read_votes(last, before, first, value, bad) -> None:
    """Read cells as votes from the three bytes before each one's closing
    separator: ``bad`` marks the cells that are not an optional sign followed
    by the digit 0 or 1, and ``value`` gets the vote of every other cell."""
    digit = value.view(np.uint8)
    np.subtract(last, _ZERO, out=digit)
    np.greater(digit, 1, out=bad)
    minus = before == _MINUS
    value *= 1 - 2 * minus.view(np.int8)
    opens = before == _PLUS
    opens |= minus
    opens &= _separator(first)  # a sign opens the cell
    opens |= _separator(before)  # or the digit does
    bad |= ~opens


def _group(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of equal integer columns: (first, inverse), where
    ``first[g]`` is a row of group g and ``inverse[i]`` the group of row i.

    Groups are found by sorting a 64-bit hash of each row's columns; rows
    whose columns differ from their group's first row after all (a hash
    collision) get a group each, so only equal rows ever share one.
    """
    key = np.zeros(columns[0].size, dtype=np.uint64)
    for col in columns:
        key ^= col.astype(np.uint64, copy=False)
        key *= _MIX
    order = np.argsort(key)
    key = key[order]
    starts = np.empty(key.size, dtype=bool)
    starts[:1] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    del key
    first = order[starts]
    group = np.cumsum(starts)
    group -= 1
    del starts
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = group
    del order, group
    differs = np.zeros(inverse.size, dtype=bool)
    for col in columns:
        differs |= col[first][inverse] != col
    odd = np.flatnonzero(differs)
    inverse[odd] = first.size + np.arange(odd.size)
    return np.concatenate([first, odd]), inverse


class _Table:
    """A CSV file as a header plus a grid of body cells, split without making
    a Python object per cell or an offset per byte.

    The body is one byte array, ``text``: the file's bytes from the header's
    line end on, with blank lines dropped and the spaces and tabs around
    cells removed (one after a sign is kept, so "- 1" stays a bad cell), then
    ``_TAIL`` zero bytes. Line ends may be LF, CRLF or CR. Each cell is
    closed by the comma or line end after it. One pass over ``text``, a
    chunk at a time, finds those separators and reads the cells of
    ``vote_col`` (every cell when None) as votes from the three bytes before
    each one's separator. With ``offsets`` the same pass keeps every cell's
    offset, which text columns need, as int32 (int64 past 2 GiB); otherwise
    they are found again on first use. Rows count the non-blank lines after
    the header. The grid holds the rows before the first one whose field
    count differs from the header's; ``ragged_fields`` is that row's count
    (None if every row matches).
    """

    def __init__(self, path, vote_col: int | None = None, offsets: bool = False):
        self.path = path
        data = _read_padded(path)
        begin = _LEADING_BLANK_LINES.match(data).end()
        if begin == len(data) - _TAIL:
            raise DataError(f"{path}: empty file")
        end = data.index(b"\n", begin)
        try:
            header = data[begin:end].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: header is not UTF-8 text") from None
        self.header = [name.strip() for name in header.split(",")]
        width = len(self.header)
        self._data, self._end = data, end
        del data
        self.text = _body(self._data, end)

        # text[0] is the header's line end, which closes no cell
        self.cells = sum(
            int(np.count_nonzero(_separator(self.text[lo : lo + _CHUNK])))
            for lo in range(1, self.text.size, _CHUNK)
        )
        # the cells read as votes: every step-th from the first
        self._vote_col = vote_col
        first, step = (0, 1) if vote_col is None else (vote_col, width)
        voted = len(range(first, self.cells, step))
        self._value = np.empty(voted, dtype=np.int8)
        self._bad = np.empty(voted, dtype=bool)
        ends_line = np.empty(self.cells, dtype=bool)
        if offsets:
            self._closers = self._offset_array()
        for found, at in self._separators():
            cut = slice(found, found + at.size)
            ends_line[cut] = self.text[at] == _NL
            if offsets:
                self._closers[1 + found : 1 + found + at.size] = at
            skip = first - found if found < first else (first - found) % step
            at = at[skip::step]
            lo = (found + skip - first) // step
            into = slice(lo, lo + at.size)
            # Only the first cell can look back past text[0], a line end. It
            # then reads tail zeros (no sign, no separator), and its verdict
            # already follows from text[0] and its own bytes.
            _read_votes(*(self.text[at - k] for k in (1, 2, 3)), self._value[into], self._bad[into])

        self.lines = int(np.count_nonzero(ends_line))
        # A row is whole when its last cell, and only that one, ends a line;
        # every row before the first that is not starts at a multiple of width.
        whole = ends_line[: self.cells // width * width].reshape(-1, width)
        broken = np.flatnonzero(~whole[:, -1] | whole[:, :-1].any(axis=1))
        self.rows = int(broken[0]) if broken.size else whole.shape[0]
        rest = ends_line[self.rows * width :]
        self.ragged_fields = int(np.argmax(rest)) + 1 if rest.size else None

    def _separators(self):
        """Offsets into ``text`` of the cells' closing separators, one chunk
        of text at a time, each with the number of cells before it."""
        found = 0
        for lo in range(1, self.text.size, _CHUNK):
            at = np.flatnonzero(_separator(self.text[lo : lo + _CHUNK])) + lo
            yield found, at
            found += at.size

    def _grid(self, flat: np.ndarray) -> np.ndarray:
        """Per-cell values in file order, cut to the grid's rows."""
        width = len(self.header)
        return flat[: self.rows * width].reshape(self.rows, width)

    def votes(self) -> tuple[np.ndarray, np.ndarray]:
        """The cells read as votes, as int8, and the mask of those that are
        not a vote (an optional sign followed by the digit 0 or 1): the grid,
        or the rows' cells of the one column read."""
        if self._vote_col is None:
            return self._grid(self._value), self._grid(self._bad)
        return self._value[: self.rows], self._bad[: self.rows]

    def _offset_array(self) -> np.ndarray:
        small = self.text.size <= np.iinfo(np.int32).max
        closers = np.empty(1 + self.cells, dtype=np.int32 if small else np.int64)
        closers[0] = 0
        return closers

    @cached_property
    def _closers(self) -> np.ndarray:
        """Offsets into ``text`` of the header's line end, then of each cell's
        closing separator; set by the first pass when the table was read with
        ``offsets``."""
        closers = self._offset_array()
        for found, at in self._separators():
            closers[1 + found : 1 + found + at.size] = at
        return closers

    def _bounds(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """(start, stop) offsets into ``text`` of the cells of column ``col``."""
        width, closers = len(self.header), self._closers
        end = self.rows * width
        return closers[col : end : width] + 1, closers[col + 1 : end + 1 : width]

    def row_numbers(self, col: int) -> np.ndarray:
        """Mask of the rows whose cell in ``col`` is not the row's own number
        in decimal digits without leading zeros. Rows below 10, 100, ... are
        checked a digit position at a time against the digits of the row
        number."""
        start, stop = self._bounds(col)
        bad = np.empty(self.rows, dtype=bool)
        lo, digits = 0, 1
        while lo < self.rows:
            hi = min(10**digits, self.rows)
            bad[lo:hi] = stop[lo:hi] - start[lo:hi] != digits
            number = np.arange(lo, hi)
            for place in range(digits - 1, -1, -1):
                number, digit = np.divmod(number, 10)
                bad[lo:hi] |= self.text[start[lo:hi] + place] != digit + _ZERO
            lo, digits = hi, digits + 1
        return bad

    def _words(self, col: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Cells of column ``col`` as rows of ``width // 8`` uint64 words that
        hold each cell's first ``width`` bytes, zero after its end, and the
        cells' lengths in bytes."""
        start, stop = self._bounds(col)
        length = stop - start
        words = sliding_window_view(self.text, width)[start].view(np.uint64)
        for k in range(words.shape[1]):
            words[:, k] &= _WORD_MASKS[np.clip(length - 8 * k, 0, 8)]
        return words, length

    def texts(self, col: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cells of column ``col`` grouped by their bytes: (texts, inverse,
        bad). ``texts`` holds each distinct cell as a byte string of dtype
        S<width> (width a multiple of 8), ``texts[inverse]`` gives every row's
        cell, and ``bad`` marks the rows whose cell that string does not hold
        exactly (longer than width, or ending in NUL bytes)."""
        words, length = self._words(col, width)
        first, inverse = _group(*words.T, length)
        texts = words[first].view(f"S{width}").reshape(-1)
        bad = np.char.str_len(texts) != length[first]
        return texts, inverse, bad[inverse]

    def check(self, bad: np.ndarray, columns: list[int], expected: list[str]) -> None:
        """Raise DataError for the first bad cell in row order, or else for the
        first ragged row. ``bad`` has one column per column of the grid; within
        a row the cells are checked in the order of ``columns``, and
        ``expected`` says what each should hold."""
        if bad.any():
            row, j = divmod(int(np.argmax(bad[:, columns])), len(columns))
            col = columns[j]
            raise DataError(
                f"{self.path}: row {row}, column {self.header[col]!r}: "
                f"cell {self._cell_text(row, col)!r} is not {expected[j]}"
            )
        if self.ragged_fields is not None:
            raise DataError(
                f"{self.path}: row {self.rows}: expected {len(self.header)} fields, "
                f"got {self.ragged_fields}"
            )

    def _cell_text(self, row: int, col: int) -> str:
        start, stop = (int(bound[row]) for bound in self._bounds(col))
        if start == stop:
            return ""
        # offset into the file's bytes of each byte of text
        raw = np.frombuffer(self._data, dtype=np.uint8)[self._end : len(self._data) - _TAIL]
        kept = np.flatnonzero(_kept(raw))
        offset = kept[np.flatnonzero(_live(raw[kept]))] + self._end
        return self._data[offset[start] : offset[stop - 1] + 1].decode("utf-8", "replace")


def _parse_floats(strings: np.ndarray) -> np.ndarray:
    """float64 of each byte string, NaN for those that do not parse (found
    by bisection, so each probe is one array cast)."""
    out = np.full(strings.size, np.nan)
    spans = [(0, strings.size)]
    while spans:
        lo, hi = spans.pop()
        try:
            out[lo:hi] = strings[lo:hi].astype(np.float64)
        except ValueError:
            if hi - lo > 1:
                spans += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
    return out


def read_dataset(path, truth_col: str = "y") -> Dataset:
    """Parse a dataset file into int8 votes; the truth column (if present) is
    split out."""
    table = _Table(path)
    header = table.header
    truth_idx = header.index(truth_col) if truth_col in header else None
    lf_idx = [k for k in range(len(header)) if k != truth_idx]
    if not lf_idx:
        raise DataError(f"{path}: no LF columns in header")
    if table.lines == 0:
        raise DataError(f"{path}: no data rows")
    values, bad = table.votes()
    expected = ["one of -1, 0, 1"] * len(lf_idx)
    if truth_idx is None:
        table.check(bad, lf_idx, expected)
        return Dataset(values)
    bad[:, truth_idx] |= values[:, truth_idx] == 0
    table.check(bad, lf_idx + [truth_idx], expected + ["-1 or 1"])
    # The votes must come out contiguous: a whole-array pass over a strided
    # view loops once per row. With the truth column at either end they are
    # a slice, whose copy goes a row at a time; a column gather (which comes
    # out Fortran-ordered) goes a cell at a time, faster for narrow rows only.
    if truth_idx in (0, len(header) - 1) and len(lf_idx) >= _SLICE_COPY_LFS:
        votes = (values[:, 1:] if truth_idx == 0 else values[:, :-1]).copy()
    else:
        votes = values[:, lf_idx]
    return Dataset(votes, values[:, truth_idx].copy())


def write_dataset(path, dataset: Dataset) -> None:
    """Write a dataset in the canonical header layout (lf_0..lf_{m-1}[,y])."""
    header = [f"lf_{j}" for j in range(dataset.m)]
    table = dataset.votes
    if dataset.truth is not None:
        header.append("y")
        table = np.column_stack([table, dataset.truth])
    # Each vote as its sign, digit and separator; the 0 byte of an absent
    # sign is dropped.
    cells = np.empty(table.shape + (3,), dtype=np.uint8)
    cells[:, :, 0] = table < 0
    cells[:, :, 0] *= _MINUS
    cells[:, :, 1] = table != 0
    cells[:, :, 1] += _ZERO
    cells[:, :, 2] = _COMMA
    cells[:, -1, 2] = _NL
    with open(path, "wb") as out:
        out.write(",".join(header).encode() + b"\n")
        out.write(cells.tobytes().translate(None, b"\0"))


def write_predictions(path, predictions: Predictions) -> None:
    """Write one ``index,label,score_pos,abstain_reason`` line per row, the
    score as the repr of its float. Rows repeat whatever their vote patterns
    do, so each distinct (label, score, reason) tail is formatted once,
    scores told apart by their bits (which keeps -0.0 and 0.0 apart), and
    each row adds only its index."""
    n = len(predictions)
    scores = np.asarray(predictions.score_pos, dtype=np.float64)
    labels = np.asarray(predictions.labels)
    reasons = np.asarray(predictions.abstain_reason, dtype=np.str_)
    chars = reasons.dtype.itemsize // 4 + 1 & ~1  # an even count fills whole uint64 words
    reasons = np.ascontiguousarray(reasons, dtype=f"<U{chars}")
    reason_words = reasons.view(np.uint64).reshape(n, chars // 2)
    first, inverse = _group(scores.view(np.uint64), labels, *reason_words.T)
    tails = [
        f",{_LABEL_TEXT[label + 1]},{score!r},{reason}\n".encode()
        for label, score, reason in zip(
            labels[first].tolist(), scores[first].tolist(), reasons[first].tolist()
        )
    ]
    # One row per line: its index right-aligned in the first digits bytes,
    # then its tail; the 0 bytes that pad both are dropped.
    digits = len(str(max(n - 1, 0)))
    tail_width = max(map(len, tails), default=0)
    lines = np.zeros((n, digits + tail_width), dtype=np.uint8)
    number = np.arange(n)
    for power in range(digits):  # the 10**power column, units first
        number, digit = np.divmod(number, 10)
        column = lines[:, digits - 1 - power]
        column[:] = digit + _ZERO
        if power:
            column[: 10**power] = 0  # rows below 10**power have no such digit
    table = b"".join(tail.ljust(tail_width, b"\0") for tail in tails)
    lines[:, digits:] = np.frombuffer(table, dtype=np.uint8).reshape(len(tails), tail_width)[inverse]
    with open(path, "wb") as out:
        out.write(PREDICTIONS_HEADER.encode() + b"\n")
        out.write(lines.tobytes().translate(None, b"\0"))


def read_predictions(path) -> Predictions:
    """Parse a predictions file. Each row must carry its own row number as
    index, a label in {-1, 0, 1}, a score in [0, 1] and a known abstain
    reason. Each distinct score text is cast to float once. One pass over
    the text reads the labels and the offsets of the other cells."""
    table = _Table(path, vote_col=1, offsets=True)
    if ",".join(table.header) != PREDICTIONS_HEADER:
        raise DataError(f"{path}: unexpected predictions header {','.join(table.header)!r}")
    index_bad = table.row_numbers(0)
    labels, label_bad = table.votes()
    score_text, score_of_row, score_bad = table.texts(2, _SCORE_WIDTH)
    scores = _parse_floats(score_text)[score_of_row]
    del score_of_row
    score_bad |= ~((scores >= 0.0) & (scores <= 1.0))
    reason_text, reason_of_row, reason_bad = table.texts(3, _REASON_WIDTH)
    matches = reason_text[:, None] == _REASONS.astype(reason_text.dtype)
    reason_bad |= ~matches.any(axis=1)[reason_of_row]
    table.check(
        np.column_stack([index_bad, label_bad, score_bad, reason_bad]),
        [0, 1, 2, 3],
        ["the row number", "one of -1, 0, 1", "a number in [0, 1]",
         f"one of {', '.join(_REASONS)}"],
    )
    labels = labels.copy()
    del table, label_bad  # the file's bytes, before the reasons' wide strings
    reasons = _REASONS[matches.argmax(axis=1)][reason_of_row]
    return Predictions(labels=labels, score_pos=scores, abstain_reason=reasons)


def write_results_table(path, rows: list[dict]) -> None:
    """Flat results table; undefined values serialize as NA."""
    lines = [RESULTS_HEADER]
    for row in rows:
        value = row["value"]
        text = "NA" if value is None else repr(float(value))
        lines.append(
            f"{row['experiment']},{row['mode']},{row['size']},{row['replicate']},"
            f"{row['metric']},{text}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ModelFile:
    """Serializable snapshot of fitted parameters plus the prior used."""

    m: int
    accuracy: np.ndarray
    coverage: np.ndarray
    prior_source: str
    prior_strength: float | None
    prior_p: float
    prior_force_abstain: bool
    prior_u: np.ndarray | None
    prior_v: np.ndarray | None
    prior_means: np.ndarray | None
    config_digest: str

    def params(self) -> ModelParams:
        return ModelParams(self.accuracy, self.coverage)

    def label_prior(self) -> LabelPrior:
        return LabelPrior(p=self.prior_p, mv_votes=None, force_abstain=self.prior_force_abstain)


def model_file_from_fit(
    params: ModelParams, prior_spec: PriorSpec | None, config_digest: str
) -> ModelFile:
    none = prior_spec is None
    label_prior = LabelPrior() if none else prior_spec.label_prior
    return ModelFile(
        m=params.m,
        accuracy=params.accuracy,
        coverage=params.coverage,
        prior_source="none" if none else prior_spec.source,
        prior_strength=None if none else prior_spec.strength,
        prior_p=label_prior.p,
        prior_force_abstain=label_prior.force_abstain,
        prior_u=None if none else prior_spec.accuracy_prior.u,
        prior_v=None if none else prior_spec.accuracy_prior.v,
        prior_means=None if none else prior_spec.means,
        config_digest=config_digest,
    )


def _vector_text(vec: np.ndarray | None) -> str:
    if vec is None:
        return "none"
    return ",".join(repr(float(x)) for x in vec)


def _vector_parse(text: str) -> np.ndarray | None:
    if text == "none":
        return None
    return np.array([float(x) for x in text.split(",")], dtype=np.float64)


def _optional_float(text: str) -> float | None:
    return None if text == "none" else float(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} < 1")
    return value


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("not true or false")
    return text == "true"


_MODEL_PARSERS = {
    "m": _positive_int,
    "accuracy": _vector_parse,
    "coverage": _vector_parse,
    "prior_strength": _optional_float,
    "prior_p": float,
    "prior_force_abstain": _bool,
    "prior_u": _vector_parse,
    "prior_v": _vector_parse,
    "prior_means": _vector_parse,
}

_MODEL_VECTORS = ("accuracy", "coverage", "prior_u", "prior_v", "prior_means")


def _read_text(path) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def save_model(path, model: ModelFile) -> None:
    strength = "none" if model.prior_strength is None else repr(float(model.prior_strength))
    fields = {
        "format_version": str(MODEL_FORMAT_VERSION),
        "m": str(model.m),
        "accuracy": _vector_text(model.accuracy),
        "coverage": _vector_text(model.coverage),
        "prior_source": model.prior_source,
        "prior_strength": strength,
        "prior_p": repr(float(model.prior_p)),
        "prior_force_abstain": "true" if model.prior_force_abstain else "false",
        "prior_u": _vector_text(model.prior_u),
        "prior_v": _vector_text(model.prior_v),
        "prior_means": _vector_text(model.prior_means),
        "config_digest": model.config_digest,
    }
    lines = [f"{key}: {fields[key]}" for key in _MODEL_KEYS]
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> ModelFile:
    """Parse a model file; any malformed or inconsistent field raises DataError
    naming it."""
    fields: dict[str, str] = {}
    for line in _read_text(path).splitlines():
        if not line.strip():
            continue
        if ": " not in line:
            raise DataError(f"{path}: malformed model line {line!r}")
        key, value = line.split(": ", 1)
        fields[key] = value
    missing = [key for key in _MODEL_KEYS if key not in fields]
    if missing:
        raise DataError(f"{path}: missing model fields {missing}")
    if fields["format_version"] != str(MODEL_FORMAT_VERSION):
        raise DataError(
            f"{path}: unsupported model format version {fields['format_version']!r}"
        )
    parsed: dict[str, object] = {}
    for key, parse in _MODEL_PARSERS.items():
        try:
            parsed[key] = parse(fields[key])
        except ValueError:
            raise DataError(f"{path}: model field {key!r}: cannot parse {fields[key]!r}") from None
    m = parsed["m"]
    for key in _MODEL_VECTORS:
        vec = parsed[key]
        if vec is None and key in ("accuracy", "coverage"):
            raise DataError(f"{path}: model field {key!r} is required")
        if vec is not None and vec.shape[0] != m:
            raise DataError(f"{path}: model field {key!r} has {vec.shape[0]} entries, m={m}")
    return ModelFile(
        prior_source=fields["prior_source"], config_digest=fields["config_digest"], **parsed
    )


_GRID_KEYS = ("strengths", "learning_rates", "alpha_inits", "ps", "force_abstain")


def _grid_value_ok(key: str, value) -> bool:
    if key == "force_abstain":
        return isinstance(value, bool)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def read_grid(path) -> GridSpec:
    """Parse a grid-search file: a JSON object mapping any of the GridSpec
    fields to a nonempty list of values (finite numbers; booleans for
    ``force_abstain``). Anything else raises DataError naming the key."""
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: grid must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(_GRID_KEYS)
    if unknown:
        raise DataError(f"{path}: unknown grid keys {sorted(unknown)}")
    for key, values in raw.items():
        if not isinstance(values, list) or not values or not all(
            _grid_value_ok(key, value) for value in values
        ):
            kind = "booleans" if key == "force_abstain" else "finite numbers"
            raise DataError(
                f"{path}: grid key {key!r} must be a nonempty list of {kind}, got {values!r}"
            )
    return GridSpec(**{key: tuple(values) for key, values in raw.items()})
