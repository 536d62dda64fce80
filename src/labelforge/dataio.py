"""File formats: LF-matrix CSV datasets, prediction tables, results tables,
grid-search JSON files and the versioned plain-text model file.

The dataset format is a comma-separated header naming the LF columns plus
an optional ground-truth column (named "y" unless overridden), with every
body cell one of -1, 0, 1 (truth restricted to -1/1). Votes are read into
int8 arrays. The CSV readers split a file with whole-array numpy operations
and never make a Python object per cell; a malformed file raises DataError
naming the first bad row (and column). The model file is a human-diffable
key-value record whose floats are written with repr, so a
write -> read -> write round trip is byte-identical.
"""

from __future__ import annotations

import json
import math
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

# Text of the votes -1, 0, 1 (row v + 1); a 0 byte is padding, dropped on write.
_VOTE_BYTES = np.array([[_MINUS, _ONE], [0, _ZERO], [0, _ONE]], dtype=np.uint8)
_LABEL_TEXT = np.array(["-1", "0", "1"])

_REASON_WIDTH = 10  # Predictions.abstain_reason has dtype <U10
_REASONS = np.array(
    [REASON_NONE, REASON_TIE, REASON_FORCED, REASON_DEGENERATE], dtype=f"<U{_REASON_WIDTH}"
)
# Longest score cell read; repr of a float64 is at most 24 characters.
_SCORE_WIDTH = 32


def _separator(byte: np.ndarray) -> np.ndarray:
    return (byte == _COMMA) | (byte == _NL)


class _Table:
    """A CSV file as a header plus a grid of body cells, split without making
    a Python object per cell.

    The body is one byte array, ``text``, with blank lines dropped and the
    spaces and tabs around cells removed (one after a sign is kept, so "- 1"
    stays a bad cell). Line ends may be LF, CRLF or CR. ``text`` starts with
    three line ends: two added so that every cell can look three bytes back,
    then the header's own. Each cell is closed by the comma or line end after
    it. Rows count the non-blank lines after the header. The grid holds the
    rows before the first one whose field count differs from the header's;
    ``ragged_fields`` is that row's count (None if every row matches).
    """

    def __init__(self, path):
        self.path = path
        data = Path(path).read_bytes()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.endswith(b"\n"):
            data += b"\n"
        begin = _LEADING_BLANK_LINES.match(data).end()
        if begin == len(data):
            raise DataError(f"{path}: empty file")
        end = data.index(b"\n", begin)
        try:
            header = data[begin:end].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: header is not UTF-8 text") from None
        self.header = [name.strip() for name in header.split(",")]

        self._data, self._end = data, end
        raw = np.frombuffer(data, dtype=np.uint8)[end:]
        self._kept = (raw != _SPACE) & (raw != _TAB)
        self._kept[1:] |= (raw[:-1] == _PLUS) | (raw[:-1] == _MINUS)
        text = raw[self._kept]
        newline = text == _NL
        self._live = np.ones(text.size, dtype=bool)
        self._live[1:] = ~(newline[1:] & newline[:-1])
        del newline
        self.text = np.concatenate([np.full(2, _NL, dtype=np.uint8), text[self._live]])
        del text

        # offset in text[3:] of each cell's closing separator
        self._closers = np.flatnonzero(_separator(self.text[3:]))
        line_ends = np.flatnonzero(self.text[3:][self._closers] == _NL)
        fields = np.diff(line_ends, prepend=-1)
        self.lines = fields.size
        ragged = np.flatnonzero(fields != len(self.header))
        self.rows = int(ragged[0]) if ragged.size else self.lines
        self.ragged_fields = int(fields[self.rows]) if ragged.size else None

    def _grid(self, flat: np.ndarray) -> np.ndarray:
        """Per-cell values in file order, cut to the grid's rows."""
        width = len(self.header)
        return flat[: self.rows * width].reshape(self.rows, width)

    def _back(self, k: int) -> np.ndarray:
        """The byte ``k`` places before each cell's closing separator."""
        return self._grid(self.text[3 - k :][self._closers])

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, stop) offsets of every cell into ``text``."""
        stop = self._closers[: self.rows * len(self.header)] + 3
        start = np.concatenate(([3], stop + 1))[:-1]
        return self._grid(start), self._grid(stop)

    def votes(self, col=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Cells of ``col`` as int8 votes, and the mask of cells that are not
        a vote: an optional sign followed by the digit 0 or 1."""
        last, before, two_before = (self._back(k)[:, col] for k in (1, 2, 3))
        signed = (before == _PLUS) | (before == _MINUS)
        digit = (last == _ZERO) | (last == _ONE)
        bad = ~(digit & (_separator(before) | (signed & _separator(two_before))))
        values = (last == _ONE).view(np.int8)
        return np.where(before == _MINUS, -values, values), bad

    def strings(self, col: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Cells of column ``col`` as byte strings of dtype S<width>, and the
        mask of cells those strings do not hold exactly (too long, or ending
        in NUL bytes)."""
        start, stop = (bound[:, col] for bound in self._bounds)
        length = stop - start
        windows = sliding_window_view(np.append(self.text, np.zeros(width, np.uint8)), width)
        chars = windows[start]
        chars[np.arange(width) >= length[:, None]] = 0
        strings = chars.view(f"S{width}").reshape(-1)
        return strings, np.char.str_len(strings) != length

    def check(self, bad: np.ndarray, columns: list[int], expected: list[str]) -> None:
        """Raise DataError for the first bad cell in row order, or else for the
        first ragged row. ``bad`` has one column per entry of ``columns``, in
        the order the cells of a row are checked; ``expected`` says what each
        should hold."""
        if bad.any():
            row, j = divmod(int(np.argmax(bad)), bad.shape[1])
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
        start, stop = (int(bound[row, col]) for bound in self._bounds)
        if start == stop:
            return ""
        # file offset of each byte of text after the two added line ends
        offset = np.flatnonzero(self._kept)[np.flatnonzero(self._live)] + self._end
        return self._data[offset[start - 2] : offset[stop - 3] + 1].decode("utf-8", "replace")


def _parse_floats(strings: np.ndarray) -> np.ndarray:
    """float64 of each byte string; NaN from the first one that does not
    parse onwards (found by bisection, so each probe is one array cast)."""
    try:
        return strings.astype(np.float64)
    except ValueError:
        pass
    good, bad = 0, strings.size  # strings[:good] parse; the first failure is in [good, bad)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            strings[good:mid].astype(np.float64)
            good = mid
        except ValueError:
            bad = mid
    out = np.full(strings.size, np.nan)
    out[:good] = strings[:good].astype(np.float64)
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
    order = lf_idx
    expected = ["one of -1, 0, 1"] * len(lf_idx)
    if truth_idx is not None:
        bad[:, truth_idx] |= values[:, truth_idx] == 0
        order = lf_idx + [truth_idx]
        expected.append("-1 or 1")
    table.check(bad[:, order], order, expected)
    truth = None if truth_idx is None else values[:, truth_idx]
    return Dataset(values[:, lf_idx], truth)


def write_dataset(path, dataset: Dataset) -> None:
    """Write a dataset in the canonical header layout (lf_0..lf_{m-1}[,y])."""
    header = [f"lf_{j}" for j in range(dataset.m)]
    table = dataset.votes
    if dataset.truth is not None:
        header.append("y")
        table = np.column_stack([table, dataset.truth])
    cells = np.empty(table.shape + (3,), dtype=np.uint8)
    cells[:, :, :2] = _VOTE_BYTES[table + 1]
    cells[:, :, 2] = _COMMA
    cells[:, -1, 2] = _NL
    body = cells.reshape(-1)
    Path(path).write_bytes(",".join(header).encode() + b"\n" + body[body != 0].tobytes())


def write_predictions(path, predictions: Predictions) -> None:
    # Scores repeat wherever vote patterns do, so each distinct value is
    # formatted with repr once; values are told apart by their bits, which
    # keeps -0.0 and 0.0 apart.
    scores = np.asarray(predictions.score_pos, dtype=np.float64)
    bits, where = np.unique(scores.view(np.int64), return_inverse=True)
    score_text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    rows = zip(
        map(str, range(len(predictions))),
        _LABEL_TEXT[predictions.labels + 1].tolist(),
        score_text[where].tolist(),
        predictions.abstain_reason.tolist(),
    )
    Path(path).write_text("\n".join([PREDICTIONS_HEADER, *map(",".join, rows)]) + "\n")


def read_predictions(path) -> Predictions:
    """Parse a predictions file. Each row must carry its own row number as
    index, a label in {-1, 0, 1}, a score in [0, 1] and a known abstain
    reason."""
    table = _Table(path)
    if ",".join(table.header) != PREDICTIONS_HEADER:
        raise DataError(f"{path}: unexpected predictions header {','.join(table.header)!r}")
    index, index_bad = table.strings(0, len(str(max(table.rows - 1, 0))))
    index_bad |= index != np.arange(table.rows).astype(index.dtype)
    labels, label_bad = table.votes(1)
    score_text, score_bad = table.strings(2, _SCORE_WIDTH)
    scores = _parse_floats(score_text)
    score_bad |= ~((scores >= 0.0) & (scores <= 1.0))
    reason_text, reason_bad = table.strings(3, _REASON_WIDTH)
    matches = reason_text[:, None] == _REASONS.astype(reason_text.dtype)
    reason_bad |= ~matches.any(axis=1)
    table.check(
        np.column_stack([index_bad, label_bad, score_bad, reason_bad]),
        [0, 1, 2, 3],
        ["the row number", "one of -1, 0, 1", "a number in [0, 1]",
         f"one of {', '.join(_REASONS)}"],
    )
    return Predictions(
        labels=labels, score_pos=scores, abstain_reason=_REASONS[matches.argmax(axis=1)]
    )


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
    if prior_spec is None:
        return ModelFile(
            m=params.m,
            accuracy=params.accuracy,
            coverage=params.coverage,
            prior_source="none",
            prior_strength=None,
            prior_p=0.5,
            prior_force_abstain=False,
            prior_u=None,
            prior_v=None,
            prior_means=None,
            config_digest=config_digest,
        )
    return ModelFile(
        m=params.m,
        accuracy=params.accuracy,
        coverage=params.coverage,
        prior_source=prior_spec.source,
        prior_strength=prior_spec.strength,
        prior_p=prior_spec.label_prior.p,
        prior_force_abstain=prior_spec.label_prior.force_abstain,
        prior_u=prior_spec.accuracy_prior.u,
        prior_v=prior_spec.accuracy_prior.v,
        prior_means=prior_spec.means,
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
