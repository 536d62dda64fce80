"""File round trips and parse diagnostics."""

import re
import tracemalloc

import numpy as np
import pytest

from labelforge import (
    DataError,
    Dataset,
    LabelPrior,
    ModelFile,
    ModelParams,
    build_empirical_priors,
    build_mv_priors,
    build_random_priors,
    build_user_priors,
    generate_synthetic,
    load_model,
    predict,
    read_dataset,
    read_predictions,
    save_model,
    write_dataset,
    write_predictions,
    write_results_table,
    SyntheticSpec,
)
from labelforge.dataio import read_grid
from labelforge.priors import build_mle_priors, build_uniform_priors

SAMPLE = """lf_0,lf_1,lf_2,lf_3,lf_4,lf_5,lf_6,lf_7,lf_8,lf_9,y
0,0,0,0,0,1,0,0,0,0,1
0,0,0,0,0,0,-1,0,0,-1,-1
1,1,0,0,0,0,0,0,0,0,1
"""


class TestReadDataset:
    def test_sample_rows(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text(SAMPLE)
        ds = read_dataset(path)
        assert ds.votes.shape == (3, 10)
        np.testing.assert_array_equal(ds.votes[0], [0, 0, 0, 0, 0, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(ds.votes[1], [0, 0, 0, 0, 0, 0, -1, 0, 0, -1])
        np.testing.assert_array_equal(ds.votes[2], [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(ds.truth, [1, -1, 1])

    def test_no_truth_column(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("lf_0,lf_1\n1,0\n-1,1\n")
        ds = read_dataset(path)
        assert ds.truth is None
        assert ds.votes.shape == (2, 2)

    def test_bad_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lf_0,lf_1\n1,2\n")
        with pytest.raises(DataError, match=r"row 0, column 'lf_1'"):
            read_dataset(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("lf_0,lf_1\n1,0\n1\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            read_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("lf_0,lf_1\n")
        with pytest.raises(DataError, match="no data rows"):
            read_dataset(path)

    def test_truth_restricted_to_hard_labels(self, tmp_path):
        path = tmp_path / "zero_truth.csv"
        path.write_text("lf_0,y\n1,0\n")
        with pytest.raises(DataError, match=r"column 'y'"):
            read_dataset(path)

    def test_custom_truth_column(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("lf_0,gold\n1,-1\n")
        ds = read_dataset(path, truth_col="gold")
        np.testing.assert_array_equal(ds.truth, [-1])

    def test_duplicate_truth_column(self, tmp_path):
        # the second y must not be read as an LF
        path = tmp_path / "two_y.csv"
        path.write_text("lf_0,y,y\n1,1,-1\n")
        with pytest.raises(DataError, match=r"two_y\.csv: truth column 'y' appears 2 times"):
            read_dataset(path)
        path.write_text("gold,lf_0,gold\n1,1,-1\n")
        with pytest.raises(DataError, match="truth column 'gold'"):
            read_dataset(path, truth_col="gold")

    def test_roundtrip_identity(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(m=4, n=40, accuracy=0.8, coverage=0.5, seed=3))
        path = tmp_path / "roundtrip.csv"
        write_dataset(path, ds)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.votes, ds.votes)
        np.testing.assert_array_equal(back.truth, ds.truth)

    def test_roundtrip_without_truth(self, tmp_path):
        ds = Dataset([[1, 0], [0, -1]])
        path = tmp_path / "nt.csv"
        write_dataset(path, ds)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.votes, ds.votes)
        assert back.truth is None

    def test_reads_padded_crlf_rows_and_blank_lines(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_bytes(b"lf_0,lf_1,y\r\n\r\n +1 ,\t0,-1\r\n  \r\n-1,+0 , 1")
        ds = read_dataset(path)
        assert ds.votes.dtype == np.int8 and ds.truth.dtype == np.int8
        np.testing.assert_array_equal(ds.votes, [[1, 0], [-1, 0]])
        np.testing.assert_array_equal(ds.truth, [-1, 1])

    @pytest.mark.parametrize("cell", ["- 1", "01", "1.0", "x", "", "+", "2"])
    def test_rejects_cell_spelling(self, tmp_path, cell):
        path = tmp_path / "spelling.csv"
        path.write_text(f"lf_0,lf_1\n1,0\n0,{cell}\n")
        with pytest.raises(DataError, match=re.escape(f"row 1, column 'lf_1': cell {cell!r}")):
            read_dataset(path)

    def test_first_error_in_row_order(self, tmp_path):
        path = tmp_path / "errors.csv"
        path.write_text("y,lf_0,lf_1\n1,0,0\n0,1,7\n1\n")
        # within a row the LF columns are checked before the truth column
        with pytest.raises(DataError, match=r"row 1, column 'lf_1'"):
            read_dataset(path)
        path.write_text("lf_0,lf_1\n1,0\n1\n1,7\n")
        with pytest.raises(DataError, match="row 1: expected 2 fields, got 1"):
            read_dataset(path)

    @pytest.mark.parametrize("m", [3, 20])
    @pytest.mark.parametrize("truth_at", [0, 1, -1])
    def test_votes_come_out_contiguous(self, tmp_path, m, truth_at):
        # whole-array passes over a strided view loop once per row, and the
        # vote-pattern key reads each row's bytes, so the votes come out
        # C-ordered wherever the truth column is (first, between LFs, last)
        rng = np.random.default_rng(m)
        votes = rng.integers(-1, 2, size=(30, m)).astype(np.int8)
        truth = rng.choice(np.array([-1, 1], dtype=np.int8), 30)
        at = truth_at % (m + 1)
        grid = np.insert(votes, at, truth, axis=1)
        header = [f"lf_{j}" for j in range(m)]
        header.insert(at, "y")
        path = tmp_path / "truth_placed.csv"
        path.write_text(
            ",".join(header) + "\n" + "".join(",".join(map(str, row)) + "\n" for row in grid)
        )
        ds = read_dataset(path)
        np.testing.assert_array_equal(ds.votes, grid[:, [k for k in range(m + 1) if k != at]])
        np.testing.assert_array_equal(ds.votes, votes)
        np.testing.assert_array_equal(ds.truth, truth)
        assert ds.votes.flags.c_contiguous

    def test_non_utf8_header(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"lf_\xe9\n1\n")
        with pytest.raises(DataError, match="UTF-8"):
            read_dataset(path)


class TestPredictionsIO:
    HEADER = "index,label,score_pos,abstain_reason\n"

    @pytest.mark.parametrize(
        "row, column",
        [
            ("2,0,0.5,tie", "index"),
            ("x,0,0.5,tie", "index"),
            ("01,0,0.5,tie", "index"),
            ("1,2,0.5,tie", "label"),
            ("1,0,nan,tie", "score_pos"),
            ("1,0,1.5,tie", "score_pos"),
            ("1,0,-0.1,tie", "score_pos"),
            ("1,0,abc,tie", "score_pos"),
            ("1,0,0.5,maybe", "abstain_reason"),
            ("1,0,0.5,", "abstain_reason"),
            ("1,0,0.5\x00,tie", "score_pos"),
            ("1,0,0.75\x00,tie", "score_pos"),
            ("1,0,0.5,tie\x00", "abstain_reason"),
            ("1,0,0.5,nonenone", "abstain_reason"),
        ],
    )
    def test_rejects_bad_row(self, tmp_path, row, column):
        path = tmp_path / "bad_preds.csv"
        path.write_text(self.HEADER + "0,1,0.75,none\n" + row + "\n2,1,0.5,none\n")
        with pytest.raises(DataError, match=rf"row 1, column '{column}'"):
            read_predictions(path)

    @pytest.mark.parametrize("cell, row", [("0100", 100), ("1O0", 100), ("99", 100),
                                           ("1000", 100), ("10O", 100), ("1010", 101)])
    def test_rejects_multi_digit_index(self, tmp_path, cell, row):
        lines = [f"{i},1,0.5,none" for i in range(102)]
        lines[row] = f"{cell},1,0.5,none"
        path = tmp_path / "long_preds.csv"
        path.write_text(self.HEADER + "\n".join(lines) + "\n")
        with pytest.raises(
            DataError, match=re.escape(f"row {row}, column 'index': cell {cell!r} is not the row")
        ):
            read_predictions(path)

    def test_score_cell_width(self, tmp_path):
        path = tmp_path / "wide_score.csv"
        score = "0." + "5" * 30  # 32 characters, the widest score cell read
        path.write_text(self.HEADER + f"0,1,{score},none\n")
        assert read_predictions(path).score_pos.tolist() == [float(score)]
        path.write_text(self.HEADER + f"0,1,{score}5,none\n")
        with pytest.raises(DataError, match=re.escape(f"row 0, column 'score_pos': cell '{score}5'")):
            read_predictions(path)

    @pytest.mark.parametrize("header", ["index", "index,label", "label,index,score_pos"])
    def test_rejects_other_header(self, tmp_path, header):
        # fewer columns than the label column's position must not trip the reader
        path = tmp_path / "other_header.csv"
        path.write_text(header + "\n" + "\n".join(["0,1,0.5", "1", "1,0"]) + "\n")
        with pytest.raises(DataError, match="unexpected predictions header"):
            read_predictions(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged_preds.csv"
        path.write_text(self.HEADER + "0,1,0.75,none\n1,0,0.5\n")
        with pytest.raises(DataError, match="row 1: expected 4 fields, got 3"):
            read_predictions(path)

    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(m=3, n=25, accuracy=0.8, coverage=0.5, seed=4))
        params = ModelParams([0.8, 0.7, 0.6], [0.5, 0.5, 0.5])
        preds = predict(ds.votes, params, LabelPrior(force_abstain=True))
        path = tmp_path / "preds.csv"
        write_predictions(path, preds)
        back = read_predictions(path)
        np.testing.assert_array_equal(back.labels, preds.labels)
        np.testing.assert_array_equal(back.score_pos, preds.score_pos)
        np.testing.assert_array_equal(back.abstain_reason, preds.abstain_reason)

    def test_abstained_row_serializes_reason(self, tmp_path):
        params = ModelParams([0.8], [0.5])
        preds = predict([[0]], params, None)
        path = tmp_path / "abstain.csv"
        write_predictions(path, preds)
        assert "0,0,0.5,tie" in path.read_text().splitlines()[1]

    def test_empty_predictions(self, tmp_path):
        from labelforge.infer import Predictions

        empty = Predictions(
            labels=np.zeros(0, dtype=np.int64),
            score_pos=np.zeros(0),
            abstain_reason=np.zeros(0, dtype="<U10"),
        )
        path = tmp_path / "none.csv"
        write_predictions(path, empty)
        assert path.read_text() == "index,label,score_pos,abstain_reason\n"
        assert len(read_predictions(path)) == 0


class TestReaderMemory:
    """The readers' peak traced memory, as a multiple of the file's size, on
    a 100k x 10 dataset and its predictions. The readers that split a file
    into per-cell int64 offsets and full-grid gathers peaked at 12.2x
    (read_dataset) and 10.6x (read_predictions) on these files; the bounds
    are half of that."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("memory")
        ds = generate_synthetic(SyntheticSpec(m=10, n=100_000, accuracy=0.7, coverage=0.3, seed=1))
        data, preds = root / "data.csv", root / "preds.csv"
        write_dataset(data, ds)
        params = ModelParams(np.linspace(0.55, 0.9, 10), np.full(10, 0.3))
        write_predictions(preds, predict(ds.votes, params, LabelPrior(p=0.7)))
        return data, preds

    @staticmethod
    def peak_ratio(reader, path):
        tracemalloc.start()
        try:
            reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / path.stat().st_size

    def test_read_dataset(self, files):
        assert self.peak_ratio(read_dataset, files[0]) <= 12.2 / 2

    def test_read_predictions(self, files):
        assert self.peak_ratio(read_predictions, files[1]) <= 10.6 / 2


def write_model_with(path, **fields):
    """Write a two-LF map-mv model file to ``path`` with each field named in
    ``fields`` set to its text, and return the path."""
    params = ModelParams([0.8, 0.7], [0.4, 0.5])
    prior = build_mv_priors([[1, 0], [1, -1], [-1, -1]], 10.0)
    save_model(path, ModelFile(params, prior, "d4"))
    lines = []
    for line in path.read_text().splitlines():
        key = line.split(": ")[0]
        lines.append(f"{key}: {fields[key]}" if key in fields else line)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestModelFile:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(m=3, n=60, accuracy=0.8, coverage=0.5, seed=5))
        prior = build_mv_priors(ds.votes, 10.0, p=0.7, force_abstain=True)
        params = ModelParams([0.812345678901234, 0.7, 0.65], [0.5, 0.45, 0.6])
        model = ModelFile(params, prior, "abc123")
        first = tmp_path / "model1.txt"
        second = tmp_path / "model2.txt"
        save_model(first, model)
        save_model(second, load_model(first))
        assert first.read_bytes() == second.read_bytes()

    def test_reloaded_model_predicts_identically(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(m=3, n=60, accuracy=0.8, coverage=0.5, seed=6))
        prior = build_mv_priors(ds.votes, 10.0, p=0.8)
        params = ModelParams([0.91, 0.73, 0.58], [0.5, 0.4, 0.7])
        path = tmp_path / "model.txt"
        save_model(path, ModelFile(params, prior, "d1"))
        loaded = load_model(path)
        a = predict(ds.votes, params, prior.label_prior)
        b = predict(ds.votes, loaded.params, loaded.prior.label_prior)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.score_pos, b.score_pos)

    def test_mle_model_file(self, tmp_path):
        params = ModelParams([0.8], [0.4])
        path = tmp_path / "mle.txt"
        save_model(path, ModelFile(params, build_mle_priors(), "d2"))
        assert "prior_source: none\nprior_strength: none\n" in path.read_text()
        loaded = load_model(path)
        assert loaded.prior == build_mle_priors()
        assert loaded.prior.label_prior == LabelPrior()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("m", "abc", "'m'"),
            ("m", "0", "'m'"),
            ("prior_p", "abc", "'prior_p'"),
            ("prior_strength", "strong", "'prior_strength'"),
            ("prior_force_abstain", "yes", "'prior_force_abstain'"),
            ("accuracy", "0.8,x", "'accuracy'"),
            ("accuracy", "none", "'accuracy'"),
            ("coverage", "0.5", "'coverage' has 1 entries"),
            ("prior_u", "1.0", "'prior_u' has 1 entries"),
            ("prior_v", "1.0,2.0,3.0", "'prior_v' has 3 entries"),
            ("prior_means", "0.5", "'prior_means' has 1 entries"),
        ],
    )
    def test_bad_field_names_it(self, tmp_path, field, value, message):
        path = write_model_with(tmp_path / "bad_model.txt", **{field: value})
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("accuracy", "1.5,0.7", "'accuracy', 'coverage': accuracy entries"),
            ("coverage", "0.4,-0.5", "'accuracy', 'coverage': coverage entries"),
            ("accuracy", "nan,0.7", "'accuracy', 'coverage': accuracy entries"),
            ("prior_p", "0.3", "'prior_p': label prior p"),
            ("prior_p", "1.5", "'prior_p': label prior p"),
            ("prior_u", "-1.0,2.0", "'prior_u', 'prior_v': beta prior"),
            ("prior_v", "3.0,0.0", "'prior_u', 'prior_v': beta prior"),
            ("prior_u", "inf,2.0", "'prior_u', 'prior_v': beta prior"),
            ("prior_u", "none", "'prior_u' and 'prior_v' must be both none or both set"),
            ("prior_v", "none", "'prior_u' and 'prior_v' must be both none or both set"),
        ],
    )
    def test_out_of_range_field_names_file_and_field(self, tmp_path, field, value, message):
        path = write_model_with(tmp_path / "range_model.txt", **{field: value})
        with pytest.raises(DataError, match=re.escape(f"{path}: model field") + ".*"
                           + re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"prior_strength": "-5.0"}, "'prior_strength', 'prior_means': prior strength must be"),
            ({"prior_strength": "nan"}, "'prior_strength', 'prior_means': prior strength must be"),
            ({"prior_strength": "inf"}, "'prior_strength', 'prior_means': prior strength must be"),
            ({"prior_source": "bogus"}, "'prior_source', 'prior_strength', 'prior_means': unknown"),
            ({"prior_means": "7.0,0.5"}, "'prior_means': prior means must be finite and lie in"),
            ({"prior_means": "nan,0.5"}, "'prior_means': prior means must be finite and lie in"),
            ({"prior_source": "none", "prior_strength": "none", "prior_means": "none"},
             "['prior_u', 'prior_v'] must be none when prior_source is none"),
            ({"prior_source": "none"}, "['prior_strength', 'prior_u', 'prior_v', 'prior_means']"
             " must be none when prior_source is none"),
            ({"prior_u": "none", "prior_v": "none"},
             "'prior_u' and 'prior_v' must be set when prior_source is 'mv'"),
            ({"prior_strength": "3.0"}, "'prior_strength', 'prior_means': prior strength 3.0 "
             "contradicts u + v = 10"),
        ],
    )
    def test_bad_prior_names_file_and_field(self, tmp_path, edits, message):
        # each of these loaded, and predict labelled rows with it
        path = write_model_with(tmp_path / "prior_model.txt", **edits)
        with pytest.raises(DataError, match=re.escape(f"{path}: model field") + ".*"
                           + re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize(
        "source", ["mle", "mv", "empirical", "random", "user", "user-uneven", "uniform"]
    )
    def test_every_prior_source_round_trips(self, tmp_path, source):
        ds = generate_synthetic(SyntheticSpec(m=3, n=60, accuracy=0.8, coverage=0.5, seed=7))
        if source == "mle":
            prior = build_mle_priors(p=0.8, force_abstain=True)
        elif source == "mv":
            prior = build_mv_priors(ds.votes, 10.0, p=0.7, force_abstain=True)
        elif source == "empirical":
            prior = build_empirical_priors(ds.votes, ds.truth, 20.0, p=0.9)
        elif source == "random":
            prior = build_random_priors(3, 5.0, seed=3, p=0.6)
        elif source == "user":
            prior = build_user_priors([8.0, 7.0, 6.0], [2.0, 3.0, 4.0], p=1.0)
        elif source == "user-uneven":
            prior = build_user_priors([8.0, 2.0, 6.5], [2.0, 3.0, 9.25])
        else:
            prior = build_uniform_priors(3, force_abstain=True)
        params = ModelParams([0.812345678901234, 0.7, 1e-06], [0.5, 0.45, 1.0 - 1e-06])
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_model(first, ModelFile(params, prior, "abc123"))
        loaded = load_model(first)
        save_model(second, loaded)
        assert second.read_bytes() == first.read_bytes()
        np.testing.assert_array_equal(loaded.params.accuracy, params.accuracy)
        np.testing.assert_array_equal(loaded.params.coverage, params.coverage)
        assert loaded.config_digest == "abc123"
        assert (loaded.prior.source, loaded.prior.strength) == (prior.source, prior.strength)
        assert loaded.prior.label_prior == prior.label_prior
        if source == "mle":
            assert loaded.prior == prior
            return
        np.testing.assert_array_equal(loaded.prior.accuracy_prior.u, prior.accuracy_prior.u)
        np.testing.assert_array_equal(loaded.prior.accuracy_prior.v, prior.accuracy_prior.v)
        np.testing.assert_array_equal(loaded.prior.means, prior.means)

    def test_unsupported_version(self, tmp_path):
        params = ModelParams([0.8], [0.4])
        path = tmp_path / "v.txt"
        save_model(path, ModelFile(params, config_digest="d3"))
        text = path.read_text().replace("format_version: 1", "format_version: 99")
        path.write_text(text)
        with pytest.raises(DataError, match="version"):
            load_model(path)


class TestResultsTable:
    def test_header_and_na(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_results_table(
            path,
            [
                {"experiment": "lowdata", "mode": "mle", "size": 10, "replicate": "0",
                 "metric": "f1", "value": 0.5},
                {"experiment": "lowdata", "mode": "mle", "size": 10, "replicate": "1",
                 "metric": "f1", "value": None},
            ],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,mode,size,replicate,metric,value"
        assert lines[1] == "lowdata,mle,10,0,f1,0.5"
        assert lines[2] == "lowdata,mle,10,1,f1,NA"


class TestGridFile:
    def test_reads_lists(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"strengths": [10, 100.0], "force_abstain": [true]}')
        grid = read_grid(path)
        assert grid.strengths == (10, 100.0)
        assert grid.force_abstain == (True,)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"strengths": 5}', "'strengths'"),
            ('{"strengths": []}', "'strengths'"),
            ('{"ps": ["0.5"]}', "'ps'"),
            ('{"ps": [true]}', "'ps'"),
            ('{"learning_rates": [1e999]}', "'learning_rates'"),
            ('{"alpha_inits": [' + "9" * 400 + "]}", "'alpha_inits'"),
            ('{"force_abstain": [1]}', "'force_abstain'"),
            ('{"depth": [1]}', "unknown grid keys"),
            ("[1, 2]", "JSON object"),
            ("5", "JSON object"),
            ('{"ps": [0.5]', "invalid JSON"),
        ],
    )
    def test_malformed_grid(self, tmp_path, text, message):
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_grid(path)
