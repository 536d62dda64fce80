"""End-to-end CLI workflows, exit codes, and run-to-run determinism."""

import json
import warnings

import numpy as np
import pytest

from labelforge import load_model, majority_vote, read_dataset, read_predictions
from labelforge.cli import cli_main
from labelforge.model import VoteRows


def run(*argv):
    return cli_main([str(a) for a in argv])


def make_synth(tmp_path, name="data.csv", m=4, n=600, alpha="0.9,0.85,0.6,0.35",
               beta="0.7,0.6,0.8,0.7", seed=15):
    path = tmp_path / name
    assert run("synth", "--m", m, "--n", n, "--alpha", alpha, "--beta", beta,
               "--seed", seed, "--out", path) == 0
    return path


class TestWorkflows:
    def test_synth_train_evaluate_beats_mv(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=4000)
        model = tmp_path / "model.txt"
        assert run("train", "--data", data, "--mode", "mle", "--lr", "0.05",
                   "--epochs", "150", "--alpha-init", "0.9", "--val-frac", "0",
                   "--seed", "1", "--out", model) == 0
        capsys.readouterr()

        assert run("evaluate", "--model", model, "--data", data) == 0
        model_out = capsys.readouterr().out
        assert run("evaluate", "--mode", "mv", "--data", data) == 0
        mv_out = capsys.readouterr().out

        def f1_of(text):
            line = next(l for l in text.splitlines() if l.startswith("f1:"))
            return float(line.split()[1])

        assert f1_of(model_out) > f1_of(mv_out)

    def test_strong_p_predictions_match_mv(self, tmp_path):
        data = make_synth(tmp_path, n=300)
        model = tmp_path / "model.txt"
        preds_path = tmp_path / "preds.csv"
        assert run("train", "--data", data, "--mode", "map-mv", "--p", "0.999999999",
                   "--force-abstain", "--epochs", "3", "--seed", "2", "--out", model) == 0
        assert run("predict", "--model", model, "--data", data, "--out", preds_path) == 0
        preds = read_predictions(preds_path)
        votes = read_dataset(data).votes
        np.testing.assert_array_equal(preds.labels, majority_vote(votes))

    def test_mle_labels_under_the_runs_label_prior(self, tmp_path):
        # mle has no accuracy prior, but --p and --force-abstain set its
        # label prior, which the model file keeps and predict applies
        data = make_synth(tmp_path, n=300)
        model = tmp_path / "mle.txt"
        preds_path = tmp_path / "preds.csv"
        assert run("train", "--data", data, "--mode", "mle", "--p", "0.9", "--force-abstain",
                   "--epochs", "3", "--seed", "2", "--out", model) == 0
        lines = model.read_text().splitlines()
        for line in ("prior_source: none", "prior_p: 0.9", "prior_force_abstain: true"):
            assert line in lines
        assert run("predict", "--model", model, "--data", data, "--out", preds_path) == 0
        preds = read_predictions(preds_path)
        mv_abstains = majority_vote(read_dataset(data).votes) == 0
        assert mv_abstains.any()
        np.testing.assert_array_equal(preds.abstain_reason == "forced", mv_abstains)
        np.testing.assert_array_equal(preds.labels[mv_abstains], 0)

    def test_evaluate_from_prediction_file(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=200)
        model = tmp_path / "model.txt"
        preds_path = tmp_path / "preds.csv"
        report_path = tmp_path / "report.csv"
        run("train", "--data", data, "--mode", "map-mv", "--epochs", "5", "--seed", "3",
            "--out", model)
        run("predict", "--model", model, "--data", data, "--out", preds_path)
        assert run("evaluate", "--pred", preds_path, "--truth", data,
                   "--out", report_path) == 0
        out = capsys.readouterr().out
        assert "f1:" in out and "coverage:" in out
        assert report_path.read_text().startswith("experiment,mode,size,replicate,metric,value")

    def test_gridsearch(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=300)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "strengths": [10.0],
            "learning_rates": [0.05],
            "alpha_inits": [0.9, 0.8],
            "ps": [0.5],
            "force_abstain": [False],
        }))
        out_path = tmp_path / "cells.csv"
        assert run("gridsearch", "--data", data, "--grid", grid_path, "--mode", "map-mv",
                   "--epochs", "4", "--seed", "4", "--out", out_path) == 0
        assert "best cell" in capsys.readouterr().out
        assert out_path.exists()

    def test_lowdata_and_stability_and_study(self, tmp_path):
        data = make_synth(tmp_path, n=260)
        low_path = tmp_path / "low.csv"
        assert run("lowdata", "--data", data, "--sizes", "15,40", "--replicates", "2",
                   "--modes", "map-mv,mle", "--epochs", "4", "--seed", "5",
                   "--out", low_path) == 0
        lines = low_path.read_text().splitlines()
        assert lines[0] == "experiment,mode,size,replicate,metric,value"
        assert any(",mean," in line for line in lines)

        stab_path = tmp_path / "stab.csv"
        assert run("stability", "--data", data, "--epoch-grid", "0,3", "--seed", "5",
                   "--out", stab_path) == 0
        assert stab_path.exists()

        study_path = tmp_path / "study.csv"
        assert run("priors-study", "--data", data, "--strength", "100", "--epochs", "5",
                   "--seed", "5", "--out", study_path) == 0
        text = study_path.read_text()
        assert "map-emp,,0,prior_l2,0.0" in text

    def test_train_learn_beta(self, tmp_path, capsys):
        # the flag is gone: coverage is always the train rows' vote rate, which
        # the model file carries
        data = make_synth(tmp_path, n=300)
        model = tmp_path / "lb.txt"
        flags = ("--strength", "50", "--val-frac", "0", "--epochs", "3", "--seed", "7",
                 "--out", model)
        assert run("train", "--data", data, "--learn-beta", *flags) == 1
        assert "unrecognized arguments: --learn-beta" in capsys.readouterr().err
        assert not model.exists()
        assert run("train", "--data", data, *flags) == 0
        votes = read_dataset(data).votes
        count = (votes != 0).sum(axis=0).astype(np.float64)
        np.testing.assert_array_equal(load_model(model).params.coverage, count / votes.shape[0])

    def test_wide_file_with_truth_between_lf_columns(self, tmp_path):
        # More LFs than the int64 pattern key holds, so rows are keyed by
        # their bytes. A truth column between LF columns leaves the votes
        # C-ordered, as at either end; Fortran-ordered ones, which a byte
        # view cannot take as they are, group the same.
        data = make_synth(tmp_path, m=45, n=600, alpha="0.8", beta="0.05", seed=7)
        mid = tmp_path / "mid.csv"
        moved = []
        for line in data.read_text().splitlines():
            cells = line.split(",")
            cells.insert(22, cells.pop())
            moved.append(",".join(cells))
        mid.write_text("\n".join(moved) + "\n")
        votes = read_dataset(mid).votes
        assert votes.flags.c_contiguous
        rows, inverse = VoteRows.grouped(votes)
        assert rows.n < votes.shape[0]  # rows repeat
        fortran_rows, fortran_inverse = VoteRows.grouped(np.asfortranarray(votes))
        np.testing.assert_array_equal(fortran_rows.d, rows.d)
        np.testing.assert_array_equal(fortran_inverse, inverse)
        outputs = []
        for path in (data, mid):
            model, preds = tmp_path / f"{path.stem}.txt", tmp_path / f"{path.stem}.pred.csv"
            assert run("train", "--data", path, "--alpha-init", "0.8", "--epochs", "3",
                       "--seed", "7", "--out", model) == 0
            assert run("predict", "--model", model, "--data", path, "--out", preds) == 0
            outputs.append((model.read_bytes(), preds.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("train_beta, votes_at", [("1.0", 0), ("0.0", 1)])
    def test_coverage_at_0_or_1_never_degenerates_a_row(self, tmp_path, train_beta, votes_at):
        # LF 0 always votes (or never votes) on the train file, so the model
        # file stores its coverage as exactly 1 (or 0); on the predicted file
        # it abstains (or votes) on many rows. Coverage is the same under both
        # labels, so those rows are labelled like any other.
        data = make_synth(tmp_path, n=400, beta=f"{train_beta},0.5,0.5,0.5", seed=3)
        other = make_synth(tmp_path, "other.csv", n=400, beta="0.5", seed=4)
        model, preds = tmp_path / "model.txt", tmp_path / "preds.csv"
        assert run("train", "--data", data, "--epochs", "5", "--seed", "1", "--out", model) == 0
        assert load_model(model).params.coverage[0] == float(train_beta)
        assert run("predict", "--model", model, "--data", other, "--out", preds) == 0
        votes = read_dataset(other).votes
        assert ((votes[:, 0] != 0) == votes_at).sum() > 100
        reasons = read_predictions(preds).abstain_reason
        assert not (reasons == "degenerate").any()

    def test_map_user_priors(self, tmp_path):
        data = make_synth(tmp_path, n=120)
        model = tmp_path / "user.txt"
        assert run("train", "--data", data, "--mode", "map-user",
                   "--prior-u", "8,8,2,2", "--prior-v", "2,2,8,8",
                   "--epochs", "4", "--seed", "6", "--out", model) == 0
        assert "prior_source: user" in model.read_text()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert run("train", "--nonsense") == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    @pytest.mark.parametrize("command, dead", [
        (("gridsearch", "--epochs", "1"), ("--lr", "0.5")),
        (("priors-study", "--epochs", "1"), ("--force-abstain",)),
        (("stability", "--epoch-grid", "1"), ("--epochs", "1")),
        (("stability", "--epoch-grid", "1"), ("--patience", "1")),
    ], ids=["gridsearch-lr", "priors-study-force-abstain", "stability-epochs",
            "stability-patience"])
    def test_removed_dead_flag_is_usage_error(self, tmp_path, capsys, command, dead):
        # each was accepted and changed no output: a grid sets each cell's
        # learning rate, labelling moves neither distance of the study, and
        # stability's budgets set the epochs of fits without a validation split
        data = make_synth(tmp_path, n=120)
        out = tmp_path / "out.csv"
        assert run(*command, *dead, "--data", data, "--out", out) == 1
        assert f"unrecognized arguments: {' '.join(dead)}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("predict", "--model", tmp_path / "no.txt",
                   "--data", tmp_path / "no.csv", "--out", tmp_path / "o.csv") == 2

    def test_bad_cell_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("lf_0\n7\n")
        assert run("train", "--data", bad, "--out", tmp_path / "m.txt") == 2

    def test_bad_model_field_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=120)
        model = tmp_path / "m.txt"
        assert run("train", "--data", data, "--epochs", "2", "--out", model) == 0
        text = model.read_text()
        model.write_text(text.replace("prior_p: 0.5", "prior_p: abc"))
        capsys.readouterr()
        assert run("predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv") == 2
        assert "'prior_p'" in capsys.readouterr().err
        model.write_text(text.replace("prior_u: ", "prior_u: 1.0,"))
        assert run("predict", "--model", model, "--data", data, "--out", tmp_path / "p.csv") == 2
        assert "'prior_u'" in capsys.readouterr().err

    def test_duplicate_truth_column_is_data_error(self, tmp_path, capsys):
        # the second y was read as an LF: train wrote m: 2, and evaluate
        # --mode mv counted the truth column as a voter
        data = tmp_path / "two_y.csv"
        data.write_text("lf_0,y,y\n1,1,1\n-1,-1,-1\n1,1,1\n0,-1,-1\n")
        model = tmp_path / "m.txt"
        assert run("train", "--data", data, "--epochs", "2", "--val-frac", "0",
                   "--out", model) == 2
        assert not model.exists()
        assert run("evaluate", "--mode", "mv", "--data", data) == 2
        err = capsys.readouterr().err
        assert err.count(f"{data}: truth column 'y' appears 2 times") == 2

    def test_unknown_truth_column_is_data_error(self, tmp_path, capsys):
        # train fitted the y column as a third LF (exit 0, m: 3), and
        # evaluate --mode mv exited 1
        data = tmp_path / "t.csv"
        data.write_text("lf_0,lf_1,y\n1,1,1\n-1,0,-1\n1,-1,1\n0,-1,-1\n")
        model = tmp_path / "m.txt"
        assert run("train", "--data", data, "--truth-col", "nope", "--epochs", "2",
                   "--out", model) == 2
        assert not model.exists()
        assert run("evaluate", "--mode", "mv", "--data", data, "--truth-col", "nope") == 2
        err = capsys.readouterr().err
        assert err.count(f"{data}: no truth column 'nope'") == 2
        # the default y may be absent, except where the truth is scored
        bare = tmp_path / "bare.csv"
        bare.write_text("lf_0,lf_1\n1,1\n-1,0\n1,-1\n0,-1\n")
        assert run("train", "--data", bare, "--epochs", "2", "--val-frac", "0",
                   "--out", model) == 0
        assert run("evaluate", "--mode", "mv", "--data", bare) == 2
        assert f"{bare}: no truth column 'y'" in capsys.readouterr().err

    def test_out_of_range_model_field_is_data_error(self, tmp_path, capsys):
        # prior_u -1.0 loaded and predicted with exit 0; accuracy 1.5 and
        # prior_p 0.3 exited 2 without naming the file or the field
        data = make_synth(tmp_path, n=120)
        model = tmp_path / "m.txt"
        assert run("train", "--data", data, "--epochs", "2", "--out", model) == 0
        text = model.read_text()
        lines = dict(line.split(": ", 1) for line in text.splitlines())
        preds = tmp_path / "p.csv"
        for field, value in (("accuracy", "1.5,0.7,0.7,0.7"), ("prior_p", "0.3"),
                             ("prior_u", "-1.0,1.0,1.0,1.0")):
            model.write_text(text.replace(f"{field}: {lines[field]}", f"{field}: {value}"))
            capsys.readouterr()
            assert run("predict", "--model", model, "--data", data, "--out", preds) == 2
            assert f"{model}: model field '{field}'" in capsys.readouterr().err
        assert not preds.exists()

    def test_bad_prior_model_field_is_data_error(self, tmp_path, capsys):
        # each of these loaded, and predict and evaluate --model exited 0
        data = make_synth(tmp_path, n=120)
        model = tmp_path / "m.txt"
        assert run("train", "--data", data, "--epochs", "2", "--out", model) == 0
        lines = dict(line.split(": ", 1) for line in model.read_text().splitlines())
        preds = tmp_path / "p.csv"
        for edits, field in (
            ({"prior_strength": "-5.0"}, "'prior_strength'"),
            ({"prior_strength": "nan"}, "'prior_strength'"),
            ({"prior_strength": "3.0"}, "'prior_strength'"),
            ({"prior_source": "bogus"}, "'prior_source'"),
            ({"prior_means": "7.0,0.5,0.5,0.5"}, "'prior_means'"),
            ({"prior_means": "nan,0.5,0.5,0.5"}, "'prior_means'"),
            ({"prior_source": "none", "prior_strength": "none", "prior_means": "none"},
             "'prior_u'"),
            ({"prior_u": "none", "prior_v": "none"}, "'prior_u'"),
        ):
            model.write_text("".join(f"{key}: {edits.get(key, value)}\n"
                                     for key, value in lines.items()))
            for argv in (("predict", "--out", preds), ("evaluate",)):
                capsys.readouterr()
                assert run(*argv, "--model", model, "--data", data) == 2
                err = capsys.readouterr().err
                assert f"{model}: model field" in err and field in err
        assert not preds.exists()

    def test_malformed_grid_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=120)
        grid = tmp_path / "grid.json"
        for text, key in (('{"strengths": 5}', "'strengths'"), ("[0.5]", "JSON object")):
            grid.write_text(text)
            assert run("gridsearch", "--data", data, "--grid", grid) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("values, code, refusal", [
        ({"strengths": [0]}, 2, "data error: strength must be > 0, got 0"),
        ({"alpha_inits": [2.0]}, 2, "data error: alpha_init must lie in [0, 1], got 2.0"),
        ({"ps": [0.3, 0.7]}, 2, "data error: label prior p must lie in [0.5, 1], got 0.3"),
        ({"strengths": [1e303], "learning_rates": [0.01], "alpha_inits": [0.8], "ps": [0.5],
          "force_abstain": [False]}, 3, "numerical failure: non-finite accuracy gradient"),
    ], ids=["zero-strength", "alpha-init", "low-p", "overflowing-strength"])
    def test_grid_no_cell_can_use_exits_nonzero(self, tmp_path, capsys, values, code, refusal):
        # each exited 0 with a header-only table and a failed cell as "best"
        data = make_synth(tmp_path, n=400)
        grid, out = tmp_path / "grid.json", tmp_path / "cells.csv"
        grid.write_text(json.dumps(values))
        capsys.readouterr()
        with np.errstate(over="ignore"):  # the 1e303 prior's gradient overflows
            assert run("gridsearch", "--data", data, "--grid", grid, "--epochs", "3",
                       "--out", out) == code
        assert refusal in capsys.readouterr().err
        assert not out.exists()

    def test_gridsearch_names_failed_cells(self, tmp_path, monkeypatch, capsys):
        import labelforge.experiments
        from labelforge import NumericalError

        real_fit_cells = labelforge.experiments.fit_cells

        def second_cell_fails(votes, val_votes, priors, configs):
            results = real_fit_cells(votes, val_votes, priors, configs)
            return [results[0], NumericalError("synthetic blow-up"), *results[2:]]

        monkeypatch.setattr(labelforge.experiments, "fit_cells", second_cell_fails)
        data = make_synth(tmp_path, n=300)
        grid, out = tmp_path / "grid.json", tmp_path / "cells.csv"
        grid.write_text(json.dumps({"strengths": [10.0], "learning_rates": [0.05],
                                    "alpha_inits": [0.9, 0.8, 0.7], "ps": [0.5],
                                    "force_abstain": [False]}))
        capsys.readouterr()
        assert run("gridsearch", "--data", data, "--grid", grid, "--epochs", "2",
                   "--out", out) == 0
        captured = capsys.readouterr()
        assert captured.err == "cell #1 failed: synthetic blow-up\n"
        assert "cell #1" not in captured.out
        cells = {line.split(",")[3] for line in out.read_text().splitlines()[1:]}
        assert cells == {"0", "2"}

    def test_non_finite_learning_rate_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=120)
        model = tmp_path / "m.txt"
        for lr in ("inf", "nan"):
            assert run("train", "--data", data, "--lr", lr, "--out", model) == 2
            assert "learning_rate" in capsys.readouterr().err
        assert not model.exists()

    def test_bad_prediction_row_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=120)
        preds = tmp_path / "p.csv"
        preds.write_text("index,label,score_pos,abstain_reason\n0,1,nan,none\n")
        assert run("evaluate", "--pred", preds, "--truth", data) == 2
        assert "row 0, column 'score_pos'" in capsys.readouterr().err

    def test_synth_list_length_mismatch_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        for alpha, beta, named in (("0.7,0.8", "0.5", "accuracy has 2 entries"),
                                   ("0.7", "0.5,0.5,0.5,0.5", "coverage has 4 entries")):
            assert run("synth", "--m", "3", "--n", "10", "--alpha", alpha, "--beta", beta,
                       "--out", out) == 2
            err = capsys.readouterr().err
            assert named in err and "m=3" in err
        assert not out.exists()

    def test_non_finite_synth_parameter_is_data_error(self, tmp_path, capsys):
        # NaN passed both range checks and wrote an all-abstain matrix (--beta)
        out = tmp_path / "s.csv"
        for value in ("nan", "inf", "-inf", "0.7,nan,0.7"):
            for alpha, beta, named in ((value, "0.5", "accuracy"), ("0.7", value, "coverage")):
                assert run("synth", "--m", "3", "--n", "10", f"--alpha={alpha}",
                           f"--beta={beta}", "--out", out) == 2
                err = capsys.readouterr().err
                assert f"synthetic {named} entries" in err and "Traceback" not in err
        assert not out.exists()

    def test_synth_empty_list_is_data_error(self, tmp_path, capsys):
        # an empty list raised IndexError, a traceback with exit 1
        out = tmp_path / "s.csv"
        for alpha, beta, flag in ((",", "0.5", "--alpha"), ("0.7", ",", "--beta")):
            assert run("synth", "--m", "3", "--n", "10", "--alpha", alpha, "--beta", beta,
                       "--out", out) == 2
            assert f"{flag} needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_beta_pseudo_count_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=120)
        ones = ",".join(["1"] * 4)
        for prior_u, prior_v, named in (("1e308,1,1,1", ones, "beta prior u "),
                                        ("2e305,1,1,1", "2e305,1,1,1", "beta prior u + v ")):
            assert run("train", "--data", data, "--mode", "map-user", "--prior-u", prior_u,
                       "--prior-v", prior_v, "--out", tmp_path / "m.txt") == 2
            assert named in capsys.readouterr().err

    def test_evaluate_source_conflict_is_usage_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=120)
        preds, model, user = tmp_path / "p.csv", tmp_path / "m.txt", tmp_path / "u.txt"
        capsys.readouterr()
        for argv, refusal in (
            (("evaluate", "--data", data),
             "one of the arguments --pred --model --mode is required"),
            (("evaluate", "--pred", preds, "--mode", "mv", "--data", data), "not allowed with"),
            # flag combinations argparse cannot declare, refused while parsing too
            (("evaluate", "--model", model), "--model requires --data"),
            (("evaluate", "--mode", "mv", "--truth", data), "--mode mv requires --data"),
            (("evaluate", "--pred", preds), "--pred requires --truth or --data"),
            (("train", "--data", data, "--mode", "map-user", "--prior-u", "9,8,7,6",
              "--out", user), "--mode map-user requires --prior-u and --prior-v"),
        ):
            assert run(*argv) == 1
            captured = capsys.readouterr()
            assert refusal in captured.err
            assert "usage:" in captured.err
            assert captured.out == ""  # refused before the reproducibility line
        assert not user.exists()

    @pytest.mark.parametrize("n", ["1000000000000000", "4611686018427387904"])
    def test_synth_beyond_memory_is_data_error(self, tmp_path, capsys, n):
        # both fail before allocating: no machine holds 7 PiB for the first
        # n floats, and n x m floats of the second exceed any array's size
        out = tmp_path / "s.csv"
        assert run("synth", "--m", "3", "--n", n, "--alpha", "0.9", "--beta", "0.5",
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert not out.exists()

    def lowdata_refused(self, tmp_path, monkeypatch, capsys, *flags) -> str:
        """Run lowdata on a 400-row file with ``flags``, which must exit 2
        before any cell is fitted; returns stderr."""
        import labelforge.experiments

        def no_fit(*args, **kwargs):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(labelforge.experiments, "fit_cells", no_fit)
        data = make_synth(tmp_path, n=400)
        out = tmp_path / "low.csv"
        assert run("lowdata", "--data", data, *flags, "--out", out) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_lowdata_negative_size_is_data_error(self, tmp_path, monkeypatch, capsys):
        err = self.lowdata_refused(tmp_path, monkeypatch, capsys, "--sizes=-250,50")
        assert "size must be >= 1, got -250" in err

    def test_lowdata_zero_size_is_data_error(self, tmp_path, monkeypatch, capsys):
        err = self.lowdata_refused(tmp_path, monkeypatch, capsys, "--sizes=50,0")
        assert "size must be >= 1, got 0" in err

    def test_lowdata_negative_replicates_is_data_error(self, tmp_path, monkeypatch, capsys):
        err = self.lowdata_refused(
            tmp_path, monkeypatch, capsys, "--sizes", "50", "--replicates", "-2"
        )
        assert "at least 1 replicate, got -2" in err

    def test_lowdata_no_size_that_fits_is_data_error(self, tmp_path, monkeypatch, capsys):
        # exited 0 with a header-only table
        err = self.lowdata_refused(tmp_path, monkeypatch, capsys, "--sizes", "100000,500")
        assert "no low-data size in [100000, 500] fits the 288 training rows" in err

    def test_lowdata_empty_sizes_is_data_error(self, tmp_path, monkeypatch, capsys):
        err = self.lowdata_refused(tmp_path, monkeypatch, capsys, "--sizes", ",")
        assert "--sizes needs at least one value" in err

    def test_stability_empty_epoch_grid_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=400)
        out = tmp_path / "st.csv"
        assert run("stability", "--data", data, "--epoch-grid", ",", "--out", out) == 2
        assert "--epoch-grid needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    def test_stability_negative_budget_is_data_error(self, tmp_path, monkeypatch, capsys):
        import labelforge.experiments

        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(labelforge.experiments, "fit_cells", no_fit)
        data = make_synth(tmp_path, n=400)
        out = tmp_path / "st.csv"
        assert run("stability", "--data", data, "--epoch-grid", "3,-1", "--out", out) == 2
        assert "epoch budget must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_stability_repeated_mode_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=400)
        out = tmp_path / "st.csv"
        assert run("stability", "--data", data, "--epoch-grid", "0,3", "--modes",
                   "map-mv,map-mv", "--out", out) == 2
        err = capsys.readouterr().err
        assert "modes must be nonempty and distinct, got ['map-mv', 'map-mv']" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, refusal", [
        (("lowdata", "--sizes", "100,100"), "low-data sizes must be distinct, got [100, 100]"),
        (("stability", "--epoch-grid", "3,3"), "epoch budgets must be distinct, got [3, 3]"),
    ], ids=["lowdata-sizes", "stability-epoch-grid"])
    def test_repeated_list_value_is_data_error(self, tmp_path, monkeypatch, capsys, flags,
                                               refusal):
        # each exited 0 and wrote every row twice
        import labelforge.experiments

        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(labelforge.experiments, "fit_cells", no_fit)
        data = make_synth(tmp_path, n=400)
        out = tmp_path / "rows.csv"
        assert run(*flags, "--data", data, "--out", out) == 2
        assert refusal in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_overflowing_prior_prints_only_the_failure(self, tmp_path, capsys):
        # numpy's overflow RuntimeWarning reached stderr ahead of the message
        data = make_synth(tmp_path, n=400)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("train", "--data", data, "--strength", "1e303", "--alpha-init", "0.8",
                       "--out", tmp_path / "m.txt") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import labelforge.cli
        from labelforge import NumericalError

        def broken_fit(*args, **kwargs):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(labelforge.cli, "fit", broken_fit)
        data = make_synth(tmp_path, n=120)
        assert run("train", "--data", data, "--epochs", "2", "--out", tmp_path / "m.txt") == 3


SEED_COMMANDS = {
    "synth": ["--m", "2", "--n", "10", "--alpha", "0.9", "--beta", "0.5", "--out", "{out}"],
    "train": ["--data", "{data}", "--epochs", "1", "--out", "{out}"],
    "predict": ["--model", "{model}", "--data", "{data}", "--out", "{out}"],
    "evaluate": ["--model", "{model}", "--data", "{data}", "--out", "{out}"],
    "gridsearch": ["--data", "{data}", "--epochs", "1", "--out", "{out}"],
    "lowdata": ["--data", "{data}", "--sizes", "20", "--replicates", "1", "--epochs", "1",
                "--out", "{out}"],
    "stability": ["--data", "{data}", "--epoch-grid", "0", "--out", "{out}"],
    "priors-study": ["--data", "{data}", "--epochs", "1", "--out", "{out}"],
}


@pytest.fixture(scope="module")
def seed_inputs(tmp_path_factory):
    """A synth file and a model trained on it, shared by the seed tests."""
    workdir = tmp_path_factory.mktemp("seed_inputs")
    data = make_synth(workdir, n=120)
    model = workdir / "model.txt"
    assert run("train", "--data", data, "--epochs", "1", "--out", model) == 0
    return {"data": data, "model": model}


@pytest.mark.parametrize("source", ["--seed", "LABELFORGE_SEED"])
@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_negative_seed_is_data_error(
    seed_inputs, tmp_path, monkeypatch, capsys, command, source
):
    # synth, train, gridsearch and stability ended in a numpy traceback
    # (exit 1), predict and evaluate ran with exit 0
    out = tmp_path / "out.txt"
    argv = [a.format(out=out, **seed_inputs) for a in SEED_COMMANDS[command]]
    if source == "--seed":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("LABELFORGE_SEED", "-1")
    capsys.readouterr()
    assert run(command, *argv) == 2
    captured = capsys.readouterr()
    assert f"{source} must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # refused before the reproducibility line
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_command_help_exits_zero(command, capsys):
    assert run(command, "--help") == 0
    assert capsys.readouterr().out.startswith(f"usage: labelforge {command} ")


# each command's config digest for SEED_COMMANDS with --seed 7; paths are
# left out of the digest, so the tmp paths do not move it
CONFIG_DIGESTS = {
    "evaluate": "79804a9f50b2",
    "gridsearch": "d6388b4d9699",
    "lowdata": "28131f71332c",
    "predict": "7b3d9af5e536",
    "priors-study": "20b98fba8be2",
    "stability": "b919d3ad9ce9",
    "synth": "53ce408e05b0",
    "train": "2898385e164a",
}


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_config_digest_is_pinned(seed_inputs, tmp_path, capsys, command):
    argv = [a.format(out=tmp_path / "out.txt", **seed_inputs) for a in SEED_COMMANDS[command]]
    capsys.readouterr()
    assert run(command, *argv, "--seed", "7") == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.endswith(f" command={command} seed=7 config={CONFIG_DIGESTS[command]}")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        data = make_synth(tmp_path, n=200)
        model_a, model_b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (model_a, model_b):
            assert run("train", "--data", data, "--mode", "map-mv", "--epochs", "6",
                       "--seed", "7", "--out", out) == 0
        assert model_a.read_bytes() == model_b.read_bytes()

        preds_a, preds_b = tmp_path / "pa.csv", tmp_path / "pb.csv"
        for out in (preds_a, preds_b):
            assert run("predict", "--model", model_a, "--data", data, "--out", out) == 0
        assert preds_a.read_bytes() == preds_b.read_bytes()

    def test_synth_deterministic(self, tmp_path):
        a = make_synth(tmp_path, name="a.csv", seed=9)
        b = make_synth(tmp_path, name="b.csv", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_used_as_default(self, tmp_path, monkeypatch, capsys):
        data = make_synth(tmp_path, n=120)
        monkeypatch.setenv("LABELFORGE_SEED", "123")
        assert run("train", "--data", data, "--epochs", "2",
                   "--out", tmp_path / "m.txt") == 0
        assert "seed=123" in capsys.readouterr().out
        # an explicit flag overrides the environment
        assert run("train", "--data", data, "--epochs", "2", "--seed", "4",
                   "--out", tmp_path / "m2.txt") == 0
        assert "seed=4" in capsys.readouterr().out
