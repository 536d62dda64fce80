"""End-to-end CLI workflows, exit codes, and run-to-run determinism."""

import json

import numpy as np

from labelforge import majority_vote, read_dataset, read_predictions
from labelforge.cli import cli_main


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
        assert run("stability", "--data", data, "--epoch-grid", "0,3", "--epochs", "1",
                   "--seed", "5", "--out", stab_path) == 0
        assert stab_path.exists()

        study_path = tmp_path / "study.csv"
        assert run("priors-study", "--data", data, "--strength", "100", "--epochs", "5",
                   "--seed", "5", "--out", study_path) == 0
        text = study_path.read_text()
        assert "map-emp,,0,prior_l2,0.0" in text

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

    def test_malformed_grid_is_data_error(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=120)
        grid = tmp_path / "grid.json"
        for text, key in (('{"strengths": 5}', "'strengths'"), ("[0.5]", "JSON object")):
            grid.write_text(text)
            assert run("gridsearch", "--data", data, "--grid", grid) == 2
            assert key in capsys.readouterr().err

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
        assert run("evaluate", "--data", data) == 1
        assert "exactly one" in capsys.readouterr().err

    def lowdata_refused(self, tmp_path, monkeypatch, capsys, *flags) -> str:
        """Run lowdata on a 400-row file with ``flags``, which must exit 2
        before any cell is fitted; returns stderr."""
        import labelforge.experiments

        def no_fit(*args, **kwargs):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(labelforge.experiments, "_fit_and_score", no_fit)
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

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import labelforge.cli
        from labelforge import NumericalError

        def broken_fit(*args, **kwargs):
            raise NumericalError("synthetic blow-up")

        monkeypatch.setattr(labelforge.cli, "fit", broken_fit)
        data = make_synth(tmp_path, n=120)
        assert run("train", "--data", data, "--epochs", "2", "--out", tmp_path / "m.txt") == 3


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
