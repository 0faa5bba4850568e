import os
from dataclasses import fields

import numpy as np
import pytest

from mnarkit import baselines, cli, evaluate, io, model as core, synth
from mnarkit.errors import ParseError
from mnarkit.masking import IncompleteMatrix


class TestMatrixCsv:
    def test_empty_cell_is_missing(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,\n2,3\n")
        data, names = io.load_matrix_csv(p)
        assert names == ["a", "b"]
        assert data.shape == (2, 2)
        assert np.array_equal(data.mask, [[1.0, 0.0], [1.0, 1.0]])
        assert data.values[0, 0] == 1.0

    def test_na_tokens_accepted(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\nNA,1\nnan,2\n")
        data, _ = io.load_matrix_csv(p)
        assert np.array_equal(data.mask[:, 0], [0.0, 0.0])

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            io.load_matrix_csv(p)

    def test_ragged_row_location(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            io.load_matrix_csv(p)

    def test_non_numeric_cell_location(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n1,x\n")
        with pytest.raises(ParseError, match="column 2"):
            io.load_matrix_csv(p)

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "-nan"])
    def test_non_finite_cell_location(self, tmp_path, token):
        p = tmp_path / "m.csv"
        p.write_text(f"a,b\n1,2\n3,{token}\n")
        with pytest.raises(ParseError, match="row 3, column 2"):
            io.load_matrix_csv(p)

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        data = IncompleteMatrix(rng.standard_normal((6, 3)),
                                (rng.random((6, 3)) < 0.7).astype(float))
        p = tmp_path / "m.csv"
        io.write_matrix_csv(p, data)
        back, _ = io.load_matrix_csv(p)
        assert np.array_equal(back.mask, data.mask)
        obs = data.mask == 1
        assert np.array_equal(back.values[obs], data.values[obs])


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nmodel.alpha = 0.5\nmissing.kind = mcar  # trailing\n\n")
        cfg = io.parse_config_file(p)
        assert cfg == {"model.alpha": "0.5", "missing.kind": "mcar"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no equals sign\n")
        with pytest.raises(ParseError, match="line 1"):
            io.parse_config_file(p)


FAST = ["--hidden-sizes", "6,6", "--k-train", "3", "--l-impute", "8",
        "--iterations", "15", "--latent-dim", "1"]


class TestCli:
    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["frobnicate"])
        assert e.value.code == 2

    def test_synth_train_impute_eval_pipeline(self, tmp_path, capsys):
        synth_dir = str(tmp_path / "s")
        assert cli.main(["synth", "--out", synth_dir, "--n", "60", "--d", "4",
                         "--missing-kind", "self_mask", "--missing-k", "0.8",
                         "--seed", "0"]) == 0
        assert os.path.exists(os.path.join(synth_dir, "config_echo.txt"))
        train_dir = str(tmp_path / "t")
        assert cli.main(["train", "--data", os.path.join(synth_dir, "observed.csv"),
                         "--out", train_dir, *FAST]) == 0
        imp_dir = str(tmp_path / "i")
        assert cli.main(["impute", "--data", os.path.join(synth_dir, "observed.csv"),
                         "--checkpoint", os.path.join(train_dir, "model.npz"),
                         "--out", imp_dir]) == 0
        eval_dir = str(tmp_path / "e")
        assert cli.main(["eval", "--truth", os.path.join(synth_dir, "truth.csv"),
                         "--observed", os.path.join(synth_dir, "observed.csv"),
                         "--completed", os.path.join(imp_dir, "completed.csv"),
                         "--prob-mask", os.path.join(imp_dir, "prob_mask.csv"),
                         "--out", eval_dir]) == 0
        metrics = (tmp_path / "e" / "metrics.csv").read_text()
        assert "rmse_missing" in metrics and "mask_accuracy" in metrics

    def test_train_impute_deterministic(self, tmp_path):
        synth_dir = str(tmp_path / "s")
        cli.main(["synth", "--out", synth_dir, "--n", "40", "--seed", "1",
                  "--missing-kind", "self_mask", "--missing-k", "0.8"])
        outs = []
        for tag in ("a", "b"):
            tdir = str(tmp_path / f"t{tag}")
            idir = str(tmp_path / f"i{tag}")
            cli.main(["train", "--data", os.path.join(synth_dir, "observed.csv"),
                      "--out", tdir, *FAST])
            cli.main(["impute", "--data", os.path.join(synth_dir, "observed.csv"),
                      "--checkpoint", os.path.join(tdir, "model.npz"), "--out", idir])
            outs.append((tmp_path / f"i{tag}" / "completed.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_impute_feature_mismatch_is_structured_error(self, tmp_path, capsys):
        synth_dir = str(tmp_path / "s")
        cli.main(["synth", "--out", synth_dir, "--n", "30", "--d", "4",
                  "--missing-kind", "self_mask", "--missing-k", "0.8"])
        tdir = str(tmp_path / "t")
        cli.main(["train", "--data", os.path.join(synth_dir, "observed.csv"),
                  "--out", tdir, *FAST])
        other = str(tmp_path / "s3")
        cli.main(["synth", "--out", other, "--n", "30", "--d", "3",
                  "--missing-kind", "self_mask", "--missing-k", "0.8"])
        code = cli.main(["impute", "--data", os.path.join(other, "observed.csv"),
                         "--checkpoint", os.path.join(tdir, "model.npz"),
                         "--out", str(tmp_path / "i")])
        assert code == 1
        assert "features" in capsys.readouterr().err

    def test_bench_writes_report(self, tmp_path):
        out = str(tmp_path / "b")
        assert cli.main(["bench", "--out", out, "--n", "50", "--seeds", "0,1",
                         "--methods", "conjunction,mean",
                         "--missing-kind", "self_mask", "--missing-k", "0.8",
                         *FAST]) == 0
        report = (tmp_path / "b" / "report.csv").read_text()
        assert "conjunction" in report and "rmse_missing" in report

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        target = str(tmp_path / "env_out")
        monkeypatch.setenv("MNARKIT_OUTDIR", target)
        cli.main(["synth", "--out", str(tmp_path / "ignored"), "--n", "30",
                  "--missing-kind", "mcar", "--missing-k", "0.2"])
        assert os.path.exists(os.path.join(target, "observed.csv"))
        assert not os.path.exists(os.path.join(str(tmp_path / "ignored"), "observed.csv"))

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("model.alpha = 0.25\nmodel.iterations = 15\n"
                           "model.hidden_sizes = 6,6\nmodel.k_train = 3\n"
                           "model.l_impute = 8\nmodel.latent_dim = 1\n")
        synth_dir = str(tmp_path / "s")
        cli.main(["synth", "--out", synth_dir, "--n", "30",
                  "--missing-kind", "self_mask", "--missing-k", "0.8"])
        tdir = str(tmp_path / "t")
        assert cli.main(["train", "--data", os.path.join(synth_dir, "observed.csv"),
                         "--out", tdir, "--config", str(cfgfile),
                         "--alpha", "0.5"]) == 0
        echo = (tmp_path / "t" / "config_echo.txt").read_text()
        assert "model.alpha = 0.5" in echo          # flag wins
        assert "model.iterations = 15" in echo      # file value kept

    @pytest.mark.parametrize(
        "method", [m for m, overrides in baselines.METHODS.items() if overrides is not None])
    def test_train_method_echoes_its_overrides(self, tmp_path, method):
        synth_dir = str(tmp_path / "s")
        cli.main(["synth", "--out", synth_dir, "--n", "30",
                  "--missing-kind", "self_mask", "--missing-k", "0.8"])
        assert cli.main(["train", "--data", os.path.join(synth_dir, "observed.csv"),
                         "--out", str(tmp_path / "t"), "--method", method,
                         "--alpha", "0.5", *FAST]) == 0
        echo = (tmp_path / "t" / "config_echo.txt").read_text()
        expected = {"alpha": 0.5, "structure": "parallel", **baselines.METHODS[method]}
        for key, value in expected.items():
            assert f"model.{key} = {value}\n" in echo
        assert f"run.method = {method}\n" in echo

    def test_train_rejects_the_mean_method(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["train", "--data", "observed.csv", "--method", "mean"])
        assert e.value.code == 2

    def test_bench_unknown_method_exits_1(self, tmp_path, capsys):
        code = cli.main(["bench", "--out", str(tmp_path / "b"),
                         "--methods", "conjunction,bogus", *FAST])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["train", "--data", "observed.csv", "--config", "{cfg}"], "model.latent_dim"),
        (["train", "--data", "observed.csv", "--hidden-sizes", "8,x"], "--hidden-sizes"),
        (["bench", "--seeds", "1,x"], "--seeds"),
        (["train", "--data", "observed.csv", "--latent-dim", "x"], "--latent-dim"),
        (["synth", "--config", "{cfg}"], "missing.k"),
        (["synth", "--config", "{cfg}"], "missing.feature_subset")])
    def test_unreadable_number_exits_1_naming_it(self, tmp_path, capsys, argv, named):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text({"model.latent_dim": "model.latent_dim = x\n",
                            "missing.k": "missing.k = x\n",
                            "missing.feature_subset": "missing.feature_subset = 1,x\n",
                            }.get(named, ""))
        argv = [a.replace("{cfg}", str(cfgfile)) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named}: cannot read ")

    @pytest.mark.parametrize("argv, named", [
        (["synth", "--config", "{cfg}"], "missing.kk"),
        (["train", "--data", "observed.csv", "--config", "{cfg}"], "model.kk")])
    def test_unknown_config_key_exits_1_naming_it(self, tmp_path, capsys, argv, named):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{named} = 0.5\n")
        argv = [a.replace("{cfg}", str(cfgfile)) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {named}: unknown config key\n"

    @pytest.mark.parametrize("argv, line", [
        (["synth", "--config", "{cfg}"], "missng.k = 0.1"),
        (["train", "--data", "observed.csv", "--config", "{cfg}"], "modle.alpha = 0.5"),
        (["synth", "--config", "{cfg}"], "model.alpha = 0.5"),
        (["train", "--data", "observed.csv", "--config", "{cfg}"], "data.n = 50"),
        (["train", "--data", "observed.csv", "--config", "{cfg}"], "run.method = mean"),
        (["bench", "--config", "{cfg}"], "model.seed = 7"),
        (["bench", "--config", "{cfg}"], "data.seed = 7")])
    def test_key_outside_the_commands_sections_exits_1_naming_it(self, tmp_path, capsys,
                                                                 argv, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n")
        argv = [a.replace("{cfg}", str(cfgfile)) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"error: {key}: unknown config key\n"
        assert not (tmp_path / "o" / "config_echo.txt").exists()

    def test_bench_has_no_seed_flag(self, tmp_path, capsys):
        # run.seeds seeds each cell's data and model, so a --seed would set nothing
        with pytest.raises(SystemExit) as e:
            cli.main(["bench", "--seed", "7", "--out", str(tmp_path / "o")])
        assert e.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["synth", "--seed", "-1"], "data.seed"),
        (["synth", "--seed", str(2**64)], "data.seed"),
        (["synth", "--n", "0"], "data.n"),
        (["synth", "--d", "0"], "data.d"),
        (["synth", "--rho", "nan"], "data.rho"),
        (["bench", "--seeds", "-1"], "run.seeds"),
        (["bench", "--seeds", ""], "run.seeds"),
        (["bench", "--methods", "conjunction,bogus"], "run.methods"),
        (["bench", "--methods", ""], "run.methods")])
    def test_bad_data_or_run_value_exits_1_naming_the_key(self, tmp_path, capsys, argv, key):
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not (tmp_path / "o" / "config_echo.txt").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--missing-kind", "bogus"],
        ["train", "--data", "observed.csv", "--encoder", "bogus"],
        ["train", "--data", "observed.csv", "--structure", "stacked"]])
    def test_unknown_choice_exits_1_naming_it(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        key = {"--missing-kind": "missing.kind", "--encoder": "model.encoder",
               "--structure": "model.structure"}[argv[-2]]
        assert err.startswith(f"error: {key}: unknown ") and repr(argv[-1]) in err

    @pytest.mark.parametrize("argv, key", [
        (["train", "--data", "observed.csv", "--latent-dim", "0"], "model.latent_dim"),
        (["train", "--data", "observed.csv", "--learning-rate", "0"], "model.learning_rate"),
        (["bench", "--hidden-sizes", "8,0"], "model.hidden_sizes"),
        (["synth", "--missing-k", "2"], "missing.k"),
        (["bench", "--missing-mcar-probability", "-0.5"], "missing.mcar_probability"),
        (["synth", "--rho", "2"], "data.rho"),
        (["synth", "--d", "5", "--rho", "-0.25"], "data.rho"),
        (["bench", "--seeds", "1,1", "--methods", "mean", "--n", "50"], "run.seeds")])
    def test_bad_model_missing_or_range_value_exits_1_naming_the_key(self, tmp_path, capsys,
                                                                     argv, key):
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not (tmp_path / "o" / "report.csv").exists()
        assert not (tmp_path / "o" / "config_echo.txt").exists()


# a value other than the default for every field of each config section, as text
NON_DEFAULT = {
    "data": {"n": "30", "d": "3", "rho": "0.5", "seed": "9"},
    "model": {"latent_dim": "3", "hidden_sizes": "5,7", "k_train": "4", "l_impute": "9",
              "alpha": "0.25", "learning_rate": "0.002", "iterations": "7",
              "batch_size": "16", "encoder": "set_function", "set_embedding_size": "6",
              "set_code_size": "11", "seed": "5", "structure": "serial",
              "trace_interval": "2"},
    "missing": {"kind": "mixed", "k": "0.3", "feature_subset": "0,2",
                "mcar_probability": "0.1"},
    "run": {"seeds": "3,1", "methods": "mean,conjunction"},
}
COMMANDS = {"synth": ["synth"], "train": ["train", "--data", "observed.csv"],
            "bench": ["bench"]}


def _resolved(section, argv):
    return cli._resolve(cli.build_parser().parse_args(argv))[section]


def _report_without_runtime(out):
    with open(os.path.join(out, "report.csv")) as f:
        rows = [line.rstrip("\n").split(",") for line in f]
    drop = rows[0].index("runtime_s")
    return [row[:drop] + row[drop + 1:] for row in rows]


class TestConfigTable:
    """Every field of each SECTIONS dataclass is a config key and a flag of
    each command that reads it."""

    @pytest.mark.parametrize("section, name", [
        (section, f.name) for section, cls in cli.SECTIONS.items() for f in fields(cls)])
    def test_flag_and_config_key_give_the_same_value(self, tmp_path, section, name):
        text = NON_DEFAULT[section][name]
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"{section}.{name} = {text}\n")
        flag = "--" + (f"{section}_{name}" if section == "missing" else name).replace("_", "-")
        readers = [command for command, reads in cli.READS.items()
                   if name in [f.name for f in reads.get(section, ())]]
        assert readers
        for command in readers:
            from_flag = _resolved(section, [*COMMANDS[command], flag, text])
            from_file = _resolved(section, [*COMMANDS[command], "--config", str(cfgfile)])
            assert from_flag == from_file
            assert from_flag != cli.SECTIONS[section]()

    @pytest.mark.parametrize("flags", [[], ["--missing-kind", "mixed", "--missing-k", "0.3",
                                            "--missing-feature-subset", "0,2",
                                            "--missing-mcar-probability", "0.1"]])
    def test_synth_echo_reproduces_the_missing_spec(self, tmp_path, flags):
        out = str(tmp_path / "s")
        assert cli.main(["synth", "--out", out, "--n", "20", *flags]) == 0
        echo = os.path.join(out, "config_echo.txt")
        assert (_resolved("missing", ["synth", "--config", echo])
                == _resolved("missing", ["synth", *flags]))

    def test_synth_echo_reproduces_the_csvs(self, tmp_path):
        first, again = str(tmp_path / "s"), str(tmp_path / "s2")
        assert cli.main(["synth", "--out", first, "--n", "50", "--d", "3", "--rho", "0.4",
                         "--seed", "6", "--missing-kind", "mixed",
                         "--missing-mcar-probability", "0.2"]) == 0
        echo = os.path.join(first, "config_echo.txt")
        assert "#" not in open(echo).read()
        assert cli.main(["synth", "--out", again, "--config", echo]) == 0
        for name in ("truth.csv", "observed.csv"):
            assert (tmp_path / "s2" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()
        data, _ = io.load_matrix_csv(os.path.join(again, "observed.csv"))
        assert data.shape == (50, 3)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_synth_writes_the_data_bench_draws_at_its_seed(self, tmp_path, seed):
        out = str(tmp_path / "s")
        assert cli.main(["synth", "--out", out, "--n", "40", "--seed", str(seed)]) == 0
        truth, observed = evaluate.draw_dataset(evaluate.GaussianDatasetSpec(n=40, seed=seed),
                                                synth.MissingSpec())
        written, _ = io.load_complete_csv(os.path.join(out, "truth.csv"))
        written_obs, _ = io.load_matrix_csv(os.path.join(out, "observed.csv"))
        assert np.array_equal(written, truth)
        assert np.array_equal(written_obs.mask, observed.mask)
        obs = observed.mask == 1
        assert np.array_equal(written_obs.values[obs], observed.values[obs])

    def test_train_echo_reproduces_the_model_config(self, tmp_path):
        synth_dir = str(tmp_path / "s")
        cli.main(["synth", "--out", synth_dir, "--n", "30"])
        data, out = os.path.join(synth_dir, "observed.csv"), str(tmp_path / "t")
        assert cli.main(["train", "--data", data, "--out", out, *FAST, "--alpha", "0.5",
                         "--structure", "serial", "--encoder", "set_function",
                         "--learning-rate", "0.003", "--trace-interval", "4"]) == 0
        _, config = core.load_checkpoint(os.path.join(out, "model.npz"))
        echo = os.path.join(out, "config_echo.txt")
        assert _resolved("model", ["train", "--data", data, "--config", echo]) == config
        assert "# run.data = " in open(echo).read()

    def test_bench_echo_reproduces_both_configs(self, tmp_path):
        out, again = str(tmp_path / "b"), str(tmp_path / "b2")
        flags = ["--n", "40", "--d", "3", "--rho", "0.5", "--seeds", "4,1",
                 "--methods", "conjunction,mean", "--missing-kind", "mixed",
                 "--missing-k", "0.3", "--alpha", "0.5", *FAST]
        assert cli.main(["bench", "--out", out, *flags]) == 0
        echo = os.path.join(out, "config_echo.txt")
        text = open(echo).read()
        assert "#" not in text and "seed =" not in text
        assert "data.n = 40\n" in text and "run.methods = conjunction,mean\n" in text
        assert (cli._resolve(cli.build_parser().parse_args(["bench", "--config", echo]))
                == cli._resolve(cli.build_parser().parse_args(["bench", *flags])))
        assert cli.main(["bench", "--out", again, "--config", echo]) == 0
        assert _report_without_runtime(again) == _report_without_runtime(out)
