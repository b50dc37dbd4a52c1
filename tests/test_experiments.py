import csv
import json
import os
from pathlib import Path

import pytest

import distreg as dr
from distreg import experiments
from distreg.cli import main
from distreg.experiments import (
    ConfigError,
    parse_config,
    run_experiment,
    serialize_config,
    summary_line,
)


REPO = Path(__file__).resolve().parent.parent

MINIMAL_THEOREM1 = """
experiment: theorem1_scaling
seed: 7
d_list: [1]
m_list: [16, 256]
"""


def test_parse_minimal_config_fills_defaults():
    config = parse_config(MINIMAL_THEOREM1)
    assert config.experiment == "theorem1_scaling"
    assert config.seed == 7
    assert config.trials == 200
    assert config.d_list == [1]
    assert config.m_list == [16, 256]
    assert config.out_path == "distreg_theorem1_scaling.csv"
    assert parse_config("experiment: calibrate\nkernel: null\n").kernel == "epanechnikov"
    assert dr.make_box_meta() == dr.make_box_meta(1)


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        parse_config("experiment: nope\n")
    with pytest.raises(ConfigError, match="missing required field: experiment"):
        parse_config("trials: 3\n")


def test_parse_rejects_zero_trials():
    with pytest.raises(ConfigError, match="trials"):
        parse_config("experiment: lemma1\ntrials: 0\n")


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config("experiment: lemma1\nbogus: 1\n")
    for meta in ("{shape: weird}", "{return: 1}"):
        with pytest.raises(ConfigError, match="unknown meta keys"):
            parse_config(f"experiment: lemma1\nmeta: {meta}\n")


def test_parse_rejects_experiment_mismatch():
    with pytest.raises(ConfigError, match="requested"):
        parse_config("experiment: lemma1\n", experiment="small_ball")


def test_parse_rejects_bad_yaml_with_context():
    with pytest.raises(ConfigError, match="line"):
        parse_config("experiment: lemma1\n  bad indent: [\n")


def test_config_round_trip():
    config = parse_config(MINIMAL_THEOREM1)
    again = parse_config(serialize_config(config))
    assert again == config


def test_lemma1_experiment_rhs_value(tmp_path):
    out = tmp_path / "lemma1.csv"
    config = parse_config(
        f"experiment: lemma1\nseed: 3\ntrials: 500\nd_list: [1]\nm_list: [1]\ni_max: 30\nout_path: {out}\n"
    )
    report = run_experiment(config)
    assert report.header == "d,m,lhs,rhs,stderr,holds"
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert abs(float(rows[0]["rhs"]) - 0.666667) <= 1e-5
    assert rows[0]["holds"] == "true"


def test_theorem1_experiment_rows_and_slope(tmp_path):
    out = tmp_path / "t1.csv"
    config = parse_config(
        f"experiment: theorem1_scaling\nseed: 42\ntrials: 100\nd_list: [1]\nm_list: [16, 64, 256]\nout_path: {out}\n"
    )
    report = run_experiment(config)
    lines = out.read_text().splitlines()
    assert lines[0] == "d,m,mean,stderr,bound,trials"
    assert len(lines) == 1 + 3 + 1  # header, one per m, slope sentinel row
    assert lines[-1].split(",")[1] == "-1"
    assert -1.3 <= report.summary["slopes"]["1"] <= -0.7


def test_small_ball_experiment_schema(tmp_path):
    out = tmp_path / "sb.csv"
    config = parse_config(
        f"experiment: small_ball\nseed: 1\ntrials: 2000\nd_list: [1, 2]\ni_max: 5\nout_path: {out}\n"
    )
    report = run_experiment(config)
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 6
    assert report.assert_ok
    assert set(rows[0]) == {"d", "i", "radius", "empirical_mass", "bound", "holds"}


def test_adaptive_experiment_summary_fields(tmp_path):
    out = tmp_path / "ad.csv"
    config = parse_config(
        "experiment: adaptive_regression\nseed: 5\ntrials: 6\nepsilon: 0.6\nn: 256\n"
        f"max_iter: 60\nout_path: {out}\n"
    )
    report = run_experiment(config)
    assert report.header == "trial,label,truth,abs_err,iterations,samples_drawn,converged"
    assert 0.0 <= report.summary["success_rate"] <= 1.0
    assert len(report.rows) == 6
    line = summary_line(report)
    assert json.loads(line)["experiment"] == "adaptive_regression"


def test_kernel_kernel_experiment_runs(tmp_path):
    out = tmp_path / "kk.csv"
    config = parse_config(
        f"experiment: kernel_kernel_baseline\nseed: 2\ntrials: 4\nm: 8\nn: 64\nout_path: {out}\n"
    )
    report = run_experiment(config)
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {"trial", "estimate", "truth", "abs_err", "m", "n"}


def test_calibrate_experiment_trace(tmp_path):
    out = tmp_path / "cal.csv"
    config = parse_config(
        f"experiment: calibrate\nseed: 9\ntarget_err: 0.3\ntrials: 20\nout_path: {out}\n"
    )
    report = run_experiment(config)
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["passed"] == "true"
    assert int(rows[-1]["candidate_n"]) == report.summary["n"]


def _run_bytes(config_text, out_path, threads):
    old = os.environ.get("DISTREG_THREADS")
    os.environ["DISTREG_THREADS"] = str(threads)
    try:
        run_experiment(parse_config(config_text))
        return out_path.read_bytes()
    finally:
        if old is None:
            del os.environ["DISTREG_THREADS"]
        else:
            os.environ["DISTREG_THREADS"] = old


@pytest.mark.parametrize(
    "config_text",
    [
        "experiment: theorem1_scaling\nseed: 11\ntrials: 50\nd_list: [1]\nm_list: [16, 64]\nout_path: {out}\n",
        "experiment: adaptive_regression\nseed: 11\ntrials: 5\nepsilon: 0.6\nn: 128\nmax_iter: 40\nout_path: {out}\n",
    ],
)
def test_byte_identical_reruns_across_thread_counts(tmp_path, config_text):
    out = tmp_path / "det.csv"
    text = config_text.format(out=out)
    runs = [_run_bytes(text, out, threads) for threads in (1, 4, 1)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].count(b"\n") >= 2


def test_a_cell_that_is_not_a_bool_int_or_float_raises():
    """None used to be written as the CSV cell 'None'."""
    assert [experiments._fmt(v) for v in (True, 3, 0.25)] == ["true", "3", "0.25"]
    with pytest.raises(TypeError, match="CSV cell must be a bool, int or float, got None"):
        experiments._fmt(None)


def test_cli_main_runs_and_prints_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "out.csv"
    cfg.write_text(f"seed: 3\ntrials: 300\nd_list: [1]\nm_list: [1]\ni_max: 30\nout_path: {out}\n")
    code = main(["lemma1", "--config", str(cfg), "--assert"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["experiment"] == "lemma1"
    assert out.exists()
    # --assert makes a failed acceptance check exit 1: one draw per trial does not come within epsilon 0.01.
    cfg.write_text(f"trials: 2\nn: 16\nepsilon: 0.01\nmax_iter: 1\nout_path: {out}\n")
    assert main(["adaptive_regression", "--config", str(cfg), "--assert"]) == 1
    assert json.loads(capsys.readouterr().out)["converged_rate"] == 0.0


def test_cli_seed_and_out_overrides(tmp_path, capsys):
    out = tmp_path / "override.csv"
    code = main(["small_ball", "--seed", "99", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["seed"] == 99
    assert summary["out_path"] == str(out)


def test_help_lists_the_meta_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert (
        "meta defaults (the config's meta mapping): {base_width: 2.0, dim: 1, distance_scale: 1.0, "
        "family: uniform_location, hi: 1.0, label_fn: coordinate_sum, lipschitz_const: 1.0, lo: 0.0}\n"
    ) in capsys.readouterr().out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_cli_config_error_is_reported(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("trials: 0\n")
    code = main(["lemma1", "--config", str(cfg)])
    assert code == 2
    assert "error" in capsys.readouterr().err
    # A missing config, an --out in a missing directory and an --out that is a
    # directory fail before any work.
    for argv, message in [
        (["lemma1", "--config", str(tmp_path / "missing.yaml")], "cannot read config"),
        (["lemma1", "--out", str(tmp_path / "no_dir" / "out.csv")], "output directory does not exist"),
        (["lemma1", "--out", str(tmp_path)], "output path is a directory"),
        (["lemma1", "--seed", "-1", "--out", str(tmp_path / "range.csv")], "seed must be an integer >= 0, got -1"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
    assert not (tmp_path / "no_dir").exists()
    # A value of the wrong type is a config error, not a traceback or a silent cast.
    for text, message in [
        ("trials: abc\n", "trials must be int"),
        ("d_list: 3\n", "d_list must be a list of int"),
        ("trials: 2.7\n", "trials must be int"),
        ("meta: {dim: true}\n", "dim must be int"),
        ("meta: {lo: '0'}\n", "lo must be float"),
        ("meta: {dim: 2.0}\n", "dim must be int"),
        ("meta: {lo: .nan}\n", "finite lo <= hi"),
        ("[1, 2]\n", "config must be a mapping"),
        ("meta: [1]\n", "meta must be a mapping"),
        ("kernel: bogus\n", "unknown kernel: 'bogus'"),
    ]:
        cfg.write_text(text)
        assert main(["lemma1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
    # An out-of-range value is a config error before any work, not a traceback from inside the run.
    for experiment, text, message in [
        ("adaptive_regression", "meta: {dim: 4}\n", "dim <= 3 only"),
        ("kernel_kernel_baseline", "meta: {dim: 4}\n", "dim <= 3 only"),
        ("kernel_kernel_baseline", "meta: {dim: 0}\n", "dim must be an integer >= 1"),
        ("lemma1", "meta: {family: bogus}\n", "unknown family: 'bogus'"),
        ("kernel_kernel_baseline", "meta: {label_fn: bogus}\n", "unknown label_fn: 'bogus'"),
        ("kernel_kernel_baseline", "meta: {lipschitz_const: .inf}\n", "lipschitz_const must be finite and > 0"),
        ("small_ball", "meta: {hi: 0.0, distance_scale: .inf}\n", "distance_scale must be finite and > 0"),
        ("lemma1", "seed: -1\n", "seed must be an integer >= 0, got -1"),
        ("adaptive_regression", "n: 16\nepsilon: 1.0e-120\nmeta: {dim: 3}\n", "default max_iter"),
        ("small_ball", "d_list: [0]\n", "d_list must be a non-empty list of ints >= 1"),
        ("small_ball", "meta: {dim: 99}\n", "takes its dims from d_list"),
        ("lemma1", "meta: {dim: 1}\n", "takes its dims from d_list"),
        ("theorem1_scaling", "meta: {dim: 2}\n", "takes its dims from d_list"),
        ("theorem1_scaling", "d_list: []\n", "d_list must be a non-empty list of ints >= 1"),
        ("theorem1_scaling", "m_list: [16]\n", "m_list needs two distinct m, got [16]"),
        ("theorem1_scaling", "m_list: [16, 16]\n", "m_list needs two distinct m, got [16, 16]"),
        ("lemma1", "m_list: [0, 4]\n", "m_list must be a non-empty list of ints >= 1"),
        ("kernel_kernel_baseline", "m: 0\n", "m must be an integer >= 1"),
        ("adaptive_regression", "max_iter: -2\n", "max_iter must be an integer >= 1"),
        ("kernel_kernel_baseline", "h: 0\n", "h must be finite and > 0"),
        ("kernel_kernel_baseline", "h: .nan\n", "h must be finite and > 0"),
        ("adaptive_regression", "epsilon: -1\n", "epsilon must be finite and > 0"),
        ("adaptive_regression", "epsilon: .inf\n", "epsilon must be finite and > 0"),
        ("adaptive_regression", "epsilon: 100\n", "target_err must lie in (0, 2]"),
        ("adaptive_regression", "confidence: 0\n", "confidence must be finite and > 0, got 0"),
        ("adaptive_regression", "calibration_trials: 1\n", "trials must be an integer >= 2"),
        ("calibrate", "confidence: 1.5\n", "confidence must lie in (0, 1)"),
        ("calibrate", "trials: 1\n", "trials must be an integer >= 2"),
        ("calibrate", "target_err: 3\n", "target_err must lie in (0, 2]"),
        ("calibrate", "target_err: 0.0001\n", "below the grid resolution 0.00196"),
    ]:
        cfg.write_text(f"{text}out_path: {tmp_path / 'range.csv'}\n")
        assert main([experiment, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
    assert not (tmp_path / "range.csv").exists()
    # A worker count that is not a positive integer is an error, not one silent worker.
    for threads in ["abc", "0", "-3"]:
        monkeypatch.setenv("DISTREG_THREADS", threads)
        assert main(["lemma1", "--out", str(tmp_path / "threads.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: DISTREG_THREADS") and captured.out == ""
    assert not (tmp_path / "threads.csv").exists()


def test_cli_warns_when_calibration_is_capped(tmp_path, capsys, monkeypatch):
    """A capped calibration is reported on stderr; --assert still judges the trials alone."""
    from distreg import regression

    monkeypatch.setattr(regression, "CALIBRATION_N_MAX", 32)
    cfg = tmp_path / "capped.yaml"
    cfg.write_text(
        f"experiment: adaptive_regression\nseed: 3\ntrials: 4\nepsilon: 1.5\n"
        f"calibration_trials: 5\nout_path: {tmp_path / 'capped.csv'}\n"
    )
    assert main(["adaptive_regression", "--config", str(cfg), "--assert"]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["calibration_capped"] is True and summary["n"] == 32
    assert captured.err.startswith("warning: calibration hit the n = 32 cap")


@pytest.mark.parametrize("stem", ["calibrate", "lemma1", "small_ball", "theorem1_scaling"])
def test_shipped_config_reproduces_tracked_csv(stem, tmp_path):
    """The sub-second shipped configs regenerate results/<stem>.csv byte for byte."""
    out = tmp_path / f"{stem}.csv"
    code = main([stem, "--config", str(REPO / "scripts" / "configs" / f"{stem}.yaml"), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (REPO / "results" / f"{stem}.csv").read_bytes()
