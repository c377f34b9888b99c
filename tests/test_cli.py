"""CLI surface: config resolution, artifacts, determinism, error JSON."""
import json

import numpy as np
import pytest

from agg.cli import DEFAULTS, build_parser, main, resolve_config
from agg.errors import ConfigError

from helpers import run_cli


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # one tiny synth dataset shared by the command tests
    path = tmp_path_factory.mktemp("cli")
    r = run_cli(["synth", "--set", "preset=bimodal", "--set", "num_sequences=60",
                 "--set", "length=8", "--set", "out_dir=data"], path)
    assert r.returncode == 0, r.stderr
    return path


def test_resolve_defaults_and_overrides():
    cfg = resolve_config("train", None, ["iterations=7", "lr0=0.5",
                                         "d_channels=[4,6,4]"])
    assert cfg["iterations"] == 7 and cfg["lr0"] == 0.5
    assert cfg["d_channels"] == [4, 6, 4]
    assert cfg["batch_size"] == DEFAULTS["train"]["batch_size"]


def test_resolve_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError):
        resolve_config("train", None, ["nope=1"])
    with pytest.raises(ConfigError):
        resolve_config("train", None, ["iterations"])
    with pytest.raises(ConfigError):
        resolve_config("train", None, ["iterations=abc"])


def test_resolve_config_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"iterations": 3}))
    cfg = resolve_config("train", str(p), ["iterations=9"])
    assert cfg["iterations"] == 9  # --set wins over file
    p.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ConfigError):
        resolve_config("train", str(p), [])
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        resolve_config("train", str(p), [])
    with pytest.raises(ConfigError):
        resolve_config("train", str(tmp_path / "missing.json"), [])


def test_agg_seed_env_override(monkeypatch):
    monkeypatch.setenv("AGG_SEED", "123")
    assert resolve_config("synth", None, ["seed=5"])["seed"] == 123
    monkeypatch.setenv("AGG_SEED", "xyz")
    with pytest.raises(ConfigError):
        resolve_config("synth", None, [])


def test_help_lists_every_key():
    parser = build_parser()
    for command, defaults in DEFAULTS.items():
        sub = next(a for a in parser._subparsers._group_actions[0].choices.items()
                   if a[0] == command)[1]
        text = sub.format_help()
        for key, value in defaults.items():
            assert key in text, (command, key)
            assert json.dumps(value) in text, (command, key)


def test_synth_artifacts(workdir):
    assert (workdir / "data" / "dataset.jsonl").exists()
    assert (workdir / "data" / "grammar.json").exists()
    cfg = json.loads((workdir / "data" / "config.json").read_text())
    assert cfg["preset"] == "bimodal" and cfg["num_sequences"] == 60


def test_train_generate_evaluate_pipeline(workdir):
    train_args = ["train", "--set", "dataset=data/dataset.jsonl",
                  "--set", "iterations=10", "--set", "d_channels=[4,6,4]",
                  "--set", "log_every=5", "--set", "out_dir=run"]
    r = run_cli(train_args, workdir)
    assert r.returncode == 0, r.stderr
    lines = (workdir / "run" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iteration,d_loss,g_loss,d_accuracy,lr"
    assert lines[1].startswith("0,") and lines[-1].startswith("9,")
    assert (workdir / "run" / "checkpoint.bin").exists()
    resolved = json.loads((workdir / "run" / "config.json").read_text())
    assert resolved["num_classes"] == 3  # inferred and persisted

    r = run_cli(["generate", "--set", "run_dir=run",
                 "--set", "dataset=data/dataset.jsonl", "--set", "k=2",
                 "--set", "num_prefixes=3", "--set", "horizon=4",
                 "--set", "out_dir=gen"], workdir)
    assert r.returncode == 0, r.stderr
    rows = [json.loads(l) for l in
            (workdir / "gen" / "futures.jsonl").read_text().splitlines()]
    assert len(rows) == 6
    assert {"prefix_index", "sample_index", "rule_indices", "log_prob",
            "terminals"} <= set(rows[0])
    assert len(rows[0]["terminals"]) == 4

    r = run_cli(["evaluate", "--set", "run_dir=run",
                 "--set", "dataset=data/dataset.jsonl",
                 "--set", "grammar=data/grammar.json",
                 "--set", "horizons=[8]", "--set", "num_prefixes=20",
                 "--set", "out_dir=ev"], workdir)
    assert r.returncode == 0, r.stderr
    report = json.loads((workdir / "ev" / "report.json").read_text())
    assert "8" in report["per_horizon"]


def test_evaluate_untrained_model_kl_large(workdir):
    # harness sanity: an untrained model is far from the data distribution
    r = run_cli(["evaluate", "--set", "dataset=data/dataset.jsonl",
                 "--set", "grammar=data/grammar.json",
                 "--set", "horizons=[8]", "--set", "num_prefixes=30",
                 "--set", "out_dir=ev0"], workdir)
    assert r.returncode == 0, r.stderr
    report = json.loads((workdir / "ev0" / "report.json").read_text())
    assert report["per_horizon"]["8"] > 0.5
    assert report["metadata"]["model"] == "untrained"


def test_train_determinism_byte_identical(workdir):
    args = ["train", "--set", "dataset=data/dataset.jsonl",
            "--set", "iterations=8", "--set", "d_channels=[4,6,4]",
            "--set", "seed=11"]
    r1 = run_cli(args + ["--set", "out_dir=rep"], workdir)
    first_csv = (workdir / "rep" / "metrics.csv").read_bytes()
    first_ckpt = (workdir / "rep" / "checkpoint.bin").read_bytes()
    r2 = run_cli(args + ["--set", "out_dir=rep"], workdir)
    assert r1.returncode == r2.returncode == 0
    assert (workdir / "rep" / "metrics.csv").read_bytes() == first_csv
    assert (workdir / "rep" / "checkpoint.bin").read_bytes() == first_ckpt


def test_grammar_only_mode(workdir):
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl",
                 "--set", "mode=grammar_only", "--set", "iterations=6",
                 "--set", "out_dir=go"], workdir)
    assert r.returncode == 0, r.stderr
    lines = (workdir / "go" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iteration,nll,lr"


def test_error_json_and_exit_codes(workdir):
    r = run_cli(["train", "--set", "dataset=missing.jsonl"], workdir)
    assert r.returncode == 1
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] and err["message"]
    r = run_cli(["train", "--set", "bogus=1"], workdir)
    assert r.returncode == 1
    assert json.loads(r.stderr.strip().splitlines()[-1])["error"] == "ConfigError"
    r = run_cli(["synth", "--set", "preset=unknown"], workdir)
    assert r.returncode == 1


def _json_error(r):
    """The error object of a failed CLI run, which must not print a traceback."""
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] and err["message"]
    return err


@pytest.mark.parametrize("bad", ["k_cap=0", "max_paths=0", "prefix_len=20",
                                 "log_every=0"])
def test_grammar_only_bad_config_is_json_error(workdir, bad):
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl",
                 "--set", "mode=grammar_only", "--set", "iterations=2",
                 "--set", bad, "--set", "out_dir=go_bad"], workdir)
    err = _json_error(r)
    assert err["error"] == "ParameterError"
    assert bad.split("=")[0] in err["message"]


def test_non_numeric_dataset_row_is_json_error(workdir):
    (workdir / "bad.jsonl").write_text('{"tokens": [0, 1, 2]}\n{"tokens": [0, 1, "x"]}\n')
    r = run_cli(["train", "--set", "dataset=bad.jsonl", "--set", "out_dir=bad_run"],
                workdir)
    err = _json_error(r)
    assert err["error"] == "ParseError" and "line 2" in err["message"]


def test_truncated_checkpoint_is_json_error(workdir):
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl",
                 "--set", "mode=grammar_only", "--set", "iterations=2",
                 "--set", "out_dir=cut"], workdir)
    assert r.returncode == 0, r.stderr
    ckpt = workdir / "cut" / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:30])
    r = run_cli(["generate", "--set", "run_dir=cut",
                 "--set", "dataset=data/dataset.jsonl", "--set", "out_dir=cut_gen"],
                workdir)
    assert _json_error(r)["error"] == "ParseError"


def test_main_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "synth" in capsys.readouterr().out


def test_seed_env_changes_artifacts(workdir):
    r = run_cli(["synth", "--set", "preset=bimodal", "--set", "num_sequences=10",
                 "--set", "length=6", "--set", "out_dir=s_env"], workdir,
                env_extra={"AGG_SEED": "77"})
    assert r.returncode == 0, r.stderr
    cfg = json.loads((workdir / "s_env" / "config.json").read_text())
    assert cfg["seed"] == 77
