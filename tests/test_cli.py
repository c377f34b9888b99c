"""CLI surface: config resolution, artifacts, determinism, error JSON."""
import json
import os
import shutil
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import agg
from agg import cli
from agg.adversarial import DiscriminatorConfig, GrammarOnlyConfig, TrainConfig
from agg.cli import DEFAULTS, TRAIN_DEFAULTS, build_parser, main, resolve_config
from agg.errors import ConfigError
from agg.nn import load_checkpoint, save_checkpoint

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
    for bad in ("iterations=true", "iterations=null", "lr0=NaN", "seed=-1", "d_channels=[1.5]"):
        with pytest.raises(ConfigError):
            resolve_config("train", None, [bad])


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
    for bad in (b'{"iterations": "3"}', b"\xff"):
        p.write_bytes(bad)
        with pytest.raises(ConfigError):
            resolve_config("train", str(p), [])


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
    assert list(report) == ["per_horizon", "metadata"]
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


def test_grammar_with_a_repeated_state_is_json_error(workdir):
    # the oracles would count the state twice and score against that
    spec = json.loads((workdir / "data" / "grammar.json").read_text())
    spec["states"].append(spec["states"][0])
    (workdir / "twice.json").write_text(json.dumps(spec))
    r = run_cli(["evaluate", "--set", "dataset=data/dataset.jsonl",
                 "--set", "grammar=twice.json", "--set", "out_dir=ev_twice"], workdir)
    assert _json_error(r)["error"] == "ParseError"
    assert len(r.stderr.strip().splitlines()) == 1
    assert not (workdir / "ev_twice").exists()


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


def test_checkpoint_with_an_unknown_parameter_is_json_error(workdir):
    # a run written while each rule still learned its terminal row holds
    # f_t.0.w; it would load with other tokens, so it is refused
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl",
                 "--set", "mode=grammar_only", "--set", "iterations=2",
                 "--set", "out_dir=old_run"], workdir)
    assert r.returncode == 0, r.stderr
    ckpt = workdir / "old_run" / "checkpoint.bin"
    state = load_checkpoint(str(ckpt))
    state["f_t.0.w"] = np.zeros((256, 3))
    save_checkpoint(str(ckpt), state)
    for argv in (["generate", "--set", "out_dir=old_gen"],
                 ["evaluate", "--set", "grammar=data/grammar.json",
                  "--set", "out_dir=old_eval"]):
        r = run_cli(argv + ["--set", "run_dir=old_run",
                            "--set", "dataset=data/dataset.jsonl"], workdir)
        err = _json_error(r)
        assert err["error"] == "ParseError" and "f_t.0.w" in err["message"]
        assert len(r.stderr.strip().splitlines()) == 1
    assert not (workdir / "old_gen").exists() and not (workdir / "old_eval").exists()


def test_generate_reads_each_rules_token_from_the_checkpoint(workdir):
    # a run directory holds its tokens: generate emits the checkpoint's, not
    # those the model seed would deal out
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl",
                 "--set", "mode=grammar_only", "--set", "iterations=2",
                 "--set", "out_dir=dealt_run"], workdir)
    assert r.returncode == 0, r.stderr
    ckpt = workdir / "dealt_run" / "checkpoint.bin"
    state = load_checkpoint(str(ckpt))
    state["emit"] = (state["emit"] + 1) % 3
    save_checkpoint(str(ckpt), state)
    r = run_cli(["generate", "--set", "run_dir=dealt_run", "--set", "dataset=data/dataset.jsonl",
                 "--set", "num_prefixes=3", "--set", "out_dir=dealt_gen"], workdir)
    assert r.returncode == 0, r.stderr
    rows = [json.loads(l) for l in
            (workdir / "dealt_gen" / "futures.jsonl").read_text().splitlines()]
    emit = state["emit"].astype(np.int64)
    assert all(row["terminals"] == emit[row["rule_indices"]].tolist() for row in rows)


def test_main_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "synth" in capsys.readouterr().out


def test_seed_env_variable_is_ignored(tmp_path):
    # AGG_SEED is no override: the configured seed and the artifacts stand
    argv = ["synth", "--set", "preset=bimodal", "--set", "num_sequences=10",
            "--set", "length=6", "--set", "seed=5", "--set", "out_dir=s"]
    for cwd, env in ((tmp_path / "env", {"AGG_SEED": "77"}), (tmp_path / "plain", None)):
        cwd.mkdir()
        r = run_cli(argv, cwd, env_extra=env)
        assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "env/s/config.json").read_text())["seed"] == 5
    for name in ("config.json", "dataset.jsonl", "grammar.json"):
        assert ((tmp_path / "env/s" / name).read_bytes()
                == (tmp_path / "plain/s" / name).read_bytes())


def _main_error(argv, capsys):
    """The error object of an in-process CLI run, which must return 1 and end
    stderr with a JSON object holding the error type and message."""
    capsys.readouterr()
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert isinstance(err, dict) and {"error", "message"} <= set(err)
    return err


@pytest.mark.parametrize("bad", [["num_sequences=-1"], ["num_sequences=0", "length=0"]])
def test_synth_rejects_bad_sizes(tmp_path, capsys, bad):
    argv = ["synth", "--set", f"out_dir={tmp_path / 's'}"]
    for item in bad:
        argv += ["--set", item]
    assert _main_error(argv, capsys)["error"] == "ParameterError"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("bad,error", [
    pytest.param("ngram=13", "ConfigError", id="ngram=13"),
    pytest.param("prefix_len=13", "ParameterError", id="prefix_len=13")])
def test_ablate_checks_lengths_before_training(tmp_path, capsys, monkeypatch, bad, error):
    # an n-gram longer than the sequences used to fail only when the first
    # arm was scored, after a whole adversarial training; a prefix longer
    # than the sequences is refused as train, generate and evaluate refuse it
    def refuse(*args, **kwargs):
        raise AssertionError("ablate trained before checking its lengths")

    monkeypatch.setattr(cli, "train_adversarial", refuse)
    monkeypatch.setattr(cli, "train_grammar_only", refuse)
    argv = ["ablate", "--set", "length=12", "--set", bad,
            "--set", f"out_dir={tmp_path / 'ablate'}"]
    err = _main_error(argv, capsys)
    assert err["error"] == error and bad.split("=")[0] in err["message"]
    assert not (tmp_path / "ablate").exists()


BUDGET_ERROR = {"error": "ResourceError",
                "message": "6^8 = 1679616 strings exceeds budget 1000000"}


def test_ablate_checks_ngram_budget_before_training(tmp_path, capsys, monkeypatch):
    # recipe's 6^8 8-grams are over the exact oracle's budget; that used to
    # fail only when the first arm was scored, after its training
    def refuse(*args, **kwargs):
        raise AssertionError("ablate trained before checking the n-gram budget")

    monkeypatch.setattr(cli, "_train", refuse)
    argv = ["ablate", "--set", "preset=recipe", "--set", "ngram=8",
            "--set", f"out_dir={tmp_path / 'ablate'}"]
    assert _main_error(argv, capsys) == BUDGET_ERROR
    assert not (tmp_path / "ablate").exists()


def test_evaluate_checks_ngram_budget_before_loading(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate loaded or sampled before checking the n-gram budget")

    data = tmp_path / "data"
    assert main(["synth", "--set", "preset=recipe", "--set", "num_sequences=20",
                 "--set", "length=8", "--set", f"out_dir={data}"]) == 0
    monkeypatch.setattr(cli, "_load_trained", refuse)
    monkeypatch.setattr(cli, "sample_model_futures", refuse)
    for run_dir in (tmp_path / "run", ""):               # a trained and an untrained model
        argv = ["evaluate", "--set", f"run_dir={run_dir}",
                "--set", f"dataset={data / 'dataset.jsonl'}",
                "--set", f"grammar={data / 'grammar.json'}",
                "--set", "ngram=8", "--set", "horizons=[8]",
                "--set", f"out_dir={tmp_path / 'ev'}"]
        assert _main_error(argv, capsys) == BUDGET_ERROR
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("preset,want", [({}, "1 1"),
                                         ({"OPENBLAS_NUM_THREADS": "2",
                                           "OMP_NUM_THREADS": "3"}, "2 3")],
                         ids=["unset", "already-set"])
def test_import_pins_blas_threads_unless_set(preset, want):
    # the `agg` command imports the package before numpy, so the setting
    # reaches OpenBLAS when numpy loads it
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(Path(agg.__file__).resolve().parents[1]))
    code = ("import os, agg; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == want


def test_pose_preset_is_config_error(workdir, tmp_path, capsys):
    # the model preset key is gone with its one value, "activity"
    data = workdir / "data"
    train = ["train", "--set", f"dataset={data / 'dataset.jsonl'}",
             "--set", "preset=pose", "--set", f"out_dir={tmp_path / 'run'}"]
    evaluate = ["evaluate", "--set", f"dataset={data / 'dataset.jsonl'}",
                "--set", f"grammar={data / 'grammar.json'}", "--set", "preset=pose",
                "--set", f"out_dir={tmp_path / 'ev'}"]
    for argv in (train, evaluate):
        err = _main_error(argv, capsys)
        assert err == {"error": "ConfigError",
                       "message": f"unknown config key 'preset' for {argv[0]!r}"}
    assert not (tmp_path / "run").exists() and not (tmp_path / "ev").exists()


def test_frames_dataset_is_parse_error(tmp_path, capsys):
    path = tmp_path / "frames.jsonl"
    path.write_text('{"frames": [[0.5, 1.0], [0.0, 2.0]]}\n')
    err = _main_error(["train", "--set", f"dataset={path}",
                       "--set", f"out_dir={tmp_path / 'run'}"], capsys)
    assert err["error"] == "ParseError" and "line 1" in err["message"]


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["zero-byte", "blank-lines"])
@pytest.mark.parametrize("extra", [[], ["num_classes=6"]], ids=["inferred", "num_classes"])
def test_train_on_empty_dataset_is_input_error(tmp_path, capsys, text, extra):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    argv = ["train", "--set", f"dataset={path}", "--set", f"out_dir={tmp_path / 'run'}"]
    for item in extra:
        argv += ["--set", item]
    err = _main_error(argv, capsys)
    assert err == {"error": "InputError", "message": "empty dataset"}
    assert not (tmp_path / "run").exists()


def test_train_reads_dataset_at_num_classes(workdir, tmp_path, capsys):
    # the bimodal data holds 3 tokens: a wider model trains on them, and a
    # narrower one is a parse error naming the line, before out_dir is made
    data = str(workdir / "data" / "dataset.jsonl")
    assert main(["train", "--set", f"dataset={data}", "--set", "num_classes=8",
                 "--set", "iterations=2", "--set", "d_channels=[4,6,4]",
                 "--set", f"out_dir={tmp_path / 'wide'}"]) == 0
    state = load_checkpoint(str(tmp_path / "wide" / "checkpoint.bin"))
    assert state["enc.conv1.w"].shape[1] == 8       # the encoder reads 8 classes
    assert json.loads((tmp_path / "wide" / "config.json").read_text())["num_classes"] == 8
    err = _main_error(["train", "--set", f"dataset={data}", "--set", "num_classes=2",
                       "--set", f"out_dir={tmp_path / 'narrow'}"], capsys)
    assert err["error"] == "ParseError" and err["message"].startswith("line ")
    assert not (tmp_path / "narrow").exists()


# ---------------------------------------------------------------------------
# fuzzed bad inputs: each must exit 1 with the JSON error object
# ---------------------------------------------------------------------------

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
GOOD_ROW = '{"tokens": [0, 1, 2, 0]}'
WORDS = st.text(string.ascii_letters, min_size=1, max_size=8)

BAD_ROWS = st.one_of(
    # continuous frames, which are not a record kind
    st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3), max_size=4)
    .map(lambda frames: json.dumps({"frames": frames})),
    # token lists holding at least one non-integer
    st.lists(st.one_of(st.integers(0, 2), st.floats(), WORDS, st.booleans(), st.none(),
                       st.lists(st.integers(0, 2), max_size=2)), min_size=1, max_size=4)
    .filter(lambda toks: not all(type(t) is int for t in toks))
    .map(lambda toks: json.dumps({"tokens": toks})),
    # negative tokens, and rows whose length differs from GOOD_ROW's
    st.lists(st.integers(-5, 2), min_size=4, max_size=4).filter(lambda t: min(t) < 0)
    .map(lambda toks: json.dumps({"tokens": toks})),
    st.lists(st.integers(0, 2), max_size=8).filter(lambda t: len(t) != 4)
    .map(lambda toks: json.dumps({"tokens": toks})),
    # text that is not a tokens record, and lines that are not UTF-8
    st.text(max_size=20).filter(lambda t: t.strip() and "tokens" not in t),
    st.sampled_from(['{"tokens": 3}', '{"tokens": null}', '{}', '[0, 1]', '{"tokens": []}']),
    st.binary(max_size=8).map(lambda b: b"\xff" + b),
)


@FUZZ
@given(bad=BAD_ROWS, good=st.integers(1, 3), at=st.integers(0, 3))
def test_fuzz_malformed_dataset_is_json_error(tmp_path_factory, capsys, bad, good, at):
    path = tmp_path_factory.getbasetemp() / "fuzz_dataset.jsonl"
    lines = [GOOD_ROW.encode()] * good
    lines.insert(min(at, good), bad if isinstance(bad, bytes) else bad.encode())
    path.write_bytes(b"\n".join(lines) + b"\n")
    err = _main_error(["train", "--set", f"dataset={path}", "--set", "iterations=1",
                       "--set", "d_channels=[4,6,4]",
                       "--set", f"out_dir={path.parent / 'fuzz_run'}"], capsys)
    assert err["error"] == "ParseError"


@pytest.fixture(scope="module")
def trained(workdir):
    """A grammar-only run to truncate the checkpoint of."""
    run = workdir / "fuzz_ckpt"
    assert main(["train", "--set", f"dataset={workdir / 'data' / 'dataset.jsonl'}",
                 "--set", "mode=grammar_only", "--set", "iterations=2",
                 "--set", f"out_dir={run}"]) == 0
    cut = workdir / "fuzz_cut"
    cut.mkdir()
    shutil.copy(run / "config.json", cut / "config.json")
    return (run / "checkpoint.bin").read_bytes(), cut


@FUZZ
@given(data=st.data())
def test_fuzz_truncated_checkpoint_is_json_error(workdir, trained, capsys, data):
    full, cut = trained
    size = data.draw(st.integers(0, len(full) - 1))
    (cut / "checkpoint.bin").write_bytes(full[:size])
    err = _main_error(["generate", "--set", f"run_dir={cut}",
                       "--set", f"dataset={workdir / 'data' / 'dataset.jsonl'}",
                       "--set", f"out_dir={cut / 'gen'}"], capsys)
    assert err["error"] == "ParseError"


INT_KEYS = [k for k, v in TRAIN_DEFAULTS.items() if type(v) is int]
FLOAT_KEYS = [k for k, v in TRAIN_DEFAULTS.items() if type(v) is float]
NOT_A_NUMBER = st.one_of(
    WORDS, st.sampled_from(["true", "false", "null", "1e999", "-1e999", "[1]", "{}", '"3"', ""]))
NOT_AN_INTEGER = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()).map(repr)
ENUMS = {"mode": ("adversarial", "grammar_only")}
POSITIVE = ["iterations", "batch_size", "prefix_len", "log_every"]

BAD_SETS = st.one_of(
    # unknown keys, and items without "="
    st.tuples(WORDS.filter(lambda k: k not in TRAIN_DEFAULTS).map(lambda k: f"{k}=1")),
    st.tuples(st.text(max_size=12).filter(lambda t: "=" not in t)),
    # numbers of the wrong type
    st.tuples(st.builds("{}={}".format, st.sampled_from(INT_KEYS + FLOAT_KEYS), NOT_A_NUMBER)),
    st.tuples(st.builds("{}={}".format, st.sampled_from(INT_KEYS), NOT_AN_INTEGER)),
    st.tuples(st.builds("{}={}".format, st.sampled_from(FLOAT_KEYS),
                        st.sampled_from(["NaN", "Infinity", "-Infinity"]))),
    st.tuples(st.builds("d_channels={}".format, st.sampled_from(
        ["3", "[]", "[0]", "[-4]", "[1.5]", "[true]", '["a"]', "null", "[[1]]"]))),
    # sizes out of range, negative seeds and unknown choices
    st.tuples(st.builds("{}={}".format, st.sampled_from(POSITIVE), st.integers(-3, 0))),
    st.builds(lambda k, v: ("mode=grammar_only", f"{k}={v}"),
              st.sampled_from(["k_cap", "max_paths"]), st.integers(-3, 0)),
    st.tuples(st.integers(-100, -1).map("seed={}".format)),
    st.sampled_from(sorted(ENUMS)).flatmap(
        lambda k: WORDS.filter(lambda v: v not in ENUMS[k]).map(lambda v: (f"{k}={v}",))),
)


# generate, evaluate and ablate counts below 1, and no horizons, which exit 1
# with a ConfigError before anything is loaded or trained (ngram=-1 used to
# hang evaluate, ngram=0 or horizons=[] to exit 0, prefix_len=-1 to drop the
# last prefix token, and ablate's num_seeds=0 to write a NaN median)
BAD_SIZES = st.one_of(
    st.builds(lambda k, v: ("generate", f"{k}={v}"),
              st.sampled_from(["k", "num_prefixes", "horizon", "prefix_len"]),
              st.integers(-3000, 0)),
    st.builds(lambda k, v: ("evaluate", f"{k}={v}"),
              st.sampled_from(["num_prefixes", "samples_per_prefix", "ngram",
                               "prefix_len"]),
              st.integers(-3000, 0)),
    st.builds(lambda v: ("evaluate", f"horizons=[4,{v}]"), st.integers(-3, 0)),
    st.just(("evaluate", "horizons=[]")),
    st.builds(lambda k, v: ("ablate", f"{k}={v}"),
              st.sampled_from(["ngram", "num_seeds", "num_prefixes",
                               "samples_per_prefix"]),
              st.integers(-3, 0)),
)


@FUZZ
@given(case=st.one_of(BAD_SETS.map(lambda items: ("train",) + items), BAD_SIZES))
@example(case=("evaluate", "ngram=-1"))
@example(case=("evaluate", "ngram=0"))
@example(case=("evaluate", "horizons=[]"))
@example(case=("ablate", "ngram=0"))
@example(case=("ablate", "num_seeds=0"))
@example(case=("generate", "prefix_len=-1"))
@example(case=("evaluate", "prefix_len=-1"))
def test_fuzz_bad_set_value_is_json_error(workdir, trained, tmp_path_factory, capsys,
                                          case):
    command, *items = case
    out = tmp_path_factory.getbasetemp() / "fuzz_set"
    data = workdir / "data"
    dataset = ["--set", f"dataset={data / 'dataset.jsonl'}"]
    argv = {"train": dataset + ["--set", "iterations=1", "--set", "d_channels=[4,6,4]"],
            "generate": dataset + ["--set", f"run_dir={workdir / 'fuzz_ckpt'}"],
            "evaluate": dataset + ["--set", f"run_dir={workdir / 'fuzz_ckpt'}",
                                   "--set", f"grammar={data / 'grammar.json'}"],
            "ablate": []}[command]
    argv = [command, "--set", f"out_dir={out}"] + argv
    err = _main_error(argv + [f"--set={item}" for item in items], capsys)
    if command != "train":
        assert err["error"] == "ConfigError"
        assert items[0].split("=")[0] in err["message"]


@pytest.mark.parametrize("argv", [["--set", "num_classes=10000000"],
                                  ["--set", "dataset=big12.jsonl"],
                                  ["--set", "dataset=big7.jsonl"]],
                         ids=["given", "inferred-1e12", "inferred-1e7"])
def test_num_classes_beyond_rule_bank_is_json_error(workdir, argv):
    # a token index sizes the model and the one-hot data; past the 256
    # rules it is refused before either is allocated
    (workdir / "big12.jsonl").write_text('{"tokens": [0, 1000000000000, 0, 0]}\n')
    (workdir / "big7.jsonl").write_text('{"tokens": [0, 10000000, 0, 0]}\n'
                                        '{"tokens": [0, 1, 2, 0]}\n')
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl", "--set", "iterations=1",
                 "--set", "out_dir=big_run"] + argv, workdir)
    err = _json_error(r)
    assert err["error"] == "ConfigError" and "num_classes" in err["message"]
    assert not (workdir / "big_run").exists()


@pytest.mark.parametrize("source", ["set", "config"])
def test_negative_num_classes_is_config_error(workdir, tmp_path, source):
    # refused before the dataset is read at that width, which would blame
    # the dataset, and before the run directory is made
    argv = ["train", "--set", "dataset=data/dataset.jsonl", "--set", "iterations=1",
            "--set", "out_dir=negative_run"]
    if source == "set":
        argv += ["--set", "num_classes=-1"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"num_classes": -1}))
        argv += ["--config", str(config)]
    r = run_cli(argv, workdir)
    err = _json_error(r)
    assert len(r.stderr.strip().splitlines()) == 1
    assert err["error"] == "ConfigError" and "num_classes" in err["message"]
    assert not (workdir / "negative_run").exists()


# ---------------------------------------------------------------------------
# a run directory's config.json, and out-of-range train values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({"seed": 0}),
    json.dumps(dict(TRAIN_DEFAULTS, num_classes="x")),
    json.dumps(dict(TRAIN_DEFAULTS, num_classes=3, topk_mask=True)),
    json.dumps(dict(TRAIN_DEFAULTS, num_classes=-1)),
], ids=["not-json", "missing-keys", "string-num_classes", "boolean-topk_mask",
        "negative-num_classes"])
def test_bad_run_config_is_json_error(workdir, trained, tmp_path, text):
    full, _ = trained
    (tmp_path / "config.json").write_text(text)
    (tmp_path / "checkpoint.bin").write_bytes(full)
    data = workdir / "data"
    generate = ["generate", "--set", f"run_dir={tmp_path}",
                "--set", f"dataset={data / 'dataset.jsonl'}",
                "--set", f"out_dir={tmp_path / 'gen'}"]
    evaluate = ["evaluate", "--set", f"run_dir={tmp_path}",
                "--set", f"dataset={data / 'dataset.jsonl'}",
                "--set", f"grammar={data / 'grammar.json'}",
                "--set", f"out_dir={tmp_path / 'ev'}"]
    for argv in (generate, evaluate):
        assert _json_error(run_cli(argv, workdir))["error"] == "ConfigError"


@pytest.mark.parametrize("bad", ["tau_end=-1", "ema_decay=2", "ema_decay=1", "lr0=-1"])
def test_out_of_range_train_value_is_json_error(workdir, tmp_path, bad):
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl", "--set", "iterations=1",
                 "--set", "d_channels=[4,6,4]", "--set", bad,
                 "--set", f"out_dir={tmp_path / 'run'}"], workdir)
    err = _json_error(r)
    assert err["error"] == "ParameterError"
    assert bad.split("=")[0] in err["message"]


@pytest.mark.parametrize("bad", ["lr0=-1", "lr0=-1e-9"])
def test_out_of_range_grammar_only_value_is_json_error(workdir, tmp_path, bad):
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl", "--set", "iterations=1",
                 "--set", "mode=grammar_only", "--set", bad,
                 "--set", f"out_dir={tmp_path / 'run'}"], workdir)
    err = _json_error(r)
    assert err["error"] == "ParameterError"
    assert bad.split("=")[0] in err["message"]


@pytest.mark.parametrize("command", ["generate", "evaluate", "evaluate-untrained"])
def test_prefixes_are_read_with_the_model_alphabet(workdir, trained, tmp_path, capsys,
                                                   command):
    data = workdir / "data"

    def argv(dataset):
        out = ["--set", f"dataset={dataset}", "--set", f"out_dir={tmp_path / 'out'}"]
        if command != "evaluate-untrained":
            out += ["--set", f"run_dir={workdir / 'fuzz_ckpt'}"]
        if command != "generate":
            out += ["--set", f"grammar={data / 'grammar.json'}"]
        return [command.split("-")[0]] + out

    # a token past the model's 3 classes is refused with its line, before a
    # one-hot array is sized by it
    big = tmp_path / "big.jsonl"
    big.write_text('{"tokens": [0, 1, 2, 0, 1, 2, 0, 1]}\n'
                   '{"tokens": [0, 1000000000000, 0, 0, 0, 0, 0, 0]}\n')
    err = _main_error(argv(big), capsys)
    assert err["error"] == "ParseError" and "line 2" in err["message"]
    # rows that never use the top class still encode at the model's width
    low = tmp_path / "low.jsonl"
    low.write_text('{"tokens": [0, 0, 1, 1, 0, 0, 1, 1]}\n' * 12)
    assert main(argv(low)) == 0


@pytest.mark.parametrize("command", ["train", "generate", "evaluate"])
def test_prefix_longer_than_the_data_is_one_error(workdir, trained, tmp_path, capsys,
                                                  command):
    # a prefix_len past the dataset's length 8 gets train's error in every
    # command, and nothing is written
    data = workdir / "data"
    argv = [command, "--set", f"dataset={data / 'dataset.jsonl'}", "--set", "prefix_len=9",
            "--set", f"out_dir={tmp_path / 'out'}"]
    argv += {"train": ["--set", "iterations=1"],
             "generate": ["--set", f"run_dir={workdir / 'fuzz_ckpt'}"],
             "evaluate": ["--set", f"run_dir={workdir / 'fuzz_ckpt'}",
                          "--set", f"grammar={data / 'grammar.json'}"]}[command]
    err = _main_error(argv, capsys)
    assert err == {"error": "ParameterError", "message": "prefix_len exceeds sequence length"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "evaluate", "evaluate-untrained"])
def test_generate_evaluate_on_empty_dataset_is_input_error(workdir, trained, tmp_path,
                                                           capsys, command):
    # a dataset with no records, as synth writes it for num_sequences=0
    assert main(["synth", "--set", "preset=bimodal", "--set", "num_sequences=0",
                 "--set", f"out_dir={tmp_path / 'data'}"]) == 0
    argv = [command.split("-")[0], "--set", f"dataset={tmp_path / 'data' / 'dataset.jsonl'}",
            "--set", f"out_dir={tmp_path / 'out'}"]
    if command != "evaluate-untrained":
        argv += ["--set", f"run_dir={workdir / 'fuzz_ckpt'}"]
    if command != "generate":
        argv += ["--set", f"grammar={tmp_path / 'data' / 'grammar.json'}"]
    err = _main_error(argv, capsys)
    assert err == {"error": "InputError", "message": "empty dataset"}
    assert not (tmp_path / "out").exists()


# train keys that were removed along with the one value every run used; a run
# directory written before then still holds them in its config.json
REMOVED_TRAIN_KEYS = {"policy": "sample_hard", "d_steps_per_g_step": 1,
                      "generator_loss_variant": "non_saturating", "checkpoint_every": 0,
                      "preset": "activity", "kernel_width": 5, "stride": 4,
                      "momentum": 0.9, "tau": 1.0, "d_lr_scale": 1.0}
REMOVED_EVALUATE_KEYS = {"preset": "activity", "eps": 1e-6}


@pytest.mark.parametrize("key", sorted(REMOVED_TRAIN_KEYS))
def test_removed_train_key_is_config_error(workdir, tmp_path, capsys, key):
    argv = ["train", "--set", f"dataset={workdir / 'data' / 'dataset.jsonl'}",
            "--set", "iterations=1", "--set", f"out_dir={tmp_path / 'run'}"]
    err = _main_error(argv + ["--set", f"{key}={REMOVED_TRAIN_KEYS[key]}"], capsys)
    assert err["error"] == "ConfigError" and key in err["message"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: REMOVED_TRAIN_KEYS[key]}))
    err = _main_error(argv + ["--config", str(config)], capsys)
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not (tmp_path / "run").exists()


# one bad setting each, with the error it gets; each is refused before the
# run directory is made
REFUSED_TRAIN = [
    (["lr0=-1"], "ParameterError"),
    (["log_every=0"], "ParameterError"),
    (["ema_decay=1"], "ParameterError"),
    (["d_channels=[]"], "ParameterError"),
    (["mode=bogus"], "ConfigError"),
    (["prefix_len=20"], "ParameterError"),
    (["mode=grammar_only", "k_cap=0"], "ParameterError"),
]


@pytest.mark.parametrize("bad, error", REFUSED_TRAIN,
                         ids=[" ".join(s) for s, _ in REFUSED_TRAIN])
def test_refused_train_makes_no_run_directory(workdir, tmp_path, capsys, bad, error):
    argv = ["train", "--set", f"dataset={workdir / 'data' / 'dataset.jsonl'}",
            "--set", "iterations=1", "--set", f"out_dir={tmp_path / 'run'}"]
    for item in bad:
        argv += ["--set", item]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == error, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bad", ["ema_decay=5", "d_channels=[]"])
def test_grammar_only_refuses_bad_adversarial_keys(workdir, tmp_path, capsys, bad):
    # config.json records every trainer key, so both modes check them all
    errors = {}
    for mode in ("adversarial", "grammar_only"):
        out = tmp_path / mode
        errors[mode] = _main_error(
            ["train", "--set", f"dataset={workdir / 'data' / 'dataset.jsonl'}",
             "--set", "iterations=1", "--set", f"mode={mode}", "--set", bad,
             "--set", f"out_dir={out}"], capsys)
        assert not out.exists()
    assert errors["grammar_only"] == errors["adversarial"]
    assert errors["adversarial"]["error"] == "ParameterError"


class _Built(Exception):
    """Raised by a stand-in trainer once it holds the configs train built."""


def test_train_defaults_are_the_trainer_dataclass_defaults(workdir, tmp_path, monkeypatch):
    # each trainer setting is declared once, in its dataclass: a train run
    # that sets no trainer key builds the dataclasses' own defaults
    built = {}

    def adversarial(dataset, model, disc, config):
        built["adversarial"] = (config, disc.config)
        raise _Built

    def grammar_only(dataset, model, config):
        built["grammar_only"] = config
        raise _Built

    monkeypatch.setattr(cli, "train_adversarial", adversarial)
    monkeypatch.setattr(cli, "train_grammar_only", grammar_only)
    for mode in ("adversarial", "grammar_only"):
        with pytest.raises(_Built):
            main(["train", "--set", f"dataset={workdir / 'data' / 'dataset.jsonl'}",
                  "--set", f"mode={mode}", "--set", f"out_dir={tmp_path / mode}"])
    assert built == {"adversarial": (TrainConfig(), DiscriminatorConfig()),
                     "grammar_only": GrammarOnlyConfig()}


def test_removed_grammar_only_key_is_config_error(workdir, tmp_path, capsys):
    # grammar-only runs took momentum too
    argv = ["train", "--set", f"dataset={workdir / 'data' / 'dataset.jsonl'}",
            "--set", "mode=grammar_only", "--set", "iterations=1",
            "--set", "momentum=0.9", "--set", f"out_dir={tmp_path / 'run'}"]
    err = _main_error(argv, capsys)
    assert err["error"] == "ConfigError" and "momentum" in err["message"]
    assert not (tmp_path / "run").exists()


def test_train_config_json_lists_no_removed_key(workdir, trained):
    config = json.loads((workdir / "fuzz_ckpt" / "config.json").read_text())
    assert "lr0" in config and "tau_end" in config
    assert not set(REMOVED_TRAIN_KEYS) & set(config)


@pytest.mark.parametrize("key", sorted(REMOVED_EVALUATE_KEYS))
def test_removed_evaluate_key_is_config_error(workdir, tmp_path, capsys, key):
    data = workdir / "data"
    argv = ["evaluate", "--set", f"run_dir={workdir / 'fuzz_ckpt'}",
            "--set", f"dataset={data / 'dataset.jsonl'}",
            "--set", f"grammar={data / 'grammar.json'}", "--set", f"out_dir={tmp_path / 'ev'}"]
    err = _main_error(argv + ["--set", f"{key}={REMOVED_EVALUATE_KEYS[key]}"], capsys)
    assert err == {"error": "ConfigError", "message": f"unknown config key {key!r} for 'evaluate'"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: REMOVED_EVALUATE_KEYS[key]}))
    err = _main_error(argv + ["--config", str(config)], capsys)
    assert err == {"error": "ConfigError", "message": f"unknown config key {key!r} for 'evaluate'"}
    assert not (tmp_path / "ev").exists()


def test_evaluate_checks_ngram_against_horizons_first(workdir, tmp_path, capsys,
                                                      monkeypatch):
    # an n-gram longer than the shortest horizon used to fail only when that
    # horizon was scored, after the model was loaded and every future sampled
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate loaded or sampled before checking ngram")

    monkeypatch.setattr(cli, "_load_trained", refuse)
    monkeypatch.setattr(cli, "sample_model_futures", refuse)
    data = workdir / "data"
    err = _main_error(["evaluate", "--set", f"run_dir={workdir / 'fuzz_ckpt'}",
                       "--set", f"dataset={data / 'dataset.jsonl'}",
                       "--set", f"grammar={data / 'grammar.json'}",
                       "--set", "ngram=5", "--set", "horizons=[4,12]",
                       "--set", f"out_dir={tmp_path / 'ev'}"], capsys)
    assert err == {"error": "ConfigError",
                   "message": "ngram 5 exceeds the shortest horizon 4"}
    assert not (tmp_path / "ev").exists()


def test_run_dir_with_removed_keys_still_loads(workdir, trained, tmp_path):
    run = workdir / "fuzz_ckpt"
    old = tmp_path / "old_run"
    old.mkdir()
    config = json.loads((run / "config.json").read_text())
    (old / "config.json").write_text(json.dumps(dict(config, **REMOVED_TRAIN_KEYS)))
    shutil.copy(run / "checkpoint.bin", old / "checkpoint.bin")
    data = workdir / "data"
    for command, extra, artifact in (
            ("generate", [], "futures.jsonl"),
            ("evaluate", ["--set", f"grammar={data / 'grammar.json'}"], "report.json")):
        outs = []
        for run_dir in (run, old):
            out = tmp_path / f"{command}_{run_dir.name}"
            assert main([command, "--set", f"run_dir={run_dir}",
                         "--set", f"dataset={data / 'dataset.jsonl'}",
                         "--set", f"out_dir={out}"] + extra) == 0
            outs.append(out / artifact)
        if command == "evaluate":          # the report names its run directory
            reports = [json.loads(p.read_text()) for p in outs]
            assert reports[0]["per_horizon"] == reports[1]["per_horizon"]
        else:
            assert outs[0].read_bytes() == outs[1].read_bytes()
