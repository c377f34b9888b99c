"""CLI surface: config resolution, artifacts, determinism, error JSON."""
import json
import shutil
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from agg.cli import DEFAULTS, TRAIN_DEFAULTS, build_parser, main, resolve_config
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


def test_agg_seed_env_override(monkeypatch):
    monkeypatch.setenv("AGG_SEED", "123")
    assert resolve_config("synth", None, ["seed=5"])["seed"] == 123
    for bad in ("xyz", "-3"):
        monkeypatch.setenv("AGG_SEED", bad)
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


def test_pose_preset_is_config_error(workdir, tmp_path, capsys):
    data = workdir / "data"
    train = ["train", "--set", f"dataset={data / 'dataset.jsonl'}",
             "--set", "preset=pose", "--set", f"out_dir={tmp_path / 'run'}"]
    evaluate = ["evaluate", "--set", f"dataset={data / 'dataset.jsonl'}",
                "--set", f"grammar={data / 'grammar.json'}", "--set", "preset=pose",
                "--set", f"out_dir={tmp_path / 'ev'}"]
    for argv in (train, evaluate):
        err = _main_error(argv, capsys)
        assert err["error"] == "ConfigError" and "pose" in err["message"]


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
ENUMS = {"mode": ("adversarial", "grammar_only"), "preset": ("activity",),
         "policy": ("sample_hard", "sample_soft", "greedy"),
         "generator_loss_variant": ("non_saturating", "saturating")}
POSITIVE = ["iterations", "batch_size", "prefix_len", "log_every", "d_steps_per_g_step",
            "kernel_width", "stride"]

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
@example(case=("evaluate", "prefix_len=99"))      # the dataset's length is 8
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


# ---------------------------------------------------------------------------
# a run directory's config.json, and out-of-range train values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({"seed": 0}),
    json.dumps(dict(TRAIN_DEFAULTS, num_classes="x")),
    json.dumps(dict(TRAIN_DEFAULTS, num_classes=3, topk_mask=True)),
], ids=["not-json", "missing-keys", "string-num_classes", "boolean-topk_mask"])
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


@pytest.mark.parametrize("bad", ["tau=0", "tau_end=-1", "ema_decay=2", "ema_decay=1",
                                 "d_lr_scale=-1", "lr0=-1", "momentum=-1", "momentum=1"])
def test_out_of_range_train_value_is_json_error(workdir, tmp_path, bad):
    r = run_cli(["train", "--set", "dataset=data/dataset.jsonl", "--set", "iterations=1",
                 "--set", "d_channels=[4,6,4]", "--set", bad,
                 "--set", f"out_dir={tmp_path / 'run'}"], workdir)
    err = _json_error(r)
    assert err["error"] == "ParameterError"
    assert bad.split("=")[0] in err["message"]


@pytest.mark.parametrize("bad", ["lr0=-1", "lr0=-1e-9", "momentum=-1", "momentum=1",
                                 "momentum=1.5"])
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
