"""Self-test of the benchmark's output checks: each check is fed a corrupted
output and the operation must be counted as failed, while the same output
uncorrupted passes.

    python3 -m pytest -q perfbench/test_checks.py
"""
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import agg  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from agg.synthdata import build_preset_grammar, sample_dataset, save_dataset  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402


class _Params:
    def __init__(self, **values):
        self.values = values

    def named_parameters(self):
        return {k: agg.autodiff.Tensor(v) for k, v in self.values.items()}


class _FakeTraining(workloads._Training):
    """Feeds the real segment loop the given losses and final parameters."""

    loss_keys = ("loss",)

    def __init__(self, losses, final=1.0):
        super().__init__(seed=0, workdir=None)
        self.losses, self.final, self.segment = losses, final, len(losses)

    def build(self):
        return (_Params(w=np.array([self.final])),)

    def train(self, models, on_row, end_iteration):
        for it, loss in enumerate(self.losses):
            on_row({"iteration": it, "loss": loss})
            end_iteration()


def test_training_counts_nan_loss_as_failed():
    tally = checks.Tally()
    ops, _ = _FakeTraining([0.5, float("nan"), 0.25]).run(tally)
    assert (len(ops), tally.attempted, tally.failed) == (3, 3, 1)
    tally = checks.Tally()
    _FakeTraining([0.5, 0.4, 0.25]).run(tally)
    assert (tally.attempted, tally.failed) == (3, 0)


def test_training_counts_nonfinite_final_parameter_as_failed():
    tally = checks.Tally()
    _FakeTraining([0.5, 0.4], final=math.inf).run(tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_training_counts_trainer_exception_as_failed():
    class Raising(_FakeTraining):
        def train(self, models, on_row, end_iteration):
            raise agg.errors.ParameterError("non-finite loss at iteration 0")

    tally = checks.Tally()
    Raising([0.5]).run(tally)
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.fixture
def cli(tmp_path):
    wl = workloads.RecipeCli(seed=0, workdir=str(tmp_path))
    for out in wl.out.values():
        os.makedirs(out)
    return wl


def _request(wl, kind, code=0, err=""):
    tally = checks.Tally()
    checks.checked(tally, lambda: (code, err), lambda r: wl._check(kind, *r, {}))
    return tally.failed


def _write_futures(wl, bad_index=None):
    rows = []
    for i in range(wl.NUM_PREFIXES * wl.K):
        rows.append({"prefix_index": i // wl.K, "sample_index": i % wl.K,
                     "rule_indices": [i % wl.num_rules] * workloads.LENGTH,
                     "log_prob": -1.5})
    if bad_index is not None:
        rows[7]["rule_indices"][3] = bad_index
    with open(os.path.join(wl.out["generate"], "futures.jsonl"), "w") as f:
        f.write("".join(json.dumps(r) + "\n" for r in rows))


def test_generate_out_of_range_rule_index_fails(cli):
    _write_futures(cli)
    assert _request(cli, "generate") == 0
    _write_futures(cli, bad_index=cli.num_rules)
    assert _request(cli, "generate") == 1
    _write_futures(cli, bad_index=-1)
    assert _request(cli, "generate") == 1


def test_generate_nonzero_exit_fails(cli):
    _write_futures(cli)
    assert _request(cli, "generate", code=1, err='{"error": "ConfigError"}') == 1


def _write_report(wl, values):
    with open(os.path.join(wl.out["evaluate"], "report.json"), "w") as f:
        json.dump({"per_horizon": dict(zip(map(str, wl.HORIZONS), values))}, f)


def test_evaluate_bad_kl_fails(cli):
    _write_report(cli, [0.1, 0.2, 0.3])
    assert _request(cli, "evaluate") == 0
    for bad in (float("nan"), -0.01, float("inf")):
        _write_report(cli, [0.1, bad, 0.3])
        assert _request(cli, "evaluate") == 1
    _write_report(cli, [0.1, 0.2])
    assert _request(cli, "evaluate") == 1


def test_synth_bad_dataset_fails(cli):
    cli.NUM_SEQUENCES = 2000
    dataset = sample_dataset(build_preset_grammar("recipe"), 2000, workloads.LENGTH, seed=1)
    path = os.path.join(cli.out["synth"], "dataset.jsonl")
    save_dataset(path, dataset)
    assert _request(cli, "synth") == 0
    lines = open(path).read().splitlines()
    row = json.loads(lines[5])
    row["tokens"][0] = cli.grammar.num_tokens          # outside the alphabet
    open(path, "w").write("\n".join(lines[:5] + [json.dumps(row)] + lines[6:]) + "\n")
    assert _request(cli, "synth") == 1
    open(path, "w").write("\n".join(lines[:-1]) + "\n")  # one sequence short
    assert _request(cli, "synth") == 1
    # right shape and alphabet, wrong law: every sequence the same
    open(path, "w").write("\n".join([lines[0]] * 2000) + "\n")
    assert _request(cli, "synth") == 1


def test_ngram_kl_matches_agg_metrics():
    grammar = build_preset_grammar("recipe")
    tokens = np.stack(sample_dataset(grammar, 300, workloads.LENGTH, seed=2).records)
    oracle = agg.synthdata.exact_ngram_distribution(grammar, 3, workloads.LENGTH)
    assert checks.ngram_kl(tokens, oracle, 3, grammar.num_tokens) == pytest.approx(
        agg.metrics.ngram_kl(tokens, grammar, 3, workloads.LENGTH), rel=1e-9)


def test_request_exception_fails():
    tally = checks.Tally()

    def boom():
        raise ValueError("traceback from the program")

    checks.checked(tally, boom, lambda r: None)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_fail_last_counts_an_operation_once():
    tally = checks.Tally()
    tally.record("bad row")
    tally.fail_last("bad parameters")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tracer_restores_every_patch():
    targets = [(agg.autodiff, "_node"), (agg.autodiff, "backward"),
               (agg.nn.SGD, "step"), (agg.grammar.GrammarModel, "rule_tables"),
               (agg.cli, "main"), (agg.synthdata, "sample_sequence")]
    before = [getattr(o, a) for o, a in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            instrument(tracer, agg)
            assert all(getattr(o, a) is not b for (o, a), b in zip(targets, before))
            raise RuntimeError("traced code raised")
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
