"""The whole-array samplers, the n-gram counter, generate's futures, the
whole-array dataset loader, the one-node unroll and the one-node likelihood
beam against literal per-row or per-op references: the same seeded draws
must give the same arrays, values, gradients and bytes, and the same input
the same error. The rule chain sampler's law is also checked against full
enumeration."""
import contextlib
import io
import itertools
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agg import adversarial, cli, metrics
from agg import autodiff as ad
from agg.autodiff import Tensor
from agg.adversarial import (EMISSION_FLOOR, Discriminator, DiscriminatorConfig,
                             GrammarOnlyConfig, TrainConfig, generator_loss, train_adversarial,
                             train_grammar_only)
from agg.errors import ParameterError, ParseError
from agg.grammar import (GrammarConfig, GrammarModel, _softmax_kept, _top_mask,
                         activity_config, gumbel_softmax)
from agg.metrics import EvalReport, empirical_ngram_distribution, kl_divergence
from agg.synthdata import (GroundTruthGrammar, SequenceDataset, _saved_tokens,
                           build_preset_grammar, exact_ngram_distribution, load_dataset,
                           load_grammar, sample_dataset, sample_sequence, sample_sequences,
                           save_dataset)

from helpers import (expand, gather_nd, mask_logits, ref_rule_logits, rel_err, seed_probs,
                     stack_time, straight_through, sum_along)

SEEDS = (0, 1, 7, 123)
LENGTHS = (1, 2, 5, 12)


def ref_sample_sequence(grammar, length, rng):
    """One rng.choice per token."""
    out = np.empty(length, dtype=np.int64)
    state = grammar.start
    for j in range(length):
        entries = grammar._out[state]
        probs = np.asarray([p for _, _, p in entries])
        i = int(rng.choice(len(entries), p=probs / probs.sum()))
        tok, state, _ = entries[i]
        out[j] = tok
    return out


def ref_rule_probs(model, n):
    """GrammarModel.rule_probs as the softmax of the per-op masked logits."""
    with ad.no_grad():
        return ad.softmax(ref_rule_logits(model, n)).value


def ref_sample_rule_paths(model, n0, length, num_samples, seed=0):
    """Gather each path's kept columns of its probability row, cumsum them
    and compare every step."""
    rng = np.random.default_rng(seed)
    n0 = np.asarray(n0, dtype=np.float64)
    tables = model.rule_tables()
    kept0 = model.rule_tables(n0).kept[model.config.num_rules:]
    kept0 = np.repeat(kept0, num_samples, axis=0)
    p0 = np.repeat(ref_rule_probs(model, n0), num_samples, axis=0)
    N = p0.shape[0]
    rows = np.arange(N)
    paths = np.empty((N, length), dtype=np.int64)
    cum = np.cumsum(np.take_along_axis(p0, kept0, axis=-1), axis=-1)
    cum[:, -1] = 1.0
    idx = kept0[rows, (cum < rng.random((N, 1))).sum(axis=-1)]
    paths[:, 0] = idx
    for j in range(1, length):
        kept = tables.kept[idx]
        cum = np.cumsum(np.take_along_axis(tables.probs_all[idx], kept, axis=-1), axis=-1)
        cum[:, -1] = 1.0
        idx = kept[rows, (cum < rng.random((N, 1))).sum(axis=-1)]
        paths[:, j] = idx
    return paths


class _Uniforms:
    """Stands in for np.random.default_rng(seed): random(shape) serves the
    given values in order, as a Generator serves its stream."""

    def __init__(self, values):
        self.values, self.at = np.asarray(values, dtype=np.float64).ravel(), 0

    def random(self, shape):
        n = int(np.prod(shape))
        self.at += n
        return self.values[self.at - n:self.at].reshape(shape)


def _doctor_chain(model, probs_all):
    """Make model.rule_tables read the (R, R) law probs_all as its chain's;
    the seed rows it appends stay the model's own."""
    own = model.rule_tables

    def rule_tables(n0=None):
        tables = own(n0)
        return tables._replace(probs_all=np.concatenate(
            [probs_all, tables.probs_all[len(probs_all):]]))

    model.rule_tables = rule_tables


def ref_empirical_ngram_distribution(samples, n, num_tokens):
    samples = np.asarray(samples)
    counts = {}
    windows = samples.shape[1] - n + 1
    for j in range(windows):
        grams = samples[:, j:j + n]
        for row in map(tuple, grams):
            counts[row] = counts.get(row, 0) + 1
    total = samples.shape[0] * windows
    return {g: c / total for g, c in counts.items()}


def ref_ngram_kl(samples, oracle, n, horizon):
    """The n-gram KL of the samples from its parts: the exact oracle's
    n-gram law at the horizon, the samples' window frequencies, and the
    smoothed KL over every n-gram of the oracle's tokens."""
    support = list(itertools.product(range(oracle.num_tokens), repeat=n))
    return kl_divergence(exact_ngram_distribution(oracle, n, horizon),
                         empirical_ngram_distribution(samples, n, oracle.num_tokens), support)


def presets():
    yield GroundTruthGrammar(["W", "U", "V"], ["walking", "stopping", "running"], "W",
                             [("W", "walking", "W", 0.5), ("W", "stopping", "U", 0.3),
                              ("W", "running", "V", 0.2), ("U", "stopping", "U", 1.0),
                              ("V", "running", "V", 1.0)])
    yield build_preset_grammar("bimodal")
    yield build_preset_grammar("recipe")
    for seed in range(4):
        yield build_preset_grammar("random", seed=seed, n_states=6, n_tokens=5)


def fan_grammar(probs):
    """State A emits token i with probability probs[i] and moves to Z."""
    tokens = [f"t{i}" for i in range(len(probs))]
    rules = [("A", t, "Z", float(p)) for t, p in zip(tokens, probs)]
    return GroundTruthGrammar(["A", "Z"], tokens, "A", rules + [("Z", "t0", "Z", 1.0)])


def test_sample_dataset_equals_choice_loop():
    for g in presets():
        for seed in SEEDS:
            for length in LENGTHS:
                rng = np.random.default_rng(seed)
                want = np.stack([ref_sample_sequence(g, length, rng) for _ in range(40)])
                got = sample_dataset(g, 40, length, seed=seed)
                assert np.array_equal(np.stack(got.records), want)
                # both consumed the same stretch of the stream
                rest = np.random.default_rng(seed).random(40 * length + 1)[-1]
                assert rng.random() == rest


def uneven_grammar(seed=0):
    """State S{i} has i + 1 rules, so the cdf rows of S0..S2 are padded with
    inf out to the four of S3; every state stays reachable through S0."""
    rng = np.random.default_rng(seed)
    states, tokens = [f"S{i}" for i in range(4)], [f"t{i}" for i in range(3)]
    rules = []
    for i, state in enumerate(states):
        probs = rng.dirichlet(np.ones(i + 1))
        for r, p in enumerate(probs):
            rules.append((state, tokens[(i + r) % 3], states[(i + 1 + r) % 4], float(p)))
    return GroundTruthGrammar(states, tokens, "S0", rules)


@pytest.mark.parametrize("grammar", [
    *(fan_grammar(np.random.default_rng(k).dirichlet(np.ones(k))) for k in range(1, 6)),
    uneven_grammar(0), uneven_grammar(1)],
    ids=[f"fan{k}" for k in range(1, 6)] + ["uneven0", "uneven1"])
def test_sample_dataset_equals_choice_loop_beyond_presets(grammar):
    # the column sampler at every out-degree, and with padded cdf rows
    for seed in SEEDS:
        for length in LENGTHS:
            rng = np.random.default_rng(seed)
            want = np.stack([ref_sample_sequence(grammar, length, rng) for _ in range(40)])
            got = sample_dataset(grammar, 40, length, seed=seed)
            assert np.array_equal(got.records, want)
            # both consumed the same stretch of the stream
            rest = np.random.default_rng(seed).random(40 * length + 1)[-1]
            assert rng.random() == rest


def test_sample_sequence_equals_choice_loop():
    for g in presets():
        for seed in SEEDS:
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for length in LENGTHS:
                assert np.array_equal(sample_sequence(g, length, a),
                                      ref_sample_sequence(g, length, b))
            assert a.random() == b.random()


def test_sampler_tie_takes_the_next_rule_as_choice_does():
    # u equal to a cdf entry: choice's searchsorted(side="right") moves past it
    u = np.random.default_rng(0).random()
    g = fan_grammar([u, 1.0 - u])
    assert np.cumsum(np.array([u, 1.0 - u]))[0] == u          # an exact tie
    want = ref_sample_sequence(g, 1, np.random.default_rng(0))
    assert want.tolist() == [1]
    assert sample_dataset(g, 1, 1, seed=0).records[0].tolist() == [1]


def test_sampler_cdf_is_renormalized_as_choice_does():
    # these weights put u between cdf[0] and cdf[0] / cdf[-1]
    u = np.random.default_rng(0).random()
    probs = np.array([0.6369616873214546, 0.1846286965535474, 0.17840961612499828])
    cdf = np.cumsum(probs / probs.sum())
    assert cdf[0] <= u < cdf[0] / cdf[-1]
    g = fan_grammar(probs)
    want = ref_sample_sequence(g, 1, np.random.default_rng(0))
    assert want.tolist() == [0]
    assert sample_dataset(g, 1, 1, seed=0).records[0].tolist() == [0]


def test_sample_rule_paths_equals_gather_reference():
    n0 = np.random.default_rng(0).normal(size=(30, 64))
    for topk in (4, None):
        model = GrammarModel(activity_config(6, topk_mask=topk), seed=3)
        for seed in SEEDS[:2]:
            for length in LENGTHS:
                got, _ = model.sample_rule_paths(n0, length, 5, seed=seed)
                want = ref_sample_rule_paths(model, n0, length, 5, seed=seed)
                assert np.array_equal(got, want)


def test_sample_rule_paths_tie_keeps_the_lower_rule():
    # a step-1 uniform equal to a cumulative probability selects that rule
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=6), seed=8)
    u = np.random.default_rng(0).random(2)[1]
    probs_all = np.zeros((6, 6))
    probs_all[:, 0], probs_all[:, 1] = u, 1.0 - u
    _doctor_chain(model, probs_all)
    n0 = np.ones((1, 8))
    want = ref_sample_rule_paths(model, n0, 2, 1, seed=0)
    assert want[0, 1] == 0
    assert np.array_equal(model.sample_rule_paths(n0, 2, 1, seed=0)[0], want)


def test_sample_rule_paths_at_cdf_boundaries(monkeypatch):
    # rows with zero columns before, between and after their nonzero ones,
    # one summing to 0.75, and uniforms exactly on cumulative values, at 0
    # and in (0.75, 1); each step must take searchsorted's "left" answer
    R = 6
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=R), seed=8)
    probs_all = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                          [0.0, 0.25, 0.0, 0.0, 0.5, 0.25],
                          [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                          [0.5, 0.0, 0.0, 0.25, 0.0, 0.0],
                          [0.25, 0.0, 0.25, 0.0, 0.25, 0.25],
                          [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    _doctor_chain(model, probs_all)
    # every seed state's rule law is exactly [0, 0.5, 0, 0.5, 0, 0]
    model.w_r.value[...] = 0.0
    model.b_r.value[...] = -np.inf
    model.b_r.value[[1, 3]] = np.log(0.5)
    # (step-0 u, step-1 u) per path
    u = np.array([[0.0, 0.0], [0.0, 0.3], [0.5, 0.0], [0.5, 0.2], [0.5, 0.25],
                  [0.5, 0.5], [0.5, 0.75], [0.5, 0.9], [0.7, 0.5], [0.7, 0.6],
                  [0.7, 0.75], [0.7, 0.8], [0.7, 0.999], [0.25, 0.0], [0.9, 0.3]])
    want = [[0, 0], [0, 5], [1, 0], [1, 1], [1, 1], [1, 4], [1, 4], [1, 5], [3, 0],
            [3, 3], [3, 3], [3, 5], [3, 5], [1, 0], [3, 0]]
    # the same answers from searchsorted over each full cumulative row
    p0 = seed_probs(model, np.zeros((1, 8)))[0]
    for (u0, u1), (r0, r1) in zip(u, want):
        cum0, cum1 = np.cumsum(p0), np.cumsum(probs_all[r0])
        cum0[-1] = cum1[-1] = 1.0
        assert (cum0.searchsorted(u0), cum1.searchsorted(u1)) == (r0, r1)
    n0 = np.zeros((len(u), 8))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Uniforms(u.T))
    assert model.sample_rule_paths(n0, 2, 1)[0].tolist() == want
    assert ref_sample_rule_paths(model, n0, 2, 1).tolist() == want


def test_sample_rule_paths_draws_only_kept_rules(monkeypatch):
    # under a top-2 mask: u = 0 at seed rows whose column 0 is dropped, and
    # u = 0.9 above chain rows' kept totals, doctored to 0.75, whose last
    # kept column is not the last rule; every draw must be a kept rule
    R = 6
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=R,
                                       topk_mask=2), seed=0)
    n0 = np.random.default_rng(0).normal(size=(6, 8))
    kept = model.rule_tables(n0).kept
    _doctor_chain(model, 0.75 * model.rule_tables().probs_all)
    u = np.array(list(itertools.product([0.0, 0.5], [0.0, 0.9])) * len(n0))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Uniforms(u.T))
    paths, logp = model.sample_rule_paths(n0, 2, 4)
    assert (kept[R:, 0] > 0).any() and (kept[paths[:, 0], -1] < R - 1).any()
    states = np.c_[R + np.repeat(np.arange(len(n0)), 4), paths[:, 0]]
    assert (kept[states] == paths[..., None]).any(axis=-1).all()
    assert (logp > np.log(1e-300)).all()
    assert ref_sample_rule_paths(model, n0, 2, 4).tolist() == paths.tolist()


def test_empirical_ngram_equals_tuple_counter():
    rng = np.random.default_rng(0)
    cases = [rng.integers(0, a, size=(200, h)) for a in (1, 2, 6) for h in (3, 12)]
    cases.append(np.stack(sample_dataset(build_preset_grammar("recipe"), 300, 12,
                                         seed=1).records))
    for samples in cases:
        for n in (1, 2, 3):
            got = empirical_ngram_distribution(samples, n, 6)
            want = ref_empirical_ngram_distribution(samples, n, 6)
            assert got == want
            assert list(got) == sorted(want)


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory):
    """Adversarial runs on recipe data with topk_mask 4 and 0 (no mask)."""
    root = tmp_path_factory.mktemp("generate")
    data = root / "data"
    assert _quiet_main(["synth", "--set", "preset=recipe", "--set", "num_sequences=50",
                        "--set", f"out_dir={data}"]) == 0
    runs = {}
    for topk in (4, 0):
        runs[topk] = root / f"run{topk}"
        assert _quiet_main(["train", "--set", f"dataset={data / 'dataset.jsonl'}",
                            "--set", "iterations=4", "--set", "d_channels=[4,6,4]",
                            "--set", f"topk_mask={topk}", "--set", "seed=2",
                            "--set", f"out_dir={runs[topk]}"]) == 0
    return data / "dataset.jsonl", runs


# ---------------------------------------------------------------------------
# agg generate: the table sampler's paths and their step-ordered log_prob
# ---------------------------------------------------------------------------

def ref_path_log_probs(model, n0, paths, num_samples):
    """Each path's log_prob, summed step by step over the probabilities of
    its rules: the seed state's rule law at step 0, then probs_all rows."""
    probs_all = model.rule_tables().probs_all
    p0 = ref_rule_probs(model, n0)
    p = np.empty(paths.shape)
    p[:, 0] = np.repeat(p0, num_samples, axis=0)[np.arange(len(paths)), paths[:, 0]]
    p[:, 1:] = probs_all[paths[:, :-1], paths[:, 1:]]
    logs = np.log(np.maximum(p, 1e-300))
    logp = np.zeros(len(paths))
    for j in range(paths.shape[1]):
        logp += logs[:, j]
    return logp


@pytest.mark.parametrize("topk", [4, 0])
@pytest.mark.parametrize("horizon", [1, 12])
@pytest.mark.parametrize("seed", [0, 5])
def test_generate_equals_gather_reference(trained_runs, tmp_path, topk, horizon, seed):
    dataset, runs = trained_runs
    cfg = dict(cli.GENERATE_DEFAULTS, run_dir=str(runs[topk]), dataset=str(dataset),
               k=3, horizon=horizon, num_prefixes=7, seed=seed, out_dir=str(tmp_path))
    argv = ["generate"] + [f"--set={key}={value}" for key, value in cfg.items()]
    assert _quiet_main(argv) == 0
    model, _ = cli._load_trained(cfg["run_dir"])
    X = load_dataset(cfg["dataset"], alphabet_size=model.config.d_terminal).one_hot(
        cfg["num_prefixes"], cfg["prefix_len"])
    with ad.no_grad():
        n0 = model.encode_start(X).value
    k = cfg["k"]
    paths = ref_sample_rule_paths(model, n0, horizon, k, seed=seed)
    logp = ref_path_log_probs(model, n0, paths, k)
    want = "".join(json.dumps({
        "prefix_index": n // k, "sample_index": n % k, "rule_indices": path.tolist(),
        "log_prob": lp, "terminals": model.emit[path].tolist()}) + "\n"
        for n, (path, lp) in enumerate(zip(paths, logp.tolist())))
    got = (tmp_path / "futures.jsonl").read_text()
    assert got == want and got.count("\n") == 21


@pytest.mark.parametrize("topk", [None, 2])
def test_sample_rule_paths_law_equals_enumeration(topk):
    # every path of a 6-rule chain at L = 3: each sampled log_prob is the
    # log of its enumerated probability, and the sampled law is close to it
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=6,
                                       topk_mask=topk), seed=8)
    n0 = np.random.default_rng(1).normal(size=(1, 8))
    exact = {tuple(s.rule_indices): (s.log_prob, q)
             for s, q in model.enumerate_all(n0, 3, k_cap=6)}
    assert len(exact) == 6 ** 3 and abs(sum(q for _, q in exact.values()) - 1.0) < 1e-12
    N = 10 ** 5
    paths, logp = model.sample_rule_paths(n0, 3, N, seed=0)
    rows, counts = np.unique(paths, axis=0, return_counts=True)
    freq = dict(zip(map(tuple, rows.tolist()), counts / N))
    for path, lp in zip(map(tuple, paths.tolist()), logp.tolist()):
        assert abs(lp - exact[path][0]) < 1e-12
    tv = 0.5 * sum(abs(freq.get(path, 0.0) - q) for path, (_, q) in exact.items())
    assert tv < 0.03


def test_sample_rule_paths_checks_its_sizes():
    model = GrammarModel(activity_config(6), seed=0)
    n0 = np.zeros((2, 64))
    for length, num_samples in ((0, 3), (4, 0), (-1, 3), (4, -2)):
        with pytest.raises(ParameterError):
            model.sample_rule_paths(n0, length, num_samples)
    paths, logp = model.sample_rule_paths(n0, 1, 3)
    assert paths.shape == (6, 1) and logp.shape == (6,)


def _masked_chain(k, R=11, seed=0):
    """An R-rule model under a top-k mask whose chain rows are doctored:
    row r holds random weights at its own k kept columns, its first or last
    kept entry may be 0, and it sums to 1 or 0.75. The seed rows stay the
    model's."""
    rng = np.random.default_rng(seed)
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=R,
                                       topk_mask=k), seed=seed)
    kept = model.rule_tables().kept
    p = rng.random(kept.shape) + 0.01
    p[:, [0, -1]] *= rng.random((R, 2)) < 0.5
    for row in p:
        if row.sum():
            row *= rng.choice([1.0, 0.75]) / row.sum()
    probs_all = np.zeros((R, R))
    np.put_along_axis(probs_all, kept, p, axis=1)
    _doctor_chain(model, probs_all)
    return model


def _assert_paths_match(model, n0, num_samples, seed):
    for length in (1, 6):
        paths, logp = model.sample_rule_paths(n0, length, num_samples, seed=seed)
        want = ref_sample_rule_paths(model, n0, length, num_samples, seed=seed)
        assert np.array_equal(paths, want)
        assert logp.tobytes() == ref_path_log_probs(model, n0, want, num_samples).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 9, 11])
def test_sample_rule_paths_equals_reference_at_every_width(k):
    # every depth of the binary search over a state's k kept rules, and
    # probes past a row's last slot, which the clamp sends back to it
    model = _masked_chain(k)
    n0 = np.random.default_rng(k).normal(size=(5, 8))
    assert model.rule_tables(n0).kept.shape == (16, k)
    _assert_paths_match(model, n0, 200, seed=k)


@pytest.mark.parametrize("R,topk", [(1, None), (7, None), (7, 3)])
def test_sample_rule_paths_equals_reference_on_small_banks(R, topk):
    # one rule (k = 1: no search step), and an odd bank whose rows are all
    # kept (k = R) or masked to 3 rules
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=R,
                                       topk_mask=topk), seed=R)
    n0 = np.random.default_rng(R).normal(size=(4, 8))
    assert model.rule_tables(n0).kept.shape[1] == (R if topk is None else 3)
    _assert_paths_match(model, n0, 100, seed=3)


def ref_write_futures(out_path, paths, logp, emit, k):
    """generate's futures.jsonl writer, one line at a time."""
    with open(out_path, "w") as f:
        for n, (path, lp) in enumerate(zip(paths.tolist(), logp.tolist())):
            f.write('{"prefix_index": %d, "sample_index": %d, "rule_indices": %s, '
                    '"log_prob": %s, "terminals": %s}\n'
                    % (n // k, n % k, path, json.dumps(lp), emit[path].tolist()))


@pytest.mark.parametrize("horizon", [1, 5])
def test_generate_writer_equals_per_line_writer(trained_runs, tmp_path, monkeypatch,
                                                horizon):
    # log_prob whose reprs take exponent form, and -0.0
    dataset, runs = trained_runs
    rng = np.random.default_rng(horizon)
    k, num_prefixes = 3, 7
    paths = rng.integers(0, 256, (num_prefixes * k, horizon))
    logp = rng.choice([-1e-05, -5e-324, -0.0, -1e+16, -12.5, -1 / 3, -7e-300],
                      size=len(paths))
    logp[:2] = -1e-05, -5e-324           # each exponent form at least once
    monkeypatch.setattr(GrammarModel, "sample_rule_paths",
                        lambda self, n0, length, num_samples, seed=0, start=None:
                        (paths, logp))
    assert _quiet_main(["generate", f"--set=run_dir={runs[4]}", f"--set=dataset={dataset}",
                        f"--set=k={k}", f"--set=horizon={horizon}",
                        f"--set=num_prefixes={num_prefixes}",
                        f"--set=out_dir={tmp_path / 'gen'}"]) == 0
    ref_write_futures(tmp_path / "want.jsonl", paths, logp,
                      cli._load_trained(str(runs[4]))[0].emit, k)
    got = (tmp_path / "gen" / "futures.jsonl").read_text()
    assert got == (tmp_path / "want.jsonl").read_text()
    assert got.count("\n") == len(paths) and "e-05" in got and "5e-324" in got


def _prefix_cases():
    """(name, one-hot prefixes (B, 4, 6), distinct rows): all equal, all
    distinct, and a few distinct rows repeated in shuffled order."""
    rng = np.random.default_rng(0)
    eye = np.eye(6)
    codes = rng.permutation(6 ** 4)[:40]
    distinct = eye[np.stack([codes // 6 ** k % 6 for k in range(4)], axis=1)]
    yield "one", distinct[:1], 1
    yield "two equal", distinct[[3, 3]], 1
    yield "all equal", distinct[[5] * 50], 1
    yield "two distinct", distinct[[4, 9]], 2
    yield "all distinct", distinct, 40
    yield "mixed", distinct[rng.choice([0, 7, 8, 21, 39], 200)], 5
    yield "mixed, one repeated", distinct[np.r_[np.arange(10), [2] * 30][rng.permutation(40)]], 10
    for seed in (1, 2, 3):
        # the CLI's case: recipe's first 1000 four-token prefixes
        dataset = sample_dataset(build_preset_grammar("recipe"), 1000, 12, seed=seed)
        yield f"recipe seed {seed}", dataset.one_hot(1000, 4), 7


@pytest.mark.parametrize("topk", [4, None])
@pytest.mark.parametrize("case", list(_prefix_cases()), ids=lambda case: case[0])
def test_sample_prefix_paths_equals_sampling_every_prefix(monkeypatch, topk, case):
    # each distinct prefix is encoded and seeded once, and the paths and
    # log_prob are those of the gather reference on every prefix's encoding
    _, X, num_distinct = case
    model = GrammarModel(activity_config(6, topk_mask=topk), seed=len(X))
    with ad.no_grad():
        n0 = model.encode_start(X).value
    encoded = []
    encode_start = GrammarModel.encode_start
    monkeypatch.setattr(GrammarModel, "encode_start",
                        lambda self, x: encoded.append(len(x)) or encode_start(self, x))
    for length, k, seed in ((1, 3, 0), (6, 10, 5)):
        paths, logp = model.sample_prefix_paths(X, length, k, seed=seed)
        want = ref_sample_rule_paths(model, n0, length, k, seed=seed)
        assert np.array_equal(paths, want)
        assert logp.tobytes() == ref_path_log_probs(model, n0, want, k).tobytes()
    # a lone distinct row among several is encoded twice: numpy multiplies a
    # one-row batch by gemv, which rounds otherwise than the batched gemm
    assert encoded == [2 if num_distinct == 1 < len(X) else num_distinct] * 2


# ---------------------------------------------------------------------------
# agg evaluate: one sample set at the longest horizon against one per horizon
# ---------------------------------------------------------------------------

def ref_sample_model_futures(model, prefixes, horizon, num_samples_per_prefix=1, seed=0):
    """Encode, sample with the gather reference, then take each sampled
    rule's token."""
    prefixes = np.asarray(prefixes, dtype=np.float64)
    with ad.no_grad():
        n0 = model.encode_start(prefixes).value
    paths = ref_sample_rule_paths(model, n0, horizon, num_samples_per_prefix, seed=seed)
    return model.emit[paths]


def ref_evaluate(cfg, path):
    """The per-horizon loop of cmd_evaluate: every horizon sampled from
    scratch with the same seed. Writes the report to path."""
    grammar = load_grammar(cfg["grammar"])
    dataset = load_dataset(cfg["dataset"])
    if cfg["run_dir"]:
        model, _ = cli._load_trained(cfg["run_dir"])
        model_id = cfg["run_dir"]
    else:
        model = GrammarModel(cli._grammar_config(grammar.num_tokens, 4), seed=cfg["seed"])
        model_id = "untrained"
    X = dataset.one_hot(cfg["num_prefixes"], cfg["prefix_len"])
    per_horizon = {}
    for h in sorted(cfg["horizons"]):
        samples = ref_sample_model_futures(model, X, h,
                                           num_samples_per_prefix=cfg["samples_per_prefix"],
                                           seed=cfg["seed"])
        per_horizon[h] = ref_ngram_kl(samples, grammar, cfg["ngram"], h)
    report = EvalReport(per_horizon=per_horizon,
                        metadata={"model": model_id, "dataset": cfg["dataset"],
                                  "seed": cfg["seed"], "ngram": cfg["ngram"]})
    with open(path, "w") as f:
        f.write(report.to_json() + "\n")


@pytest.mark.parametrize("model", ["topk4", "topk0", "untrained"])
@pytest.mark.parametrize("ngram", [1, 2, 3])
@pytest.mark.parametrize("horizons", [[4, 8, 12], [12], [8, 4, 8]])
def test_evaluate_equals_sampling_per_horizon(trained_runs, tmp_path, model, ngram,
                                              horizons):
    dataset, runs = trained_runs
    run_dir = {"topk4": str(runs[4]), "topk0": str(runs[0]), "untrained": ""}[model]
    cfg = dict(cli.EVALUATE_DEFAULTS, run_dir=run_dir, dataset=str(dataset),
               grammar=str(dataset.parent / "grammar.json"), ngram=ngram,
               horizons=horizons, num_prefixes=30, seed=ngram, out_dir=str(tmp_path))
    argv = ["evaluate"] + [f"--set={key}={json.dumps(value) if key == 'horizons' else value}"
                           for key, value in cfg.items()]
    assert _quiet_main(argv) == 0
    ref_evaluate(cfg, tmp_path / "ref.json")
    got = (tmp_path / "report.json").read_bytes()
    assert got == (tmp_path / "ref.json").read_bytes()
    assert list(json.loads(got)["per_horizon"]) == [str(h) for h in sorted(set(horizons))]


@pytest.mark.parametrize("preset", ["bimodal", "recipe"])
@pytest.mark.parametrize("ngram,horizons", [(1, [8, 4, 8]), (2, [8, 4, 8]), (4, [8, 4, 8]),
                                            (1, [1, 12]), (3, [3]), (3, [12, 4, 5])])
@pytest.mark.parametrize("wide", [False, True])
def test_ngram_kl_by_horizon_equals_ngram_kl_per_horizon(preset, ngram, horizons, wide):
    # one count of the windows against the n-gram KL from its parts at each
    # horizon, and ngram_kl against the same at the longest; a wide
    # sample holds tokens past the oracle's alphabet, as a model trained on
    # more classes than the oracle emits them
    grammar = build_preset_grammar(preset)
    rng = np.random.default_rng(ngram)
    H = max(horizons)
    samples = sample_sequences(grammar, 300, H + 2, rng)
    if wide:
        samples[rng.random(samples.shape) < 0.1] = grammar.num_tokens + 1
    got = metrics.ngram_kl_by_horizon(samples, grammar, ngram, horizons)
    want = {h: ref_ngram_kl(samples[:, :h], grammar, ngram, h) for h in sorted(set(horizons))}
    assert got == want and list(got) == list(want)
    assert metrics.ngram_kl(samples[:, :H], grammar, ngram, H) == want[H]
    with pytest.raises(ParameterError):
        metrics.ngram_kl_by_horizon(samples, grammar, min(horizons) + 1, horizons)
    with pytest.raises(ParameterError):
        metrics.ngram_kl_by_horizon(samples[:, :H - 1], grammar, ngram, horizons)


# ---------------------------------------------------------------------------
# load_dataset: the whole-array loader against the per-line loader
# ---------------------------------------------------------------------------

def ref_token_row(obj, lineno):
    """obj["tokens"] as a non-empty 1-d int64 array, or ParseError when it has
    another shape or an element is not an integer. JSON booleans are not
    integers."""
    try:
        row = np.asarray(obj["tokens"])
    except ValueError as e:                 # ragged nesting
        raise ParseError(f"line {lineno}: tokens is not a rectangular list") from e
    if row.ndim != 1:
        raise ParseError(f"line {lineno}: tokens must be a 1-d list")
    if row.size == 0:
        raise ParseError(f"line {lineno}: tokens must not be empty")
    # numpy turns JSON true/false mixed with numbers into 1/0; reject them
    if row.dtype.kind not in "iu" or bool in set(map(type, obj["tokens"])):
        raise ParseError(f"line {lineno}: tokens must hold only integers")
    return row.astype(np.int64, copy=False)


def ref_load_dataset(path, alphabet_size=None):
    """One json.loads and one numpy row per line, every check on that row."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})") from e
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {lineno}: invalid JSON ({e})") from e
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: record must be a JSON object")
        if "tokens" not in obj:
            raise ParseError(f"line {lineno}: record needs 'tokens'")
        row = ref_token_row(obj, lineno)
        if alphabet_size is not None and row.max() >= alphabet_size:
            raise ParseError(
                f"line {lineno}: token {int(row.max())} >= alphabet "
                f"size {alphabet_size}")
        if np.any(row < 0):
            raise ParseError(f"line {lineno}: negative token index")
        if records and len(row) != len(records[0]):
            raise ParseError(f"line {lineno}: inconsistent sequence length")
        records.append(row)
    if not records:
        return SequenceDataset(records=np.zeros((0, 0), dtype=np.int64), length=0,
                               alphabet_size=alphabet_size or 0)
    toks = np.stack(records)
    if alphabet_size is None:
        alphabet_size = int(toks.max()) + 1
    return SequenceDataset(records=toks, length=toks.shape[1], alphabet_size=alphabet_size)


def _tokens(values, size):
    return st.lists(values, min_size=size, max_size=size).map(
        lambda toks: json.dumps({"tokens": toks}))


GOOD_LINE = _tokens(st.integers(0, 5), 4)
BAD_LINE = st.one_of(
    st.sampled_from(["not json", "{", '{"tokens": [0, 1', "[0, 1, 2, 3]", "7", '"x"',
                     "null", "{}", '{"other": [0, 1, 2, 3]}', '{"tokens": 3}',
                     '{"tokens": "0123"}', '{"tokens": {"a": 1}}', '{"tokens": null}',
                     '{"tokens": []}', '{"tokens": [[0], [1, 2], [3], [0]]}',
                     '{"tokens": [[0], [1], [2], [3]]}', '{"tokens": [0, 1.5, 2, 3]}',
                     '{"tokens": [0, 1.0, 2, 3]}', '{"tokens": [true, 1, 0, 0]}',
                     '{"tokens": [true, false, true, true]}', '{"tokens": [0, "1", 2, 3]}',
                     '{"tokens": [0, null, 2, 3]}', '{"tokens": [0, 1, 2, 3], "x": 1}',
                     '{"tokens": [9223372036854775808, 0, 1, 2]}',
                     '{"tokens": [18446744073709551616, 0, 1, 2]}',
                     '{"tokens": [-9223372036854775809, 0, 1, 2]}',
                     '{"tokens": [9223372036854775808, -1, 1, 2]}',
                     # trailing data, a byte-order mark, and inner JSON whitespace
                     '{"tokens": [0, 1, 2, 3]} x', '{"tokens": [0, 1, 2, 3]}{}',
                     '{"tokens": [0, 1, 2, 3]}  ]', '\ufeff{"tokens": [0, 1, 2, 3]}',
                     '{ "tokens" :[0,1 ,\t2,3] }', '{"tokens":[0,1,2,3]}',
                     '{\t"tokens": [ 0, 1, 2, 3 ]\t}']),
    _tokens(st.integers(-3, 5), 4),                                  # negatives
    st.integers(1, 7).filter(lambda n: n != 4).flatmap(              # other lengths
        lambda n: _tokens(st.integers(0, 5), n)),
    _tokens(st.integers(0, 40), 4),                                  # past the alphabet
)
BLANK = st.sampled_from(["", "   ", "\t"])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(st.one_of(GOOD_LINE, GOOD_LINE, BAD_LINE, BLANK), max_size=8),
       alphabet_size=st.sampled_from([None, 3, 6, 40]))
@example(lines=['{"tokens": [0, 1, 2, 3]}', '{"tokens": [0, -1, 2, 3]}', "not json"],
         alphabet_size=None)
@example(lines=['{"tokens": [0, 1, 2, 3]}', '{"tokens": [0, 1, 9, 3]}', "{"],
         alphabet_size=6)
@example(lines=['{"tokens": [0, 1, 2, 3]}', '{"tokens": [0, 1]}', '{"tokens": [0, 9]}'],
         alphabet_size=6)
@example(lines=['{"tokens": [0, 1, 2, 3]}', '{"tokens": [0, 1, 9]}'], alphabet_size=6)
@example(lines=['{"tokens": [0, 1, 2, 3]}', '{"tokens": [0, -1]}', '{"tokens": 1}'],
         alphabet_size=None)
@example(lines=['{"tokens":[0,1,2,3]}', '{"tokens": [0, 1, 2, 3]} x'], alphabet_size=None)
@example(lines=['{ "tokens" :[0,1 ,\t2,3] }', '\ufeff{"tokens": [0, 1, 2, 3]}'],
         alphabet_size=6)
def test_load_dataset_equals_per_line_loader(tmp_path_factory, lines, alphabet_size):
    path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
    for newline in ("\n", "\r\n"):
        path.write_text("\n".join(lines) + "\n", newline=newline)
        try:
            want = ref_load_dataset(path, alphabet_size)
        except ParseError as e:
            with pytest.raises(ParseError) as got:
                load_dataset(path, alphabet_size)
            assert str(got.value) == str(e)
            continue
        got = load_dataset(path, alphabet_size)
        assert (got.length, got.alphabet_size, len(got)) == (want.length,
                                                             want.alphabet_size, len(want))
        shape = (len(want), want.length)
        assert np.array_equal(np.asarray(got.records, dtype=np.int64).reshape(shape),
                              np.asarray(want.records, dtype=np.int64).reshape(shape))


# token values of every width the fast reader sees: small, wide, negative, 18
# digits, 19 digits and the int64 extremes
TOKEN_KINDS = [st.integers(0, 5), st.integers(0, 10**6), st.integers(-10**6, -1),
               st.integers(10**17, 10**18 - 1), st.integers(-10**18 + 1, -10**17),
               st.integers(10**18, 2**63 - 1), st.integers(-2**63, -10**18),
               st.sampled_from([-2**63, 2**63 - 1])]


@st.composite
def token_arrays(draw, min_rows=1):
    n, length = draw(st.integers(min_rows, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(TOKEN_KINDS + [st.one_of(*TOKEN_KINDS)]))
    toks = draw(st.lists(kind, min_size=n * length, max_size=n * length))
    return np.array(toks, dtype=np.int64).reshape(n, length)


EDIT = st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**4),
                 st.sampled_from(list(b'0123456789-, []{}"\n\r\tx')))


def _edit(data, edits):
    """`data` with each (kind, position, byte) edit applied in turn; the
    position wraps around the bytes."""
    for kind, at, byte in edits:
        at %= len(data) + (kind == "insert")
        tail = data[at:] if kind == "insert" else data[at + 1:]
        data = data[:at] + (b"" if kind == "delete" else bytes([byte])) + tail
    return data


def _load_outcome(load, path, alphabet_size):
    try:
        got = load(path, alphabet_size)
    except Exception as e:                  # compared by type and message
        return type(e), str(e)
    records = np.asarray(got.records, dtype=np.int64).reshape(len(got), got.length)
    return got.length, got.alphabet_size, records.tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(records=token_arrays(), edits=st.lists(EDIT, max_size=2))
# a digit in the key and a token deleted: the runs are in the wrong slots
@example(records=np.array([[1, 2, 3]]), edits=[("delete", 15, 0), ("insert", 3, ord("7"))])
@example(records=np.array([[1, 2]]), edits=[("insert", 12, ord("0"))])      # 01
@example(records=np.array([[0]]), edits=[("insert", 12, ord("-"))])         # -0
@example(records=np.array([[1, 2]]), edits=[("replace", 12, ord("-"))])     # a lone -
@example(records=np.array([[12, 3]]), edits=[("insert", 13, ord("-"))])     # 1-2
@example(records=np.array([[1], [2]]), edits=[("insert", 15, ord("\r"))])   # \r\n
@example(records=np.array([[4, 5]]), edits=[("delete", 10**4, 0)])          # no last \n
def test_load_dataset_equals_per_line_loader_on_edited_files(tmp_path_factory, records,
                                                              edits):
    path = tmp_path_factory.getbasetemp() / "edited.jsonl"
    save_dataset(path, SequenceDataset(records=records, length=records.shape[1]))
    data = _edit(path.read_bytes(), edits)
    for newlines in (data, data.replace(b"\n", b"\r\n")):
        path.write_bytes(newlines)
        for alphabet_size in (None, 3, 6, 40):
            assert (_load_outcome(load_dataset, path, alphabet_size)
                    == _load_outcome(ref_load_dataset, path, alphabet_size))


def test_load_dataset_reads_a_saved_file_as_one_array(tmp_path, monkeypatch):
    def no_line_reader(line, lineno):
        raise AssertionError("read line by line")

    dataset = sample_dataset(build_preset_grammar("recipe"), 10**4, 12, seed=7)
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, dataset)
    monkeypatch.setattr("agg.synthdata._line_tokens", no_line_reader)
    got = load_dataset(path)
    assert (got.length, got.alphabet_size) == (12, 6)
    assert np.array_equal(got.records, dataset.records)
    first = np.flatnonzero((dataset.records >= 5).any(axis=1))[0] + 1
    with pytest.raises(ParseError, match=f"^line {first}: token 5 >= alphabet size 5$"):
        load_dataset(path, 5)
    # a negative token on a late row, read as numeric runs; a row with both a
    # negative token and one past the alphabet gets the alphabet error
    records = dataset.records.copy()
    records[9000, 3] = -1
    save_dataset(path, SequenceDataset(records=records, length=12))
    for alphabet_size in (None, 6):
        with pytest.raises(ParseError, match="^line 9001: negative token index$"):
            load_dataset(path, alphabet_size)
    records[8000, [2, 7]] = -4, 9
    save_dataset(path, SequenceDataset(records=records, length=12))
    with pytest.raises(ParseError, match="^line 8001: token 9 >= alphabet size 6$"):
        load_dataset(path, 6)
    with pytest.raises(ParseError, match="^line 8001: negative token index$"):
        load_dataset(path)


def _refuse(name):
    return mock.Mock(side_effect=AssertionError(f"read by {name}"))


@pytest.mark.parametrize("width", range(1, 20))
def test_load_dataset_reads_one_width_files_as_fields(tmp_path, monkeypatch, width):
    # tokens of one width are read off their columns, with neither numpy's
    # numeric runs nor the line reader
    lo, hi = (10 ** (width - 1) if width > 1 else 0), min(10**width - 1, 2**63 - 2)
    records = np.random.default_rng(width).integers(lo, hi, (7, 5), endpoint=True)
    records[0, 0], records[-1, -1] = lo, hi
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, SequenceDataset(records=records, length=5))
    monkeypatch.setattr(np, "fromstring", _refuse("numeric runs"))
    monkeypatch.setattr("agg.synthdata._line_tokens", _refuse("lines"))
    got = load_dataset(path)
    assert np.array_equal(got.records, records) and got.alphabet_size == hi + 1


@pytest.mark.parametrize("records", [[[10, 1], [1, 10]], [[-3, -4]], [[-3, -4], [-50, 6]],
                                     [[10, 1, 100], [1, 100, 10]]])
def test_load_dataset_reads_other_layouts_as_numeric_runs(tmp_path, monkeypatch, records):
    # rows of one byte length whose tokens differ in width or carry a '-':
    # the field read refuses them, and numpy's numeric runs read them
    records = np.array(records)
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, SequenceDataset(records=records, length=records.shape[1]))
    assert len({len(line) for line in path.read_bytes().splitlines()}) == 1
    fromstring = mock.Mock(wraps=np.fromstring)
    monkeypatch.setattr(np, "fromstring", fromstring)
    monkeypatch.setattr("agg.synthdata._line_tokens", _refuse("lines"))
    flat, n = _saved_tokens(path.read_bytes())
    assert fromstring.call_count == 1
    assert n == len(records) and np.array_equal(flat, records.ravel())


@pytest.mark.parametrize("text", ['{"tokens": [01, 02]}\n',
                                  '{"tokens": [9999999999999999999]}\n',
                                  '{"tokens": [1, 2]}\n{"tokens":[11, 2]}\n'])
def test_load_dataset_field_misreads_fall_through(tmp_path, text):
    # digits at every field column that _dataset_bytes does not write back:
    # leading zeros, a 19-digit overflow, a line shifted by a missing space
    path = tmp_path / "dataset.jsonl"
    path.write_text(text)
    for alphabet_size in (None, 6):
        assert (_load_outcome(load_dataset, path, alphabet_size)
                == _load_outcome(ref_load_dataset, path, alphabet_size))


def ref_save_dataset(path, dataset):
    """One '%s' format per row."""
    rows = np.asarray(dataset.records, dtype=np.int64).tolist()
    with open(path, "w") as f:
        f.writelines('{"tokens": %s}\n' % row for row in rows)


@pytest.mark.parametrize("n,length", [(0, 12), (1, 12), (10**4, 12), (7, 1), (0, 1)])
def test_save_dataset_equals_per_row_writer(tmp_path, n, length):
    rng = np.random.default_rng(n + length)
    tokens = rng.integers(0, 6, (n, length))
    wide = rng.integers(-2**63, 2**63 - 1, (n, length), dtype=np.int64, endpoint=True)
    wide[:1, :1], wide[-1:, -1:] = -2**63, 2**63 - 1
    for records in (tokens, rng.integers(0, 10**6, (n, length)), wide):
        dataset = SequenceDataset(records=records, length=length)
        save_dataset(tmp_path / "got.jsonl", dataset)
        ref_save_dataset(tmp_path / "want.jsonl", dataset)
        got = (tmp_path / "got.jsonl").read_bytes()
        assert got == (tmp_path / "want.jsonl").read_bytes()
        assert got.count(b"\n") == n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(records=token_arrays(min_rows=0))
@example(records=np.zeros((0, 1), dtype=np.int64))
@example(records=np.array([[-2**63, 2**63 - 1, 0, -1, 9, 10]]))
@example(records=np.array([[7, 0], [-10, 123], [100, 5]]))
def test_save_dataset_equals_per_row_writer_on_random_arrays(tmp_path_factory, records):
    # mixed widths within a column, negative tokens and the int64 extremes
    root = tmp_path_factory.getbasetemp()
    dataset = SequenceDataset(records=records, length=records.shape[1])
    save_dataset(root / "written.jsonl", dataset)
    ref_save_dataset(root / "want.jsonl", dataset)
    data = (root / "written.jsonl").read_bytes()
    assert data == (root / "want.jsonl").read_bytes()
    # the byte-array reader takes back every non-empty file it writes
    if len(records):
        flat, n = _saved_tokens(data)
        assert n == len(records) and np.array_equal(flat, records.ravel())
        if records.min() >= 0:
            with mock.patch("agg.synthdata._line_tokens", side_effect=AssertionError):
                got = load_dataset(root / "written.jsonl")
            assert np.array_equal(got.records, records)


def test_sequence_dataset_reports_the_first_bad_record():
    good, wide = np.array([0, 1, 2]), np.array([0, 9, 1])
    # records are one (N, length) int64 array: a list of rows, ragged or not,
    # a float array (one_hot would read [[0.5, 2.7]] as tokens [0, 2]) and an
    # array of another width are refused
    for records, length in (([good, np.array([0, 1])], 3), ([good, good], 3),
                            (np.array([[0.5, 2.7]]), 2), (np.stack([good, good]), 2)):
        with pytest.raises(ParameterError, match=r"\(N, \d\) int64 array"):
            SequenceDataset(records=records, length=length, alphabet_size=3)
    with pytest.raises(ParameterError, match="alphabet"):
        SequenceDataset(records=np.stack([good, wide]), length=3, alphabet_size=4)
    SequenceDataset(records=np.stack([good, wide]), length=3)       # no alphabet, no bound


def test_sequence_dataset_refuses_negative_tokens_with_an_alphabet():
    # one_hot would put token -1 in the alphabet's last class
    with pytest.raises(ParameterError, match="alphabet"):
        SequenceDataset(records=np.array([[-1, 0]]), length=2, alphabet_size=3)
    # without an alphabet there is no bound: save_dataset writes such records
    SequenceDataset(records=np.array([[-1, 0]]), length=2)


# ---------------------------------------------------------------------------
# unroll_batch: the one-node unroll against the per-op graph it replaced
# ---------------------------------------------------------------------------

def ref_unroll_batch(self, n0, length, rng, tau=1.0, return_entropy=False):
    """GrammarModel.unroll_batch as a graph of primitive ops, eight nodes a
    step, verbatim but for `self`, which is the model, and for
    mask_logits, straight_through, expand, sum_along and stack_time, which
    are the copies in the test helpers. Every step draws a hard
    straight-through sample: one-hot where the Gumbel-softmax of the masked
    logits peaks, with that softmax's gradient, or under a top-1 mask the
    gradient of the Gumbel-softmax of the unmasked logits."""
    if length < 1:
        raise ParameterError("unroll length must be >= 1")
    n0 = n0 if isinstance(n0, Tensor) else Tensor(n0)
    B = n0.value.shape[0]
    R = self.config.num_rules
    n = n0
    terminals, nonterminals, indices, logp = [], [], [], np.zeros(B)
    entropies = []
    for _ in range(length):
        unmasked = ad.add(ad.matmul(n, self.w_r), self.b_r)
        keep = self._topk_keep(unmasked.value)
        logits = unmasked if keep is None else mask_logits(unmasked, keep)
        if return_entropy:
            p_t = ad.softmax(logits)
            plogp = ad.mul(p_t, ad.log(ad.clamp_min(p_t, 1e-12)))
            entropies.append(ad.mean(sum_along(plogp, axis=-1)))
        probs = _softmax_kept(logits.value, (logits.value != -np.inf).ravel().nonzero()[0])
        u = np.clip(rng.random((B, R)), 1e-12, 1.0 - 1e-12)
        hard = gumbel_softmax(logits.value, tau, u, hard=True).value
        soft = unmasked if self.config.topk_mask == 1 else logits
        sel = straight_through(hard, gumbel_softmax(soft, tau, u))
        idx = np.argmax(sel.value, axis=-1)
        logp += np.log(np.maximum(probs[np.arange(B), idx], 1e-300))
        n, t = expand(self, sel)
        terminals.append(t)
        nonterminals.append(n)
        indices.append(idx)
    out = (stack_time(terminals), stack_time(nonterminals),
           np.stack(indices, axis=1), logp)
    if return_entropy:
        ent = ad.mul(ad.mean(ad.concat([ad.reshape(e, (1,)) for e in entropies],
                                       axis=0)), -1.0)
        return out + (ent,)
    return out


def _unroll_and_grads(unroll, model, disc, prefix, tau, return_entropy, consume,
                      seed=5, length=7):
    """Unroll from the encoded prefix, backpropagate a loss that consumes
    `consume` ("both", "terminals" or "nonterminals"), and return the outputs,
    every grammar parameter's gradient, n0's gradient and the next draw of
    the unroll's generator."""
    for p in model.parameters() + disc.parameters():
        p.grad = None
    rng = np.random.default_rng(seed)
    n0 = model.encode_start(Tensor(prefix))
    out = unroll(model, n0, length, rng, tau=tau, return_entropy=return_entropy)
    t, n = out[:2]
    if consume == "both":
        loss = generator_loss(disc(t, n))      # the generator step's shape
    elif consume == "terminals":
        loss = ad.total(ad.mul(t, np.linspace(-1.0, 2.0, t.value.size).reshape(t.shape)))
    else:
        loss = ad.total(ad.mul(n, np.linspace(-1.0, 2.0, n.value.size).reshape(n.shape)))
    if return_entropy:
        loss = ad.add(loss, ad.mul(out[4], -0.1))
    ad.backward(loss)
    values = [t.value, n.value, out[2], out[3]] + [e.value for e in out[4:]]
    grads = {p.name: p.grad for p in model.parameters()}
    return values, grads, n0.grad, rng.random()


def _assert_unroll_matches(model, disc, prefix, **kw):
    got = _unroll_and_grads(GrammarModel.unroll_batch, model, disc, prefix, **kw)
    want = _unroll_and_grads(ref_unroll_batch, model, disc, prefix, **kw)
    for a, b in zip(got[0], want[0], strict=True):
        assert np.array_equal(a, b)
    assert got[1].keys() == want[1].keys()
    for name, g in want[1].items():
        if g is None:
            assert got[1][name] is None, name
        else:
            assert np.array_equal(got[1][name], g), name
    assert (got[2] is None) == (want[2] is None)
    if want[2] is not None:
        assert np.array_equal(got[2], want[2])
    assert got[3] == want[3]


def _unroll_case(topk, d_terminal=6, rows=5):
    cfg = GrammarConfig(d_nonterminal=12, d_terminal=d_terminal, num_rules=24,
                        topk_mask=topk)
    model = GrammarModel(cfg, seed=4)
    disc = Discriminator(d_terminal, 12, DiscriminatorConfig(conv_channels=(4, 6)), seed=9)
    prefix = np.eye(d_terminal)[np.random.default_rng(2).integers(0, d_terminal, (rows, 3))]
    return model, disc, prefix


# the case ids name the unroll's one selection policy (hard straight-through
# samples) and its one terminal activation (the rule's one-hot token)
@pytest.mark.parametrize("topk", [None, 4, 1])
@pytest.mark.parametrize("return_entropy", [False, True])
@pytest.mark.parametrize("policy", ["sample_hard"])
def test_unroll_batch_equals_per_op_graph(policy, return_entropy, topk):
    model, disc, prefix = _unroll_case(topk)
    for tau in (1.0, 0.37):
        _assert_unroll_matches(model, disc, prefix, tau=tau,
                               return_entropy=return_entropy, consume="both")


@pytest.mark.parametrize("consume", ["terminals", "nonterminals"])
@pytest.mark.parametrize("return_entropy", [False, True])
@pytest.mark.parametrize("policy", ["sample_hard"])
def test_unroll_batch_equals_per_op_graph_one_stream(policy, return_entropy, consume):
    model, disc, prefix = _unroll_case(4)
    _assert_unroll_matches(model, disc, prefix, tau=0.7,
                           return_entropy=return_entropy, consume=consume)


@pytest.mark.parametrize("activation,d_terminal", [("one_hot", 11), ("one_hot", 6),
                                                   ("one_hot", 9)])
@pytest.mark.parametrize("policy", ["sample_hard"])
def test_unroll_batch_equals_per_op_graph_activations(policy, activation, d_terminal):
    model, disc, prefix = _unroll_case(4, d_terminal)
    for consume in ("both", "terminals"):
        _assert_unroll_matches(model, disc, prefix, tau=0.7,
                               return_entropy=True, consume=consume)


def test_unroll_batch_equals_per_op_graph_without_grad():
    model, _, prefix = _unroll_case(4)
    with ad.no_grad():
        n0 = model.encode_start(Tensor(prefix))
        got = model.unroll_batch(n0, 9, np.random.default_rng(1), return_entropy=True)
        want = ref_unroll_batch(model, n0, 9, np.random.default_rng(1),
                                return_entropy=True)
        for a, b in zip(got, want, strict=True):
            a, b = (x.value if isinstance(x, Tensor) else x for x in (a, b))
            assert np.array_equal(a, b)


# steps >= 1 read the rule table, whose (R, R) gemm rounds row r as a batch
# of two or more states rounds it: at the smallest gemm batch, and at one
# larger than the R = 24 rules
@pytest.mark.parametrize("rows", [2, 30])
@pytest.mark.parametrize("topk", [None, 4])
def test_unroll_batch_reads_the_table_at_other_batch_sizes(topk, rows):
    model, disc, prefix = _unroll_case(topk, rows=rows)
    for return_entropy in (False, True):
        _assert_unroll_matches(model, disc, prefix, tau=0.7,
                               return_entropy=return_entropy, consume="both")


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("topk", [None, 4, 1])
def test_unroll_batch_log_prob_adds_the_table_law(topk, rows):
    # the paths of a shorter unroll are the first steps of a longer one, and
    # each step from 1 on adds log max(probs_all[prev, idx], 1e-300), bit for
    # bit; also for one row, which reads the table's rounding. The longer
    # unrolls are handed the table the unroll otherwise builds itself
    model, _, prefix = _unroll_case(topk, rows=rows)
    with ad.no_grad():
        n0 = model.encode_start(Tensor(prefix))
        tables = model.rule_tables(n0.value)
        probs_all = tables.probs_all
        _, _, prev_idx, prev_logp = model.unroll_batch(n0, 1, np.random.default_rng(3))
        for length in range(2, 9):
            _, _, idx, logp = model.unroll_batch(n0, length, np.random.default_rng(3),
                                                 tables=tables)
            assert np.array_equal(idx[:, :-1], prev_idx)
            step = np.log(np.maximum(probs_all[idx[:, -2], idx[:, -1]], 1e-300))
            assert (logp == prev_logp + step).all()
            prev_idx, prev_logp = idx, logp


# ---------------------------------------------------------------------------
# teacher_forced_states: the parse over the kept rules against the dense one
# ---------------------------------------------------------------------------

def ref_teacher_forced_states(model, batch, n0, rng):
    """adversarial.teacher_forced_states as it weighed all R rules of each
    row, verbatim but for reading the first three of the rule tables, whose
    seed rows are step 0's law."""
    n_all, emit, probs_all = model.rule_tables(np.asarray(n0, dtype=np.float64))[:3]
    B, L, _ = batch.shape
    tokens = np.argmax(batch, axis=2)                   # (B, L)
    p = probs_all[len(n_all):]
    out = np.empty((B, L, n_all.shape[1]))
    fallbacks = 0
    for j in range(L):
        w_hard = p * (emit[None, :] == tokens[:, j, None])
        hit = w_hard.sum(axis=1, keepdims=True) > 0
        fallbacks += B - int(hit.sum())
        w = np.where(hit, w_hard, p)
        w /= w.sum(axis=1, keepdims=True)
        cum = np.cumsum(w, axis=-1)
        cum[:, -1] = 1.0
        idx = (cum < rng.random((B, 1))).sum(axis=-1)
        out[:, j, :] = n_all[idx]
        p = probs_all[idx]
    return out, fallbacks


def _parse_case(topk, rows, seed=0):
    """A 256-rule activity model none of whose rules emits token 5, so a
    row reading it falls back to the rule law; tokens and seed states."""
    model = GrammarModel(activity_config(6, topk_mask=topk), seed=3)
    model.emit[model.emit == 5] = 4
    rng = np.random.default_rng(seed)
    return model, np.eye(6)[rng.integers(0, 6, (rows, 12))], rng.normal(size=(rows, 64))


def _parsed_rules(model, out):
    """The rule of each parsed state: the row of W_n it is."""
    rule = {row.tobytes(): r for r, row in enumerate(model.w_n.value)}
    return np.array([rule[x.tobytes()] for x in out.reshape(-1, out.shape[-1])]
                    ).reshape(out.shape[:2])


@pytest.mark.parametrize("rows", [1, 2, 32, 1000])
@pytest.mark.parametrize("topk", [4, None, 1])
def test_teacher_forced_states_equals_dense_parse(topk, rows):
    model, batch, n0 = _parse_case(topk, rows)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = adversarial.teacher_forced_states(model, batch, n0, got_rng)
    want = ref_teacher_forced_states(model, batch, n0, want_rng)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got_rng.random() == want_rng.random()
    if rows >= 32:
        assert want[1] > 0
    # a table passed in is read as the one built inside
    tables_rng = np.random.default_rng(7)
    passed = adversarial.teacher_forced_states(model, batch, n0, tables_rng,
                                               model.rule_tables(n0))
    assert np.array_equal(passed[0], got[0]) and passed[1] == got[1]


@pytest.mark.parametrize("topk", [4, None, 1])
def test_teacher_forced_states_at_uniform_boundaries(topk):
    # step 0 draws u = 0, which takes rule 0 even where it has weight 0;
    # step 1 the largest double below 1, which lies above the last running
    # sum of some rows and then takes rule R - 1; then a mix of both with
    # seeded draws
    rows, R = 1000, 256
    model, batch, n0 = _parse_case(topk, rows, seed=1)
    top = np.nextafter(1.0, 0.0)
    u = np.random.default_rng(4).random((12, rows))
    u[0], u[1] = 0.0, top
    u[2:, ::3], u[2:, 1::3] = 0.0, top
    got_u, want_u = _Uniforms(u), _Uniforms(u)
    got = adversarial.teacher_forced_states(model, batch, n0, got_u)
    want = ref_teacher_forced_states(model, batch, n0, want_u)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got_u.at == want_u.at == u.size
    rules = _parsed_rules(model, want[0])
    p0 = seed_probs(model, n0)
    probs_all = model.rule_tables().probs_all
    assert (rules[:, 0] == 0).all()
    if topk == 4:
        # the cases are met: rule 0 taken at weight 0, and rule R - 1 taken
        # at weight 0 because u passed the last running sum
        assert (p0[:, 0] == 0).any()
        past = (u[1:].T == top) & (rules[:, 1:] == R - 1)
        assert (past & (probs_all[rules[:, :-1], R - 1] == 0)).any()


# ---------------------------------------------------------------------------
# the holdout: row blocks against the one-batch holdout run block by block
# ---------------------------------------------------------------------------

def ref_holdout_accuracy(grammar_model, disc_model, X_hold, config, rng):
    """adversarial._holdout_accuracy as it scored the one-hot held-out rows
    X_hold in one batch, verbatim but for returning D's scores (p_real,
    p_fake) instead of their accuracy, and for running that batch on each
    of the np.array_split blocks of at most HOLDOUT_BLOCK rows in turn."""
    if len(X_hold) == 0:
        return float("nan")
    p_real, p_fake = [], []
    for X in np.array_split(X_hold, -(-len(X_hold) // adversarial.HOLDOUT_BLOCK)):
        with ad.no_grad():
            n0 = grammar_model.encode_start(Tensor(X[:, :config.prefix_len]))
            tables = grammar_model.rule_tables(n0.value)
            p_real.append(disc_model(Tensor(X), Tensor(
                adversarial.teacher_forced_states(grammar_model, X, n0.value, rng,
                                                  tables)[0])).value)
            t_fake, n_fake, _, _ = grammar_model.unroll_batch(
                n0, X.shape[1], rng, tau=adversarial._tau_at(config, config.iterations - 1),
                tables=tables)
            del tables
            p_fake.append(disc_model(t_fake, n_fake).value)
    return np.concatenate(p_real), np.concatenate(p_fake)


@pytest.mark.parametrize("topk", [4, 1, None])
def test_holdout_scores_equal_blockwise_reference(topk):
    # token 5 is emitted by no rule, so some parsed rows fall back; the sizes
    # give one block up to the block size, then two, three, four and five
    # near-equal blocks
    model, _, _ = _parse_case(topk, 1)
    disc = Discriminator(6, 64, DiscriminatorConfig(conv_channels=(16, 32, 16)), seed=4)
    config = TrainConfig(iterations=10, tau_end=0.5)
    ds = SequenceDataset(records=np.random.default_rng(2).integers(0, 6, (1100, 12)),
                         length=12, alphabet_size=6)
    block = adversarial.HOLDOUT_BLOCK
    for n in (1, 2, 3, block - 1, block, block + 1, 2 * block + 1, 1000, 4 * block + 3):
        rows = np.random.default_rng(n).permutation(len(ds))[:n]
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = adversarial._holdout_scores(model, disc, ds, rows, config, got_rng)
        want = ref_holdout_accuracy(model, disc, ds.one_hot()[rows], config, want_rng)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b), n
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, n


def _traced_training_peak(num_sequences):
    """tracemalloc's peak over a 2-iteration train_adversarial of the
    recipe gate's model on num_sequences recipe rows, above its start."""
    ds = sample_dataset(build_preset_grammar("recipe"), num_sequences, 12, seed=0)
    model = GrammarModel(activity_config(6), seed=0)
    disc = Discriminator(6, 64, DiscriminatorConfig(conv_channels=(16, 32, 16)), seed=1)
    tracemalloc.start()
    try:
        train_adversarial(ds, model, disc, TrainConfig(iterations=2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_grows_with_the_block_not_the_dataset():
    # the batches are one-hot encoded from their own rows and the holdout
    # runs in row blocks: four times the rows add the row indices, the token
    # rows and the parsed and drawn rules, not a whole-dataset array
    growth = _traced_training_peak(4 * 10**4) - _traced_training_peak(10**4)
    assert growth < 4 * 2**20


# ---------------------------------------------------------------------------
# _softmax_kept: division at the kept entries against full-width division
# ---------------------------------------------------------------------------

def ref_softmax_kept(s, kept):
    """_softmax_kept as it divided the full width, verbatim."""
    mx = s.max(axis=-1)
    e = np.zeros(s.shape)
    e.put(kept, np.exp(s.take(kept) - mx.take(kept // s.shape[-1])))
    e /= e.sum(axis=-1, keepdims=True)
    return e


@pytest.mark.parametrize("shape", [(40, 24), (3, 5, 24), (24,)])
@pytest.mark.parametrize("m", [1, 4, 23, 24])
def test_softmax_kept_equals_full_width_division(shape, m):
    s = np.random.default_rng(0).normal(size=shape) * 30
    rows = s.reshape(-1, shape[-1])
    # in row 0, the kept entry -800 lies so far below the row's largest
    # that its exp underflows to 0
    rows[0] = -1000.0
    rows[0, :4] = [-5.0, -800.0, 0.0, -900.0]
    keep = np.ones(rows.shape, dtype=bool) if m == shape[-1] else _top_mask(rows, m)
    kept = keep.ravel().nonzero()[0]
    got, want = _softmax_kept(s, kept), ref_softmax_kept(s, kept)
    assert got.tobytes() == want.tobytes()
    if m == 4:
        assert got.reshape(rows.shape)[0, 1] == 0.0 and keep[0, 1]


# ---------------------------------------------------------------------------
# _pruned_loglik: the one-node beam against the per-op graph it replaced
# ---------------------------------------------------------------------------

def ref_pruned_loglik(model, batch, n0, k_cap, max_paths):
    """adversarial._pruned_loglik as a graph of primitive ops, two gathers
    and two products a step, verbatim but for gather_nd and sum_along, which
    come from the test helpers; both rule heads are the per-op softmax of
    the unmasked logits add(matmul(n, W_r), b_r), whatever the model's
    top-k mask. The emission weights are a constant (R, C) table."""
    R = model.config.num_rules
    n_all = model.w_n                            # f_n(I)
    t_all = np.where(model.emit[:, None] == np.arange(model.config.d_terminal),
                     1.0, EMISSION_FLOOR)        # emission weight of each rule
    probs_all = ad.softmax(ad.add(ad.matmul(n_all, model.w_r), model.b_r))   # (R, R)
    B, L = batch.shape
    p0 = ad.softmax(ad.add(ad.matmul(n0, model.w_r), model.b_r))            # (B, R)

    # level 0: top-k rules per example, by probability times emission weight
    k = min(k_cap, R)
    idx0 = np.argsort(-(p0.value * t_all[:, batch[:, 0]].T), axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(B)[:, None], k, axis=1)
    w = ad.mul(gather_nd(p0, (rows, idx0)), t_all[idx0, batch[:, [0]]])  # (B, k)
    succ = np.stack([np.argsort(-(probs_all.value * t_all[:, c]), axis=1, kind="stable")[:, :k]
                     for c in range(t_all.shape[1])])                 # (C, R, k)
    cur = idx0
    for j in range(1, L):
        W = cur.shape[1]
        # per parent keep top-k rules, then cap total paths
        keep_r = succ[batch[:, j, None], cur]                         # (B, W, k)
        trans_sel = probs_all.value[cur[:, :, None], keep_r]
        emis_sel = t_all[keep_r, batch[:, j, None, None]]
        cand_sel = (w.value[:, :, None] * trans_sel * emis_sel).reshape(B, W * k)
        order = np.argsort(-cand_sel, axis=1, kind="stable")[:, :max_paths]
        parent = order // k                                           # (B, W')
        rule = np.take_along_axis(keep_r.reshape(B, W * k), order, axis=1)
        Wn = parent.shape[1]
        rowsB = np.repeat(np.arange(B)[:, None], Wn, axis=1)
        w_parent = gather_nd(w, (rowsB, parent))
        trans = gather_nd(probs_all, (np.take_along_axis(cur, parent, axis=1), rule))
        emis = t_all[rule, batch[:, [j]]]
        w = ad.mul(ad.mul(w_parent, trans), emis)
        cur = rule
    tot = sum_along(w, axis=1)
    return ad.mean(ad.log(ad.clamp_min(tot, 1e-300)))


def _loglik_and_grads(loglik, model, tokens, prefix, k_cap, max_paths):
    """-loglik backpropagated from the encoded prefix, as train_grammar_only
    does: the value's bytes, each parameter's gradient bytes (None if it got
    none) and the number of nodes recorded."""
    for p in model.parameters():
        p.grad = None
    made = []
    node = ad._node

    def counted(*args):
        made.append(1)
        return node(*args)

    ad._node = counted
    try:
        n0 = model.encode_start(Tensor(prefix))
        loss = -loglik(model, tokens, n0, k_cap, max_paths)
    finally:
        ad._node = node
    ad.backward(loss)
    grads = {p.name: None if p.grad is None else p.grad.tobytes()
             for p in model.parameters()}
    return loss.value.tobytes(), grads, len(made)


def _assert_beam_matches(model, tokens, prefix, k_cap, max_paths):
    got = _loglik_and_grads(adversarial._pruned_loglik, model, tokens, prefix,
                            k_cap, max_paths)
    want = _loglik_and_grads(ref_pruned_loglik, model, tokens, prefix, k_cap,
                             max_paths)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return got[2], want[2]


def _bimodal_case(topk=4, num_rows=32, length=12, seed=0):
    """The benchmark's branching-ablation shape: R = 256, three tokens."""
    model = GrammarModel(activity_config(3, topk_mask=topk), seed=seed)
    data = sample_dataset(build_preset_grammar("bimodal"), num_rows, length, seed=seed)
    tokens = np.stack(data.records)
    return model, tokens, data.one_hot()[:, :2]


@pytest.mark.parametrize("topk,k_cap", [
    (4, 4),
    (None, 4),
    (1, 1),               # the ablation's no-branching arm: one path a step
])
def test_pruned_loglik_equals_per_op_graph_bimodal(topk, k_cap):
    model, tokens, prefix = _bimodal_case(topk)
    nodes, ref_nodes = _assert_beam_matches(model, tokens, prefix, k_cap, 64)
    # one node in place of the two rule heads' three nodes each, the rule
    # table's and p0's (the beam reads no mask), step 0's two, four a step
    # after it, and sum, clamp, log and mean
    assert ref_nodes - nodes == 2 * 3 + 2 + 4 * (tokens.shape[1] - 1) + 4 - 1


def test_pruned_loglik_equals_per_op_graph_with_ties():
    # the tie fixture of test_adversarial: exact ties between successors and
    # between candidates, also at the max_paths boundary
    R, C = 6, 3
    model = GrammarModel(GrammarConfig(d_nonterminal=R, d_terminal=C, num_rules=R), seed=0)
    rng = np.random.default_rng(2)
    logits = rng.integers(0, 3, size=(R, R)).astype(np.float64)
    model.emit = rng.integers(0, C, size=R)
    model.w_n.assign(np.eye(R))
    model.w_r.assign(logits)
    model.b_r.assign(np.zeros(R))
    tokens = rng.integers(0, C, size=(8, 6))
    prefix = np.eye(C)[rng.integers(0, C, size=(8, 2))]
    for k_cap, max_paths in ((2, 3), (3, 2), (2, 5), (1, 1), (4, 7)):
        _assert_beam_matches(model, tokens, prefix, k_cap, max_paths)


@pytest.mark.parametrize("k_cap,max_paths,rows,length", [
    (6, 64, 5, 4),        # k_cap = R: the (R, R) table is sorted whole
    (9, 3, 5, 4),         # k_cap > R
    (2, 1000, 5, 5),      # max_paths >= W * k at every step
    (3, 4, 5, 1),         # L = 1: no step after the first
    (2, 3, 1, 6),         # B = 1
    (6, 1000, 1, 1),
    (1, 1, 1, 2),         # one path: the table backward reads one visited row
    (1, 1, 2, 2),
    (1, 1, 1, 3),
])
@pytest.mark.parametrize("topk", [None, 2])
def test_pruned_loglik_equals_per_op_graph_edges(k_cap, max_paths, rows, length, topk):
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=6,
                                       topk_mask=topk), seed=3)
    rng = np.random.default_rng(k_cap + rows + length)
    tokens = rng.integers(0, 4, size=(rows, length))
    prefix = np.eye(4)[rng.integers(0, 4, size=(rows, 3))]
    _assert_beam_matches(model, tokens, prefix, k_cap, max_paths)


def test_train_grammar_only_equals_per_op_graph(monkeypatch):
    data = sample_dataset(build_preset_grammar("bimodal"), 200, 12, seed=4)
    cfg = GrammarOnlyConfig(iterations=40, batch_size=32, prefix_len=2, lr0=0.02,
                            k_cap=4, max_paths=64, log_every=1, seed=6)
    runs = []
    for loglik in (adversarial._pruned_loglik, ref_pruned_loglik):
        monkeypatch.setattr(adversarial, "_pruned_loglik", loglik)
        model = GrammarModel(activity_config(3, topk_mask=4), seed=1)
        rows = train_grammar_only(data, model, cfg)
        runs.append((rows, [p.value.tobytes() for p in model.parameters()]))
    assert runs[0] == runs[1]


def test_pruned_loglik_central_differences(monkeypatch):
    """Every parameter's gradient against central differences, on a model
    whose kept paths (every selection the beam makes) are the same at
    theta + h and theta - h as at theta."""
    model = GrammarModel(GrammarConfig(d_nonterminal=5, d_terminal=3, num_rules=5,
                                       topk_mask=3), seed=0)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 3, size=(4, 5))
    prefix = np.eye(3)[rng.integers(0, 3, size=(4, 2))]
    picks = []
    top = adversarial._top_stable

    def recorded(x, m):
        picks.append(top(x, m))
        return picks[-1]

    monkeypatch.setattr(adversarial, "_top_stable", recorded)

    def loglik():
        picks.clear()
        with ad.no_grad():
            n0 = model.encode_start(Tensor(prefix))
            value = float(adversarial._pruned_loglik(model, tokens, n0, 2, 3).value)
        return value, [p.copy() for p in picks]

    for p in model.parameters():
        p.grad = None
    _, kept = loglik()
    n0 = model.encode_start(Tensor(prefix))
    ad.backward(adversarial._pruned_loglik(model, tokens, n0, 2, 3))
    h = 1e-6
    for p in model.parameters():
        num = np.zeros_like(p.value)
        for i in range(p.value.size):
            base = p.value.copy()
            out = []
            for step in (h, -h):
                moved = base.copy()
                moved.flat[i] += step
                p.assign(moved)
                value, picked = loglik()
                assert all(np.array_equal(a, b) for a, b in zip(picked, kept, strict=True))
                out.append(value)
            p.assign(base)
            num.flat[i] = (out[0] - out[1]) / (2 * h)
        assert rel_err(p.grad, num) < 1e-6, p.name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 300),
       st.sampled_from([2, 3, 50]), st.booleans())
def test_top_stable_equals_stable_argsort(seed, rows, n, levels, nan):
    # few distinct values, so rows tie inside the kept set and at its edge;
    # the rule mask keeps what the beam and the enumeration rank first
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(rows, n)) / levels
    if nan:
        x[rng.random(x.shape) < 0.05] = np.nan
    order = np.argsort(-x, axis=1, kind="stable")
    for m in {1, 2, 17, n // 2 + 1, n - 1, n, n + 3} - {0}:
        assert np.array_equal(adversarial._top_stable(x, m), order[:, :m])
        if m < n:
            want = np.zeros(x.shape, dtype=bool)
            np.put_along_axis(want, order[:, :m], True, axis=1)
            assert np.array_equal(_top_mask(x, m), want)
