"""Evaluation metrics against hand oracles and analytic cases."""
import json

import numpy as np
import pytest

from agg.errors import ParameterError, ResourceError
from agg.grammar import GrammarConfig, GrammarModel
from agg.metrics import (EvalReport, best_of_k, empirical_ngram_distribution,
                         grammar_sampler, kl_divergence, ngram_kl,
                         sample_model_futures)
from agg.synthdata import build_preset_grammar, sample_dataset, sample_sequences


def test_best_of_k_basics():
    calls = []

    def sampler(h, rng):
        v = rng.random()
        calls.append(v)
        return v

    one = best_of_k(sampler, 1, 1, lambda v: v, seed=0)
    ten = best_of_k(sampler, 1, 10, lambda v: v, seed=0)
    assert ten >= one
    # prefix-stable stream: k=1 value appears among the k=10 draws
    again = best_of_k(sampler, 1, 1, lambda v: v, seed=0)
    assert again == one
    assert best_of_k(sampler, 1, 5, lambda v: -v, seed=0,
                     higher_is_better=False) <= one
    with pytest.raises(ParameterError):
        best_of_k(sampler, 1, 0, lambda v: v)


def test_best_of_k_bimodal_coverage():
    # single sample hits the chosen suffix w.p. 0.5; 10 samples nearly always
    g = build_preset_grammar("bimodal")
    target = np.array([0, 0, 1, 1, 1])  # s, s, then the 'a' suffix
    sampler = grammar_sampler(g)

    def exact_match(seq):
        return float(np.array_equal(seq, target))

    hits1 = [best_of_k(sampler, 5, 1, exact_match, seed=s) for s in range(400)]
    hits10 = [best_of_k(sampler, 5, 10, exact_match, seed=s) for s in range(400)]
    assert np.mean(hits10) - np.mean(hits1) >= 0.10


def test_kl_hand_value():
    p = {(0,): 0.5, (1,): 0.5}
    q = {(0,): 0.25, (1,): 0.75}
    v = kl_divergence(p, q, [(0,), (1,)], eps=1e-12)
    want = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
    assert abs(v - want) < 1e-9
    assert abs(v - 0.1438) < 1e-3


def test_kl_zero_for_identical():
    p = {(0,): 0.3, (1,): 0.7}
    assert kl_divergence(p, dict(p), [(0,), (1,)]) < 1e-12
    assert kl_divergence(p, {(0,): 0.2, (1,): 0.8}, [(0,), (1,)]) > 0


def test_ngram_kl_self_sampling():
    # samples drawn from the oracle itself: KL small and shrinking with n
    g = build_preset_grammar("bimodal")
    rng = np.random.default_rng(0)
    # the same arrays as 1000 and then 10**5 sample_sequence calls on rng
    small = sample_sequences(g, 1000, 8, rng)
    big = sample_sequences(g, 10**5, 8, rng)
    kl_small = ngram_kl(small, g, 3, 8)
    kl_big = ngram_kl(big, g, 3, 8)
    assert kl_big <= 0.01
    assert kl_big <= kl_small


def test_ngram_kl_validation():
    g = build_preset_grammar("bimodal")
    samples = np.zeros((10, 4), dtype=np.int64)
    with pytest.raises(ParameterError):
        ngram_kl(samples, g, 5, 4)
    for n in (0, -1):       # n = -1 used to send the exact oracle into an endless DFS
        with pytest.raises(ParameterError, match="n-gram order"):
            ngram_kl(samples, g, n, 4)
        with pytest.raises(ParameterError, match="n-gram order"):
            empirical_ngram_distribution(samples, n, 3)


def test_ngram_kl_refuses_narrow_samples_and_n_grams_over_budget(monkeypatch):
    g = build_preset_grammar("recipe")                   # 6 tokens
    samples = np.zeros((10, 8), dtype=np.int64)
    with pytest.raises(ParameterError, match="horizon"):
        ngram_kl(samples[:, :7], g, 3, 8)                # one column short of the horizon

    def refuse(*args, **kwargs):
        raise AssertionError("counted the windows before checking the budget")

    # 6^8 n-grams are over the exact oracle's budget; the count would need a
    # bin for each of them, per window column
    monkeypatch.setattr(np, "bincount", refuse)
    with pytest.raises(ResourceError, match=r"6\^8 = 1679616 strings exceeds budget 1000000"):
        ngram_kl(samples, g, 8, 8)


def test_empirical_ngram_distribution():
    samples = np.array([[0, 1, 0], [0, 1, 1]])
    d = empirical_ngram_distribution(samples, 2, 2)
    assert abs(d[(0, 1)] - 0.5) < 1e-12
    assert abs(d[(1, 0)] - 0.25) < 1e-12
    assert abs(d[(1, 1)] - 0.25) < 1e-12
    assert abs(sum(d.values()) - 1.0) < 1e-12


def test_model_sampler_and_futures_shapes():
    from agg.grammar import GrammarConfig, GrammarModel
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3,
                                       num_rules=5), seed=0)
    X = np.eye(3)[np.zeros((4, 2), dtype=int)]
    futures = sample_model_futures(model, X, 5, num_samples_per_prefix=3, seed=1)
    assert futures.shape == (12, 5)


def test_eval_report_contracts(tmp_path):
    r = EvalReport(per_horizon={1: 0.5, 2: 0.25}, metadata={"model": "m"})
    s = r.to_json()
    assert list(json.loads(s)) == ["per_horizon", "metadata"] and '"0.5"' not in s
    assert r.render_table().splitlines() == ["metric  1       2     ",
                                             "value   0.5000  0.2500"]
    with pytest.raises(ParameterError):
        EvalReport(per_horizon={2: 0.5, 1: 0.25})
    with pytest.raises(ParameterError):
        EvalReport(per_horizon={1: float("nan")})


def test_sample_model_futures_are_the_tokens_of_the_sampled_rules():
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=6), seed=2)
    prefixes = np.eye(4)[np.random.default_rng(0).integers(0, 4, (5, 3))]
    got = sample_model_futures(model, prefixes, 7, num_samples_per_prefix=3, seed=1)
    paths, _ = model.sample_prefix_paths(prefixes, 7, 3, seed=1)
    assert got.shape == (15, 7)
    assert np.array_equal(got, model.emit[paths])
