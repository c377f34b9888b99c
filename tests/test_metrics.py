"""Evaluation metrics against hand oracles and analytic cases."""
import numpy as np
import pytest

from agg.errors import InputError, MetricError, ParameterError
from agg.metrics import (EvalReport, average_precision, best_of_k,
                         empirical_ngram_distribution, grammar_sampler,
                         kl_divergence, map_at_horizon, mean_angle_error,
                         ngram_kl, sample_model_futures)
from agg.synthdata import build_preset_grammar, sample_dataset, sample_sequences


def test_map_perfect_prediction():
    labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    assert map_at_horizon(labels.astype(float), labels) == 1.0


def test_map_all_positive_class():
    labels = np.ones((4, 1))
    scores = np.array([[0.1], [0.9], [0.4], [0.2]])
    assert map_at_horizon(scores, labels) == 1.0


def test_map_hand_ranked_case():
    # class 0 ranking: scores (.9, .7, .4, .2), positives at ranks 1 and 3:
    # AP = (1/1 + 2/3)/2 = 5/6. class 1: positives at ranks 1 and 2: AP = 1.
    scores = np.array([[0.9, 0.8], [0.7, 0.6], [0.4, 0.1], [0.2, 0.05]])
    labels = np.array([[1, 1], [0, 1], [1, 0], [0, 0]])
    want = 0.5 * (5.0 / 6.0 + 1.0)
    assert abs(map_at_horizon(scores, labels) - want) < 1e-12


def test_map_monotone_transform_invariance():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(20, 3))
    labels = (rng.random((20, 3)) > 0.6).astype(int)
    labels[0] = 1  # ensure a positive per class
    a = map_at_horizon(scores, labels)
    b = map_at_horizon(np.exp(2.0 * scores) + 5.0, labels)
    assert abs(a - b) < 1e-12


def test_map_errors():
    with pytest.raises(MetricError):
        map_at_horizon(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(InputError):
        map_at_horizon(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(MetricError):
        average_precision(np.zeros(3), np.zeros(3))


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


def test_mae_unit_values():
    e = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert mean_angle_error(e, e) == 0.0
    assert mean_angle_error(e, -e) == 0.0
    # 90 degree rotation about z: q = (cos 45, 0, 0, sin 45)
    q = np.array([[np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)]])
    assert abs(mean_angle_error(e, q) - np.pi / 2) < 1e-9


def test_mae_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    qs = rng.normal(size=(3, 2, 2, 4))
    qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
    a, b, c = qs.reshape(3, 2, 8)
    assert abs(mean_angle_error(a, b) - mean_angle_error(b, a)) < 1e-12
    assert mean_angle_error(a, c) <= mean_angle_error(a, b) + mean_angle_error(b, c) + 1e-12


def test_mae_errors_and_warning():
    e = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(InputError):
        mean_angle_error(np.zeros((1, 4)), e)
    with pytest.raises(InputError):
        mean_angle_error(e, np.ones((2, 4)))
    with pytest.warns(UserWarning):
        mean_angle_error(2.0 * e, e)


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
    with pytest.raises(ParameterError):
        ngram_kl(samples, g, 2, 4, eps=0.0)
    for n in (0, -1):       # n = -1 used to send the exact oracle into an endless DFS
        with pytest.raises(ParameterError, match="n-gram order"):
            ngram_kl(samples, g, n, 4)
        with pytest.raises(ParameterError, match="n-gram order"):
            empirical_ngram_distribution(samples, n, 3)


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
                                       num_rules=5, encoder_channels=8), seed=0)
    X = np.eye(3)[np.zeros((4, 2), dtype=int)]
    futures = sample_model_futures(model, X, 5, num_samples_per_prefix=3, seed=1)
    assert futures.shape == (12, 5)


def test_eval_report_contracts(tmp_path):
    r = EvalReport(per_horizon={1: 0.5, 2: 0.25}, best_of_k_values={10: 0.9},
                   metadata={"model": "m"})
    s = r.to_json()
    assert '"per_horizon"' in s and '"0.5"' not in s
    table = r.render_table()
    assert "metric" in table and "best_of_10" in table
    with pytest.raises(ParameterError):
        EvalReport(per_horizon={2: 0.5, 1: 0.25})
    with pytest.raises(ParameterError):
        EvalReport(per_horizon={1: float("nan")})
