"""The whole-array samplers and the n-gram counter against literal per-row
references: the same seeded draws must give the same arrays and values."""
import numpy as np

from agg import autodiff as ad
from agg.autodiff import Tensor
from agg.grammar import GrammarConfig, GrammarModel, activity_config
from agg.metrics import empirical_ngram_distribution
from agg.synthdata import (GroundTruthGrammar, build_preset_grammar, sample_dataset,
                           sample_sequence)

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


def ref_sample_rule_paths(model, n0, length, num_samples, seed=0):
    """Gather each path's probability row, cumsum it and compare every step."""
    rng = np.random.default_rng(seed)
    _, _, probs_all = model.rule_tables()
    with ad.no_grad():
        p0 = model.rule_probs(Tensor(np.asarray(n0, dtype=np.float64))).value
    p0 = np.repeat(p0, num_samples, axis=0)
    N = p0.shape[0]
    paths = np.empty((N, length), dtype=np.int64)
    cum = np.cumsum(p0, axis=-1)
    cum[:, -1] = 1.0
    idx = (cum < rng.random((N, 1))).sum(axis=-1)
    paths[:, 0] = idx
    for j in range(1, length):
        p = probs_all[idx]
        cum = np.cumsum(p, axis=-1)
        cum[:, -1] = 1.0
        idx = (cum < rng.random((N, 1))).sum(axis=-1)
        paths[:, j] = idx
    return paths


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


def presets():
    yield build_preset_grammar("walk_stop_run", branch_probs=(0.5, 0.3, 0.2))
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
                got = model.sample_rule_paths(n0, length, 5, seed=seed)
                want = ref_sample_rule_paths(model, n0, length, 5, seed=seed)
                assert np.array_equal(got, want)


def test_sample_rule_paths_tie_keeps_the_lower_rule():
    # a step-1 uniform equal to a cumulative probability selects that rule
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=4, num_rules=6,
                                       branching_k=2, encoder_channels=8), seed=8)
    u = np.random.default_rng(0).random(2)[1]
    probs_all = np.zeros((6, 6))
    probs_all[:, 0], probs_all[:, 1] = u, 1.0 - u
    n_all, t_all, _ = model.rule_tables()
    model.rule_tables = lambda: (n_all, t_all, probs_all)
    n0 = np.ones((1, 8))
    want = ref_sample_rule_paths(model, n0, 2, 1, seed=0)
    assert want[0, 1] == 0
    assert np.array_equal(model.sample_rule_paths(n0, 2, 1, seed=0), want)


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
