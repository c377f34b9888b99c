"""Ground-truth grammars, exact oracles, dataset round trips and parse errors."""
import numpy as np
import pytest

from agg.errors import ParameterError, ParseError, ResourceError
from agg.synthdata import (GroundTruthGrammar, build_preset_grammar,
                           exact_future_distribution, exact_ngram_distribution,
                           load_dataset, load_grammar,
                           sample_dataset, sample_sequence, save_dataset,
                           save_grammar)


def test_presets_well_formed():
    for name in ("walk_stop_run", "bimodal", "recipe", "random"):
        g = build_preset_grammar(name)
        by_state = {}
        for st, _, _, p in g.rules:
            by_state[st] = by_state.get(st, 0.0) + p
        for s in g.states:
            assert abs(by_state[s] - 1.0) < 1e-9
    with pytest.raises(ParameterError):
        build_preset_grammar("nope")
    for sizes in (dict(n_states=0), dict(n_tokens=0)):
        with pytest.raises(ParameterError):
            build_preset_grammar("random", **sizes)


def test_walk_stop_run_probs():
    g = build_preset_grammar("walk_stop_run")
    start_rules = [(tok, p) for st, tok, _, p in g.rules if st == "W"]
    assert dict(start_rules) == {"walking": 0.8, "stopping": 0.1, "running": 0.1}


def test_random_preset_trivial_and_deterministic():
    g1 = build_preset_grammar("random", seed=5, n_states=1, n_tokens=1)
    assert g1.rules == [("S0", "t0", "S0", 1.0)]
    a = build_preset_grammar("random", seed=9)
    b = build_preset_grammar("random", seed=9)
    assert a.rules == b.rules


def test_grammar_validation():
    with pytest.raises(ParameterError):   # probs don't sum to 1
        GroundTruthGrammar(["A"], ["a"], "A", [("A", "a", "A", 0.5)])
    with pytest.raises(ParameterError):   # unknown next state
        GroundTruthGrammar(["A"], ["a"], "A", [("A", "a", "B", 1.0)])
    with pytest.raises(ParameterError):   # unreachable state
        GroundTruthGrammar(["A", "B"], ["a"], "A",
                           [("A", "a", "A", 1.0), ("B", "a", "B", 1.0)])
    with pytest.raises(ParameterError):   # negative probability
        GroundTruthGrammar(["A"], ["a", "b"], "A",
                           [("A", "a", "A", 1.5), ("A", "b", "A", -0.5)])
    with pytest.raises(ParameterError):   # NaN probability
        GroundTruthGrammar(["A"], ["a", "b"], "A",
                           [("A", "a", "A", 1.0), ("A", "b", "A", float("nan"))])
    # a repeated state is counted twice by the oracles, and a repeated token
    # adds a token that no rule emits
    with pytest.raises(ParameterError, match="^repeated state name$"):
        GroundTruthGrammar(["A", "A"], ["a"], "A", [("A", "a", "A", 1.0)])
    with pytest.raises(ParameterError, match="^repeated token name$"):
        GroundTruthGrammar(["A"], ["a", "a"], "A", [("A", "a", "A", 1.0)])


def test_sample_deterministic_grammar():
    g = GroundTruthGrammar(["A", "B"], ["x", "y"], "A",
                           [("A", "x", "B", 1.0), ("B", "y", "A", 1.0)])
    seq = sample_sequence(g, 6, np.random.default_rng(0))
    assert seq.tolist() == [0, 1, 0, 1, 0, 1]


def test_sample_first_token_frequencies():
    g = build_preset_grammar("walk_stop_run")
    rng = np.random.default_rng(0)
    n = 10**4
    firsts = np.array([sample_sequence(g, 1, rng)[0] for _ in range(n)])
    for tok, p in ((0, 0.8), (1, 0.1), (2, 0.1)):
        freq = float(np.mean(firsts == tok))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 3 * sigma + 1e-9


def test_sampling_reproducible():
    g = build_preset_grammar("recipe")
    a = sample_dataset(g, 20, 8, seed=3)
    b = sample_dataset(g, 20, 8, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a.records, b.records))


def test_exact_future_hand_case():
    # {W -> aW 0.7, W -> bU 0.3, U -> bU 1.0}, h=2 -> {aa: .49, ab: .21, bb: .30}
    g = GroundTruthGrammar(["W", "U"], ["a", "b"], "W",
                           [("W", "a", "W", 0.7), ("W", "b", "U", 0.3),
                            ("U", "b", "U", 1.0)])
    d = exact_future_distribution(g, horizon=2)
    assert abs(d[(0, 0)] - 0.49) < 1e-12
    assert abs(d[(0, 1)] - 0.21) < 1e-12
    assert abs(d[(1, 1)] - 0.30) < 1e-12
    assert (1, 0) not in d


def test_exact_future_h1_is_rule_distribution():
    g = build_preset_grammar("recipe")
    d = exact_future_distribution(g, horizon=1)
    assert abs(d[(0,)] - 1.0) < 1e-12


def test_exact_future_total_mass():
    # horizons capped so |tokens|^h stays inside the default budget
    for name, hs in (("walk_stop_run", (1, 4, 8, 12)),
                     ("bimodal", (1, 4, 8, 12)),
                     ("recipe", (1, 4, 7))):
        g = build_preset_grammar(name)
        for h in hs:
            d = exact_future_distribution(g, horizon=h)
            assert abs(sum(d.values()) - 1.0) < 1e-12


def test_exact_future_budget():
    g = build_preset_grammar("recipe")
    with pytest.raises(ResourceError):
        exact_future_distribution(g, horizon=12, budget=10)


def test_negative_horizon_and_order_are_rejected():
    # the DFS never reaches a prefix of negative length, so these never ended
    g = build_preset_grammar("recipe")
    with pytest.raises(ParameterError, match="horizon"):
        exact_future_distribution(g, horizon=-1)
    assert exact_future_distribution(g, horizon=0) == {(): 1.0}
    for n in (0, -1):
        with pytest.raises(ParameterError, match="n-gram order"):
            exact_ngram_distribution(g, n, 12)


def test_empirical_matches_marginals():
    g = build_preset_grammar("bimodal")
    rng = np.random.default_rng(1)
    n = 10**4
    seqs = np.stack([sample_sequence(g, 4, rng) for _ in range(n)])
    # per-step token marginals, summed from the exact string distribution
    marg = np.zeros((4, g.num_tokens))
    for gram, p in exact_future_distribution(g, horizon=4).items():
        marg[np.arange(4), gram] += p
    for j in range(4):
        for tok in range(g.num_tokens):
            p = marg[j, tok]
            freq = float(np.mean(seqs[:, j] == tok))
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) < 3 * sigma + 1e-3


def test_dataset_roundtrip(tmp_path):
    g = build_preset_grammar("recipe")
    ds = sample_dataset(g, 30, 7, seed=0)
    path = tmp_path / "d.jsonl"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.length == 7 and back.alphabet_size == g.num_tokens
    assert all(np.array_equal(a, b) for a, b in zip(ds.records, back.records))


def test_empty_file_is_empty_dataset(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("")
    assert len(load_dataset(path)) == 0


def test_empty_dataset_records_are_an_empty_int64_array(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text("")
    for alphabet_size, width in ((None, 0), (3, 3)):
        ds = load_dataset(path, alphabet_size=alphabet_size)
        assert ds.records.shape == (0, 0) and ds.records.dtype == np.int64
        assert ds.one_hot().shape == (0, 0, width)


def test_parse_errors_name_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"tokens": [0, 1]}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)
    path.write_text('{"tokens": [0, 5]}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_dataset(path, alphabet_size=3)
    path.write_text('{"tokens": [0, 1]}\n{"tokens": [0]}\n')
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)
    path.write_text('{"other": 1}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_dataset(path)
    path.write_text('{"tokens": []}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_dataset(path)


@pytest.mark.parametrize("row", [
    '{"tokens": [0, 1, "x"]}', '{"tokens": [0, 1.5, 2]}', '{"tokens": [true, false, true]}',
    '{"tokens": 3}', '{"tokens": [[0], [1], [2]]}', '{"tokens": null}',
    '{"frames": [[0.5], ["a"], [1.0]]}', '{"frames": [[0.5], [1.0, 2.0], [1.0]]}',
    '[0, 1, 2]', '7', '{"tokens": [true, 1, 0]}', '{"frames": [[true], [0.5], [1.0]]}',
])
def test_non_numeric_rows_name_lines(tmp_path, row):
    # a frames row (continuous data) is not a record kind
    path = tmp_path / "bad.jsonl"
    path.write_text('{"tokens": [0, 1, 2]}\n' + row + "\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)


def test_grammar_file_roundtrip(tmp_path):
    g = build_preset_grammar("bimodal")
    path = tmp_path / "g.json"
    save_grammar(path, g)
    back = load_grammar(path)
    assert back.states == g.states and back.rules == g.rules
    for bad in (b"not json", b"\xff"):
        path.write_bytes(bad)
        with pytest.raises(ParseError):
            load_grammar(path)
