"""The whole-array samplers, the n-gram counter, the batched generate and
the whole-array dataset loader against literal per-row references: the same
seeded draws must give the same arrays, values and bytes, and the same input
the same error."""
import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agg import autodiff as ad
from agg import cli
from agg.autodiff import Tensor
from agg.errors import ParameterError, ParseError
from agg.grammar import GrammarConfig, GrammarModel, activity_config
from agg.metrics import empirical_ngram_distribution
from agg.synthdata import (GroundTruthGrammar, SequenceDataset, build_preset_grammar,
                           load_dataset, sample_dataset, sample_sequence)

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


# ---------------------------------------------------------------------------
# agg generate: one batched table sampler against one unroll per future
# ---------------------------------------------------------------------------

def ref_generate(cfg, path):
    """The per-future loop of cmd_generate: one B=1 unroll per future, each
    seeded by its own SeedSequence child. Returns each future's
    (rule_indices, log_prob)."""
    model, _ = cli._load_trained(cfg["run_dir"])
    dataset = cli.load_dataset(cfg["dataset"])
    X = dataset.one_hot()
    prefixes = X[:cfg["num_prefixes"], :cfg["prefix_len"]]
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(prefixes) * cfg["k"])
    rows = []
    with open(path, "w") as f:
        with ad.no_grad():
            n0 = model.encode_start(prefixes).value
        for i in range(len(prefixes)):
            for j in range(cfg["k"]):
                sample = model.unroll(n0[i], cfg["horizon"], "sample_hard",
                                      rng_seed=seeds[i * cfg["k"] + j])
                f.write(json.dumps({
                    "prefix_index": i,
                    "sample_index": j,
                    "rule_indices": [int(r) for r in sample.rule_indices],
                    "log_prob": sample.log_prob,
                    "terminals": [np.asarray(t).tolist() for t in sample.terminals],
                }) + "\n")
                rows.append((sample.rule_indices, sample.log_prob))
    return model, n0, seeds, rows


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


@pytest.mark.parametrize("topk", [4, 0])
@pytest.mark.parametrize("horizon", [1, 12])
@pytest.mark.parametrize("seed", [0, 5])
def test_generate_equals_unroll_per_future(trained_runs, tmp_path, topk, horizon, seed):
    dataset, runs = trained_runs
    cfg = dict(cli.GENERATE_DEFAULTS, run_dir=str(runs[topk]), dataset=str(dataset),
               k=3, horizon=horizon, num_prefixes=7, seed=seed, out_dir=str(tmp_path))
    argv = ["generate"] + [f"--set={key}={value}" for key, value in cfg.items()]
    assert _quiet_main(argv) == 0
    ref_path = tmp_path / "ref.jsonl"
    model, n0, seeds, rows = ref_generate(cfg, ref_path)
    got = (tmp_path / "futures.jsonl").read_bytes()
    assert got == ref_path.read_bytes() and got.count(b"\n") == 21
    paths, logp = model.sample_hard_paths(n0, horizon, seeds)
    assert [p.tolist() for p in paths] == [list(r) for r, _ in rows]
    assert logp.tolist() == [lp for _, lp in rows]


def test_sample_hard_paths_checks_its_seeds():
    model = GrammarModel(activity_config(6), seed=0)
    n0 = np.zeros((2, 64))
    seeds = np.random.SeedSequence(0).spawn(3)
    with pytest.raises(ParameterError):
        model.sample_hard_paths(n0, 4, seeds)
    with pytest.raises(ParameterError):
        model.sample_hard_paths(n0, 0, seeds[:2])
    paths, logp = model.sample_hard_paths(n0, 4, [])
    assert paths.shape == (0, 4) and logp.shape == (0,)


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
        return SequenceDataset(records=[], length=0, alphabet_size=alphabet_size or 0)
    if alphabet_size is None:
        alphabet_size = max(int(r.max()) for r in records) + 1
    return SequenceDataset(records=records, length=len(records[0]),
                           alphabet_size=alphabet_size)


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
                     '{"tokens": [9223372036854775808, -1, 1, 2]}']),
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
def test_load_dataset_equals_per_line_loader(tmp_path_factory, lines, alphabet_size):
    path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        want = ref_load_dataset(path, alphabet_size)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            load_dataset(path, alphabet_size)
        assert str(got.value) == str(e)
        return
    got = load_dataset(path, alphabet_size)
    assert (got.length, got.alphabet_size, len(got)) == (want.length, want.alphabet_size,
                                                         len(want))
    shape = (len(want), want.length)
    assert np.array_equal(np.asarray(got.records, dtype=np.int64).reshape(shape),
                          np.asarray(want.records, dtype=np.int64).reshape(shape))


def test_sequence_dataset_reports_the_first_bad_record():
    short, wide = np.array([0, 1]), np.array([0, 9, 1])
    good = np.array([0, 1, 2])
    with pytest.raises(ParameterError, match="uniform length"):
        SequenceDataset(records=[good, short, wide], length=3, alphabet_size=4)
    with pytest.raises(ParameterError, match="alphabet"):
        SequenceDataset(records=[good, wide, short], length=3, alphabet_size=4)
    with pytest.raises(ParameterError, match="alphabet"):
        SequenceDataset(records=np.stack([good, wide]), length=3, alphabet_size=4)
    SequenceDataset(records=[good, wide], length=3)       # no alphabet, no bound
