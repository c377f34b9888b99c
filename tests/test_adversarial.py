"""Discriminator, GAN losses, teacher forcing, and small end-to-end runs."""
import itertools
import math

import numpy as np
import pytest

from agg import adversarial
from agg import autodiff as ad
from agg.autodiff import Tensor
from agg.adversarial import (EMISSION_FLOOR, Discriminator, DiscriminatorConfig,
                             GrammarOnlyConfig, TrainConfig, _pruned_loglik, _successors,
                             _tau_at, discriminator_loss, generator_loss,
                             teacher_forced_states, train_adversarial,
                             train_grammar_only)
from agg.errors import DimensionError, InputError, ParameterError
from agg.grammar import GrammarConfig, GrammarModel
from agg.nn import SGD
from agg.synthdata import SequenceDataset, build_preset_grammar, sample_dataset

from helpers import numeric_grad, rel_err

SMALL_D = DiscriminatorConfig(conv_channels=(4, 6, 4))


def tiny_model(**overrides):
    cfg = dict(d_nonterminal=8, d_terminal=4, num_rules=6)
    cfg.update(overrides)
    return GrammarModel(GrammarConfig(**cfg), seed=0)


def test_discriminator_config_validation():
    for bad in ((4, 0, 4), ()):
        with pytest.raises(ParameterError):
            DiscriminatorConfig(conv_channels=bad)


def test_discriminator_output_range_and_zero_head():
    d = Discriminator(4, 8, SMALL_D, seed=0)
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 12, 4))
    n = rng.normal(size=(3, 12, 8))
    p = d(t, n).value
    assert np.all((p > 0) & (p < 1))
    d.head.w.assign(np.zeros_like(d.head.w.value))
    d.head.b.assign(np.zeros_like(d.head.b.value))
    assert np.all(d(t, n).value == 0.5)


def test_discriminator_length_sweep():
    # "same" padding keeps every layer's output length at ceil(L / stride)
    d = Discriminator(3, 5, SMALL_D, seed=1)
    rng = np.random.default_rng(1)
    for L in (1, 2, 5, 16, 64, 256):
        p = d(rng.normal(size=(2, L, 3)), rng.normal(size=(2, L, 5))).value
        assert p.shape == (2,) and np.all(np.isfinite(p))


def test_discriminator_input_errors():
    d = Discriminator(3, 5, SMALL_D, seed=0)
    with pytest.raises(InputError):
        d(np.zeros((1, 0, 3)), np.zeros((1, 0, 5)))
    with pytest.raises(DimensionError):
        d(np.zeros((1, 4, 3)), np.zeros((1, 5, 5)))
    with pytest.raises(DimensionError):
        d(np.zeros((4, 3)), np.zeros((4, 5)))


def test_discriminator_uses_nonterminal_stream():
    d = Discriminator(3, 5, SMALL_D, seed=2)
    rng = np.random.default_rng(3)
    t = rng.normal(size=(4, 10, 3))
    n = rng.normal(size=(4, 10, 5))
    p = d(t, n).value
    p0 = d(t, np.zeros_like(n)).value
    assert np.abs(p - p0).max() > 0


def test_gan_loss_values():
    # trivial equilibrium p = 0.5: d_loss = 2 ln 2, g_loss = ln 2
    half = np.full(4, 0.5)
    assert abs(discriminator_loss(half, half).value - 2 * np.log(2)) < 1e-9
    assert abs(generator_loss(half).value - np.log(2)) < 1e-9
    # hand values
    assert abs(discriminator_loss(np.array([0.9]), np.array([0.1])).value
               - (-np.log(0.9) - np.log(0.9))) < 1e-12
    eps = 1e-9
    assert discriminator_loss(np.array([1 - eps]), np.array([eps])).value < 1e-6
    assert generator_loss(np.array([1 - eps])).value < 1e-6


def test_discriminator_loss_clamp():
    # exact zeros and ones stay finite through the 1e-7 clamp
    v = discriminator_loss(np.array([0.0]), np.array([1.0])).value
    assert np.isfinite(v)
    assert abs(v - 2 * -np.log(1e-7)) < 1e-6


def test_loss_gradients_finite_difference():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.1, 0.9, size=6)
    for fn in (lambda x: discriminator_loss(x, np.full(6, 0.3)), generator_loss):
        t = Tensor(p.copy())
        ad.backward(fn(t))
        num = numeric_grad(lambda v: float(fn(Tensor(v)).value), p)
        assert rel_err(t.grad, num) < 1e-4


def test_teacher_forced_posterior_tracks_emissions():
    # posterior sampling weights each rule by its probability times the
    # indicator that the rule's token is the observed one, so a parsed rule
    # always emits the observed token unless no supported rule does, and a
    # fallback to the rule law is counted
    model = tiny_model()
    emit = np.array([0, 0, 1, 1, 2, 2])           # no rule emits token 3
    model.emit = emit
    n_all, emits = model.rule_tables()[:2]
    assert np.array_equal(emits, emit)

    def parsed_rules(out):
        # every produced state is a row of the rule table
        dist = np.abs(out.reshape(-1, 1, 8) - n_all[None]).max(axis=2)
        assert dist.min(axis=1).max() < 1e-12
        return dist.argmin(axis=1).reshape(out.shape[:2])

    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 4, size=(5, 6))
    batch = np.eye(4)[tokens]
    n0 = np.zeros((5, 8))
    out, fell = teacher_forced_states(model, batch, n0, rng)
    assert out.shape == (5, 6, 8)
    rules = parsed_rules(out)
    emitted = tokens != 3
    assert np.array_equal(emit[rules][emitted], tokens[emitted])
    # a step falls back exactly when its parsed rule misses the token
    assert fell == np.sum(emit[rules] != tokens) == np.sum(~emitted)

    # first-step law over many rows matches the posterior weight
    n = 4000
    p0 = model.rule_probs(np.zeros((1, 8)))[0]
    one_token = np.eye(4)[np.zeros((n, 1), dtype=np.int64)]
    weight = p0 * (emit == 0)
    out, _ = teacher_forced_states(model, one_token, np.zeros((n, 8)),
                                   np.random.default_rng(2))
    freq = np.bincount(parsed_rules(out)[:, 0], minlength=6) / n
    assert np.abs(freq - weight / weight.sum()).max() < 0.03


def test_train_validation_errors():
    model = tiny_model()
    d = Discriminator(4, 8, SMALL_D, seed=0)
    empty = SequenceDataset(records=np.zeros((0, 0), dtype=np.int64), length=0,
                            alphabet_size=4)
    with pytest.raises(InputError):
        train_adversarial(empty, model, d, TrainConfig(iterations=1))
    ds = SequenceDataset(records=np.zeros((4, 6), dtype=np.int64), length=6,
                         alphabet_size=4)
    with pytest.raises(ParameterError):
        train_adversarial(ds, model, d, TrainConfig(iterations=1, prefix_len=9))
    with pytest.raises(ParameterError):
        TrainConfig(iterations=0)
    for removed in ("policy", "d_steps_per_g_step", "generator_loss_variant",
                    "harden_terminals", "sequence_length", "momentum", "tau",
                    "d_lr_scale"):
        with pytest.raises(TypeError):
            TrainConfig(**{removed: None})
    with pytest.raises(TypeError):
        GrammarOnlyConfig(momentum=0.9)
    with pytest.raises(TypeError):
        SGD(model.parameters(), momentum=0.9)


def run_tiny(seed=0, iterations=30, lr0=0.01, **overrides):
    g = build_preset_grammar("bimodal")
    ds = sample_dataset(g, 80, 6, seed=1)
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3, num_rules=6),
                         seed=seed)
    d = Discriminator(3, 8, SMALL_D, seed=seed + 1)
    # a D throttle at 1.0, no entropy bonus and no averaging, unless a test
    # asks for other settings
    stabilizers = dict(d_loss_floor=1.0, entropy_weight=0.0, ema_decay=0.0)
    cfg = TrainConfig(iterations=iterations, batch_size=8, prefix_len=2,
                      seed=seed, lr0=lr0, log_every=10, **{**stabilizers, **overrides})
    return train_adversarial(ds, model, d, cfg), model, d


def test_temperature_starts_at_one_and_anneals_to_tau_end():
    assert all(_tau_at(TrainConfig(iterations=11), it) == 1.0 for it in range(11))
    cfg = TrainConfig(iterations=11, tau_end=0.5)
    assert [_tau_at(cfg, it) for it in (0, 5, 10)] == [1.0, 0.75, 0.5]
    assert _tau_at(TrainConfig(iterations=1, tau_end=0.5), 0) == 1.0


def test_both_optimizers_use_lr0(monkeypatch):
    # the discriminator steps at the generator's learning rate
    lrs = []

    class RecordingSGD(SGD):
        def __init__(self, params, lr0, total_steps):
            lrs.append(lr0)
            super().__init__(params, lr0=lr0, total_steps=total_steps)

    monkeypatch.setattr(adversarial, "SGD", RecordingSGD)
    run_tiny(iterations=1, lr0=0.03)
    assert lrs == [0.03, 0.03]


def test_train_metrics_log_schema():
    result, _, _ = run_tiny()
    assert result.iterations == 30
    assert 0.0 <= result.parse_fallback_share <= 1.0
    its = [r["iteration"] for r in result.metrics]
    assert its[0] == 0 and its[-1] == 29
    for r in result.metrics:
        assert set(r) == {"iteration", "d_loss", "g_loss", "d_accuracy", "lr"}
        assert np.isfinite(r["d_loss"]) and np.isfinite(r["g_loss"])
    assert np.isfinite(result.holdout_accuracy)


def test_train_deterministic():
    a, ma, _ = run_tiny(seed=3)
    b, mb, _ = run_tiny(seed=3)
    assert a.metrics == b.metrics
    for pa, pb in zip(ma.parameters(), mb.parameters()):
        assert np.array_equal(pa.value, pb.value)


def test_train_gradient_reaches_all_generator_params():
    # one iteration with lr > 0 must move (or at least grad-touch) every
    # generator parameter family: encoder, rule head, expander
    _, model, _ = run_tiny(iterations=1, lr0=0.0)
    g = build_preset_grammar("bimodal")
    ds = sample_dataset(g, 40, 6, seed=1)
    d = Discriminator(3, 8, SMALL_D, seed=1)
    rng = np.random.default_rng(0)
    X = ds.one_hot()[:8]
    n0 = model.encode_start(Tensor(X[:, :2]))
    t_fake, n_fake, _, _ = model.unroll_batch(n0, 6, rng)
    p_fake = d(t_fake, n_fake)
    ad.backward(generator_loss(p_fake))
    for group, params in (("encoder", model.encoder.parameters()),
                          ("f_r", [model.w_r, model.b_r]),
                          ("f_n", [model.w_n])):
        mx = max(np.abs(p.grad_or_zero()).max() for p in params)
        assert mx > 0, group


def test_train_ema_and_floor_paths():
    # exercise the optional stabilizers end to end
    result, _, _ = run_tiny(iterations=20, ema_decay=0.99, d_loss_floor=1.2,
                            entropy_weight=0.1)
    assert np.isfinite(result.metrics[-1]["g_loss"])


def test_discriminator_pretraining_separable():
    # D alone on linearly separable real vs noise terminals: >= 95% accuracy
    rng = np.random.default_rng(0)
    d = Discriminator(4, 2, SMALL_D, seed=0)
    from agg.nn import SGD
    opt = SGD(d.parameters(), lr0=0.05, total_steps=500)
    B, L = 16, 8
    for _ in range(300):
        real = np.zeros((B, L, 4))
        real[:, :, 0] = 1.0
        real += rng.normal(scale=0.05, size=real.shape)
        fake = rng.normal(size=(B, L, 4))
        n = np.zeros((B, L, 2))
        p_real = d(real, n)
        p_fake = d(fake, n)
        loss = discriminator_loss(p_real, p_fake)
        ad.backward(loss)
        opt.step()
    acc = 0.5 * (np.mean(p_real.value > 0.5) + np.mean(p_fake.value < 0.5))
    assert acc >= 0.95


def test_one_rule_grammar_converges_to_data(monkeypatch):
    # deterministic dataset, topk_mask=1: the generator follows a single
    # rule chain, and each rule's token is fixed, so the rule head must
    # learn to move the chain onto rules that emit the data's token (the
    # mask is straight-through, so a dropped rule gets gradient); D ends
    # near chance once it matches
    seq = np.array([2, 2, 2, 2, 2, 2], dtype=np.int64)
    ds = SequenceDataset(records=np.tile(seq, (64, 1)), length=6, alphabet_size=3)
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3,
                                       num_rules=4, topk_mask=1), seed=0)
    # the (4,6,4) stack can collapse to a constant output here; use a wider D
    d = Discriminator(3, 8, DiscriminatorConfig(conv_channels=(16, 32, 16)),
                      seed=1)
    # a quarter of the 64 rows held out, so the accuracy below is over 16
    monkeypatch.setattr(adversarial, "HOLDOUT_FRACTION", 0.25)
    cfg = TrainConfig(iterations=800, batch_size=8, prefix_len=2, seed=0,
                      lr0=0.01, d_loss_floor=1.0, entropy_weight=0.0,
                      ema_decay=0.0, log_every=200)
    result = train_adversarial(ds, model, d, cfg)
    n0 = model.encode_start(ds.one_hot()[:1, :2]).value[0]
    sample = model.enumerate_all(n0, 6, k_cap=1)[0][0]
    got = [int(np.argmax(t)) for t in sample.terminals]
    assert got == seq.tolist()
    assert 0.35 <= result.holdout_accuracy <= 0.65


def test_grammar_only_training_reduces_nll():
    g = build_preset_grammar("bimodal")
    ds = sample_dataset(g, 100, 6, seed=0)
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3,
                                       num_rules=6), seed=0)
    cfg = GrammarOnlyConfig(iterations=120, batch_size=16, k_cap=2,
                            prefix_len=2, seed=0, lr0=0.05, log_every=20)
    rows = train_grammar_only(ds, model, cfg)
    assert rows[-1]["nll"] < rows[0]["nll"]


def test_config_values_must_be_positive():
    for key in ("iterations", "batch_size", "k_cap", "max_paths", "prefix_len",
                "log_every"):
        with pytest.raises(ParameterError, match=key):
            GrammarOnlyConfig(**{key: 0})
    for key in ("iterations", "batch_size", "prefix_len", "log_every"):
        with pytest.raises(ParameterError, match=key):
            TrainConfig(**{key: -1})
    for key, value in (("tau_end", -0.5), ("tau_end", math.nan), ("ema_decay", -0.1),
                       ("ema_decay", 1.0), ("ema_decay", 2.0)):
        with pytest.raises(ParameterError, match=key):
            TrainConfig(**{key: value})
    # edges that stay valid; 0 turns the anneal, the floor and the average off
    TrainConfig(tau_end=0.0, d_loss_floor=0.0, ema_decay=0.0)


def test_optimizer_values_are_checked():
    # lr0 < 0 would train uphill
    for config in (TrainConfig, GrammarOnlyConfig):
        for value in (-1.0, -1e-12, math.nan):
            with pytest.raises(ParameterError, match="lr0"):
                config(lr0=value)
        config(lr0=0.0)                                  # the edge that stays valid


def test_grammar_only_prefix_len_check():
    ds = SequenceDataset(records=np.zeros((4, 6), dtype=np.int64), length=6,
                         alphabet_size=4)
    with pytest.raises(ParameterError, match="prefix_len"):
        train_grammar_only(ds, tiny_model(),
                           GrammarOnlyConfig(iterations=1, prefix_len=7))


# ---------------------------------------------------------------------------
# _pruned_loglik against plain-numpy and plain-Python oracles
# ---------------------------------------------------------------------------

def _unmasked_probs(model, n):
    """The rule law at states n with no top-k mask."""
    s = np.asarray(n, dtype=np.float64) @ model.w_r.value + model.b_r.value
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _tables(model, n0):
    """(p0, t_all, probs_all) as numpy arrays, the tables _pruned_loglik
    reads: the unmasked rule laws at n0 and at the rows of W_n, and t_all,
    whose [r, c] is 1 when rule r emits token c, else EMISSION_FLOOR."""
    t_all = np.where(model.emit[:, None] == np.arange(model.config.d_terminal),
                     1.0, EMISSION_FLOOR)
    return _unmasked_probs(model, n0), t_all, _unmasked_probs(model, model.w_n.value)


def _forward_loglik(p0, t_all, probs_all, tokens):
    """Batch mean of log p(tokens): the exact forward recursion."""
    alpha = p0 * t_all[:, tokens[:, 0]].T
    for j in range(1, tokens.shape[1]):
        alpha = (alpha @ probs_all) * t_all[:, tokens[:, j]].T
    return float(np.mean(np.log(alpha.sum(axis=1))))


def _pruned_loglik_loop(p0, t_all, probs_all, tokens, k, max_paths,
                        lower_first=True):
    """The pruning rule, stated literally: per parent keep the k successors
    of largest probability times emission weight at the token, ties to the
    lower rule index; then keep the max_paths heaviest candidates, ties to
    the earlier candidate. lower_first=False breaks both kinds of tie the
    other way."""
    p0, t_all, probs_all = p0.tolist(), t_all.tolist(), probs_all.tolist()
    tie = 1 if lower_first else -1
    R = len(probs_all)

    def top(weights, n):
        return sorted(range(len(weights)), key=lambda i: (-weights[i], tie * i))[:n]

    def weighed(probs, tok):
        return [probs[r] * t_all[r][tok] for r in range(R)]

    total = 0.0
    for b, x in enumerate(tokens.tolist()):
        paths = [(r, p0[b][r] * t_all[r][x[0]]) for r in top(weighed(p0[b], x[0]), k)]
        for tok in x[1:]:
            cands = [(s, w * probs_all[r][s] * t_all[s][tok])
                     for r, w in paths for s in top(weighed(probs_all[r], tok), k)]
            paths = [cands[i] for i in top([w for _, w in cands], max_paths)]
        total += math.log(max(sum(w for _, w in paths), 1e-300))
    return total / len(tokens)


def _loglik(model, tokens, n0, k_cap, max_paths):
    return float(_pruned_loglik(model, tokens, Tensor(n0), k_cap, max_paths).value)


def test_pruned_loglik_unpruned_equals_forward_recursion():
    # R = 4, L = 3: all 4^3 = 64 paths fit, so nothing is pruned
    model = tiny_model(num_rules=4, d_terminal=3)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 3, size=(5, 3))
    n0 = rng.normal(size=(5, 8))
    exact = _forward_loglik(*_tables(model, n0), tokens)
    assert abs(_loglik(model, tokens, n0, 4, 64) - exact) < 1e-12
    # pruning only removes mass
    assert _loglik(model, tokens, n0, 2, 3) < exact


@pytest.mark.parametrize("covered", [True, False])
def test_pruned_loglik_is_the_path_sum_by_brute_force(covered):
    # k_cap = R and max_paths >= R^L keep every path; a path weighs its rule
    # probabilities times 1 at each step whose rule emits the token, and
    # EMISSION_FLOOR at each other step. Uncovered: no rule emits token 3,
    # so every path of a row that reads it is floored there
    R, L = 6, 3
    model = tiny_model(num_rules=R)
    if not covered:
        model.emit[model.emit == 3] = 0
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, 4, size=(5, L))
    n0 = rng.normal(size=(5, 8))
    p0, probs_all = model.rule_probs(n0), model.rule_tables().probs_all
    want = 0.0
    for b, row in enumerate(tokens):
        total = 0.0
        for path in itertools.product(range(R), repeat=L):
            w = p0[b, path[0]]
            for prev, r in zip(path, path[1:]):
                w *= probs_all[prev, r]
            for r, tok in zip(path, row):
                w *= 1.0 if model.emit[r] == tok else EMISSION_FLOOR
            total += w
        want += math.log(total)
    want /= len(tokens)
    assert abs(_loglik(model, tokens, n0, R, R ** L) - want) < 1e-12
    assert covered or (tokens == 3).any()


def test_pruned_loglik_matches_literal_pruning_rule_topk_mask():
    # the beam fits the unmasked law: a top-1 mask changes nothing in it
    model = tiny_model(d_terminal=3, topk_mask=1)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 3, size=(6, 5))
    n0 = rng.normal(size=(6, 8))
    tables = _tables(model, n0)
    want = _pruned_loglik_loop(*tables, tokens, 2, 3)
    assert abs(_loglik(model, tokens, n0, 2, 3) - want) < 1e-12
    model.config.topk_mask = None
    assert abs(_loglik(model, tokens, n0, 2, 3) - want) < 1e-12


def test_pruned_loglik_ranks_a_floored_rule_above_a_rarer_emitter():
    # rules 0-2 emit token 0, rules 3-5 other tokens. From rule 5, rules 0-2
    # are about e^-100 as likely as rules 3 and 4, so at token 0 rules 3 and
    # 4 (weighed e^-50) outrank every rule that emits the token; the two
    # kept successors are not the two best emitters there
    R, C = 6, 3
    model = tiny_model(num_rules=R, d_nonterminal=R, d_terminal=C)
    model.emit = np.array([0, 0, 0, 1, 1, 2])
    logits = np.zeros((R, R))
    logits[5, :3] = [-100.0, -101.0, -102.0]
    model.w_n.assign(np.eye(R))                  # n_all = one-hot rule rows
    model.w_r.assign(logits)
    model.b_r.assign(np.zeros(R))
    tokens = np.array([[2, 0, 0], [2, 2, 0]])
    n0 = np.eye(R)[[5, 5]]
    want = _pruned_loglik_loop(*_tables(model, n0), tokens, 2, 4)
    assert abs(_loglik(model, tokens, n0, 2, 4) - want) < 1e-9 * abs(want)


@pytest.mark.parametrize("C", [1, 3, 6, 16])
def test_successors_are_the_stable_argsort_of_the_weighted_law(C):
    # the k best rules of P * e in each row, ties to the lower rule: in rows
    # where the k best emitters of the token come first, where the emitters
    # of token 0 weigh less than the floor, where every rule ties, and where
    # a law holds a NaN; with C = R fewer than k rules emit each token
    R, k = 16, 4
    rng = np.random.default_rng(C)
    emit = rng.permutation(R) % C
    P = rng.random((R, R))
    P[1] = np.where(emit == 0, 1e-30, 1.0)
    P[2] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    P[3, 5] = np.nan
    for c in range(C):
        e = np.where(emit == c, 1.0, EMISSION_FLOOR)
        want = np.argsort(-(P * e), axis=1, kind="stable")[:, :k]
        assert np.array_equal(_successors(P, e, emit == c, k), want)


def test_pruned_loglik_matches_literal_pruning_rule_with_ties():
    # Small-integer rule logits give exact ties between successors, and rules
    # that share a token give exact ties between candidates. The
    # successor logits differ per rule, so which tied rule survives changes
    # the likelihood (checked below by breaking ties the other way).
    R, C = 6, 3
    model = tiny_model(num_rules=R, d_nonterminal=R, d_terminal=C)
    rng = np.random.default_rng(2)
    logits = rng.integers(0, 3, size=(R, R)).astype(np.float64)
    model.emit = rng.integers(0, C, size=R)
    model.w_n.assign(np.eye(R))                  # n_all = one-hot rule rows
    model.w_r.assign(logits)
    model.b_r.assign(np.zeros(R))
    tokens = rng.integers(0, C, size=(8, 6))
    n0 = np.eye(R)[rng.integers(0, R, size=8)]
    tables = _tables(model, n0)
    for k_cap, max_paths in ((2, 3), (3, 2), (2, 5)):
        want = _pruned_loglik_loop(*tables, tokens, k_cap, max_paths)
        assert abs(_loglik(model, tokens, n0, k_cap, max_paths) - want) < 1e-12
        flipped = _pruned_loglik_loop(*tables, tokens, k_cap, max_paths,
                                      lower_first=False)
        assert abs(flipped - want) > 1e-6
