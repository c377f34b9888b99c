"""Discriminator, GAN losses, teacher forcing, and small end-to-end runs."""
import math

import numpy as np
import pytest

from agg import autodiff as ad
from agg.autodiff import Tensor
from agg.adversarial import (Discriminator, DiscriminatorConfig,
                             GrammarOnlyConfig, TrainConfig, _pruned_loglik,
                             discriminator_loss, generator_loss,
                             teacher_forced_states, train_adversarial,
                             train_grammar_only)
from agg.errors import DimensionError, InputError, ParameterError
from agg.grammar import GrammarConfig, GrammarModel
from agg.synthdata import SequenceDataset, build_preset_grammar, sample_dataset

from helpers import numeric_grad, rel_err

SMALL_D = DiscriminatorConfig(conv_channels=(4, 6, 4))


def tiny_model(**overrides):
    cfg = dict(d_nonterminal=8, d_terminal=4, num_rules=6, branching_k=2,
               encoder_channels=8)
    cfg.update(overrides)
    return GrammarModel(GrammarConfig(**cfg), seed=0)


def test_discriminator_config_validation():
    with pytest.raises(ParameterError):
        DiscriminatorConfig(conv_channels=(4, 0, 4))
    with pytest.raises(ParameterError):
        DiscriminatorConfig(kernel_width=4)
    for bad in (dict(conv_channels=()), dict(kernel_width=-1), dict(stride=0)):
        with pytest.raises(ParameterError):
            DiscriminatorConfig(**bad)


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
    # same padding keeps every layer's output length at ceil(L / stride)
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
    # trivial equilibrium p = 0.5: d_loss = 2 ln 2, saturating g_loss = -ln 2
    half = np.full(4, 0.5)
    assert abs(discriminator_loss(half, half).value - 2 * np.log(2)) < 1e-9
    assert abs(generator_loss(half, "saturating").value + np.log(2)) < 1e-9
    # hand values
    assert abs(discriminator_loss(np.array([0.9]), np.array([0.1])).value
               - (-np.log(0.9) - np.log(0.9))) < 1e-12
    eps = 1e-9
    assert discriminator_loss(np.array([1 - eps]), np.array([eps])).value < 1e-6
    assert generator_loss(np.array([1 - eps])).value < 1e-6
    with pytest.raises(ParameterError):
        generator_loss(np.array([0.5]), "wasserstein")


def test_discriminator_loss_clamp():
    # exact zeros and ones stay finite through the 1e-7 clamp
    v = discriminator_loss(np.array([0.0]), np.array([1.0])).value
    assert np.isfinite(v)
    assert abs(v - 2 * -np.log(1e-7)) < 1e-6


def test_loss_gradients_finite_difference():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.1, 0.9, size=6)
    for fn in (lambda x: discriminator_loss(x, np.full(6, 0.3)),
               lambda x: generator_loss(x, "non_saturating"),
               lambda x: generator_loss(x, "saturating")):
        t = Tensor(p.copy())
        ad.backward(fn(t))
        num = numeric_grad(lambda v: float(fn(Tensor(v)).value), p)
        assert rel_err(t.grad, num) < 1e-4


def test_generator_loss_variants():
    # both variants decrease in p_fake (descent raises p_fake); they differ in
    # which regime carries gradient: non-saturating is strong when D wins
    # (p_fake small), saturating is strong only near p_fake = 1
    def grad_at(p, variant):
        t = Tensor(np.array([p]))
        ad.backward(generator_loss(t, variant))
        return float(t.grad[0])

    for p in (0.1, 0.5, 0.9):
        assert grad_at(p, "non_saturating") < 0
        assert grad_at(p, "saturating") < 0
    assert abs(grad_at(0.1, "non_saturating")) > abs(grad_at(0.1, "saturating"))
    assert abs(grad_at(0.9, "saturating")) > abs(grad_at(0.9, "non_saturating"))


def test_teacher_forced_posterior_tracks_emissions():
    # posterior sampling weights each rule by its probability times its
    # emission at the observed token: with hardened terminals the emission is
    # the indicator that the rule's argmax terminal is the token, so a parsed
    # rule always emits the observed token unless no supported rule does;
    # the soft parse weights by the terminal distribution itself, and a
    # fallback to it is counted
    model = tiny_model()
    emit = np.array([0, 0, 1, 1, 2, 2])           # no rule emits token 3
    w_t = np.zeros((6, 4))
    w_t[np.arange(6), emit] = 2.0
    model.f_t.layers[0].w.assign(w_t)
    n_all, t_all, _ = model.rule_tables()
    assert np.array_equal(np.argmax(t_all, axis=1), emit)

    def parsed_rules(out):
        # every produced state is a row of the rule table
        dist = np.abs(out.reshape(-1, 1, 8) - n_all[None]).max(axis=2)
        assert dist.min(axis=1).max() < 1e-12
        return dist.argmin(axis=1).reshape(out.shape[:2])

    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 4, size=(5, 6))
    batch = np.eye(4)[tokens]
    n0 = np.zeros((5, 8))
    out, fell = teacher_forced_states(model, batch, n0, rng, harden=True,
                                      return_fallbacks=True)
    assert out.shape == (5, 6, 8)
    rules = parsed_rules(out)
    emitted = tokens != 3
    assert np.array_equal(emit[rules][emitted], tokens[emitted])
    # a step falls back exactly when its parsed rule misses the token
    assert fell == np.sum(emit[rules] != tokens) == np.sum(~emitted)
    assert parsed_rules(teacher_forced_states(model, batch, n0, rng)).shape == (5, 6)

    # first-step law over many rows matches the posterior weight
    n = 4000
    with ad.no_grad():
        p0 = model.rule_probs(Tensor(np.zeros((1, 8)))).value[0]
    one_token = np.eye(4)[np.zeros((n, 1), dtype=np.int64)]
    for harden, weight in ((True, p0 * (emit == 0)), (False, p0 * t_all[:, 0])):
        out = teacher_forced_states(model, one_token, np.zeros((n, 8)),
                                    np.random.default_rng(2), harden=harden)
        freq = np.bincount(parsed_rules(out)[:, 0], minlength=6) / n
        assert np.abs(freq - weight / weight.sum()).max() < 0.03


def test_train_validation_errors():
    model = tiny_model()
    d = Discriminator(4, 8, SMALL_D, seed=0)
    empty = SequenceDataset(records=[], length=0, alphabet_size=4)
    with pytest.raises(InputError):
        train_adversarial(empty, model, d, TrainConfig(iterations=1))
    ds = SequenceDataset(records=[np.zeros(6, dtype=np.int64)] * 4, length=6,
                         alphabet_size=4)
    with pytest.raises(ParameterError):
        train_adversarial(ds, model, d, TrainConfig(iterations=1, prefix_len=9))
    with pytest.raises(ParameterError):
        TrainConfig(iterations=0)
    with pytest.raises(ParameterError):
        TrainConfig(generator_loss_variant="hinge")


def run_tiny(seed=0, iterations=30, lr0=0.01, **overrides):
    g = build_preset_grammar("bimodal")
    ds = sample_dataset(g, 80, 6, seed=1)
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3,
                                       num_rules=6, branching_k=2,
                                       encoder_channels=8), seed=seed)
    d = Discriminator(3, 8, SMALL_D, seed=seed + 1)
    cfg = TrainConfig(iterations=iterations, batch_size=8, prefix_len=2,
                      seed=seed, lr0=lr0, log_every=10, **overrides)
    return train_adversarial(ds, model, d, cfg), model, d


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
    # generator parameter family: encoder, rule head, both expanders
    _, model, _ = run_tiny(iterations=1, lr0=0.0)
    g = build_preset_grammar("bimodal")
    ds = sample_dataset(g, 40, 6, seed=1)
    d = Discriminator(3, 8, SMALL_D, seed=1)
    rng = np.random.default_rng(0)
    X = ds.one_hot()[:8]
    n0 = model.encode_start(Tensor(X[:, :2]))
    t_fake, n_fake, _, _ = model.unroll_batch(n0, 6, "sample_hard", rng)
    p_fake = d(t_fake, n_fake)
    ad.backward(generator_loss(p_fake))
    for group, params in (("encoder", model.encoder.parameters()),
                          ("f_r", model.f_r.parameters()),
                          ("f_n", model.f_n.parameters()),
                          ("f_t", model.f_t.parameters())):
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


def test_one_rule_grammar_converges_to_data():
    # deterministic dataset, topk_mask=1: the generator follows a single
    # frozen rule chain, so the expanders must learn a constant emission;
    # D ends near chance once it matches
    seq = np.array([2, 2, 2, 2, 2, 2], dtype=np.int64)
    ds = SequenceDataset(records=[seq.copy() for _ in range(64)], length=6,
                         alphabet_size=3)
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3,
                                       num_rules=4, branching_k=1,
                                       topk_mask=1, encoder_channels=8), seed=0)
    # the (4,6,4) stack can collapse to a constant output here; use a wider D
    d = Discriminator(3, 8, DiscriminatorConfig(conv_channels=(16, 32, 16)),
                      seed=1)
    cfg = TrainConfig(iterations=800, batch_size=8, prefix_len=2, seed=0,
                      lr0=0.01, d_loss_floor=1.0, log_every=200,
                      holdout_fraction=0.25)
    result = train_adversarial(ds, model, d, cfg)
    n0 = model.encode_start(ds.one_hot()[:1, :2]).value[0]
    sample = model.unroll(n0, 6, "greedy")
    got = [int(np.argmax(t)) for t in sample.terminals]
    assert got == seq.tolist()
    assert 0.35 <= result.holdout_accuracy <= 0.65


def test_grammar_only_training_reduces_nll():
    g = build_preset_grammar("bimodal")
    ds = sample_dataset(g, 100, 6, seed=0)
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3,
                                       num_rules=6, branching_k=2,
                                       encoder_channels=8), seed=0)
    cfg = GrammarOnlyConfig(iterations=120, batch_size=16, k_cap=2,
                            prefix_len=2, seed=0, lr0=0.05, log_every=20)
    rows = train_grammar_only(ds, model, cfg)
    assert rows[-1]["nll"] < rows[0]["nll"]


def test_config_values_must_be_positive():
    for key in ("iterations", "batch_size", "k_cap", "max_paths", "prefix_len",
                "log_every"):
        with pytest.raises(ParameterError, match=key):
            GrammarOnlyConfig(**{key: 0})
    for key in ("iterations", "batch_size", "d_steps_per_g_step", "prefix_len",
                "log_every"):
        with pytest.raises(ParameterError, match=key):
            TrainConfig(**{key: -1})
    for key, value in (("tau", 0.0), ("tau", -1.0), ("tau_end", 0.0), ("tau_end", -0.5),
                       ("d_lr_scale", -1.0), ("ema_decay", -0.1), ("ema_decay", 1.0),
                       ("ema_decay", 2.0)):
        with pytest.raises(ParameterError, match=key):
            TrainConfig(**{key: value})
    TrainConfig(tau_end=0.5, d_lr_scale=0.0, ema_decay=0.0)     # edges that stay valid


def test_optimizer_values_are_checked():
    # lr0 < 0 would train uphill; momentum outside [0, 1) does not decay
    for config in (TrainConfig, GrammarOnlyConfig):
        for key, value in (("lr0", -1.0), ("lr0", -1e-12), ("lr0", math.nan),
                           ("momentum", -0.1), ("momentum", 1.0), ("momentum", 2.0),
                           ("momentum", math.nan)):
            with pytest.raises(ParameterError, match=key):
                config(**{key: value})
        config(lr0=0.0, momentum=0.0)                    # edges that stay valid


def test_grammar_only_prefix_len_check():
    ds = SequenceDataset(records=[np.zeros(6, dtype=np.int64)] * 4, length=6,
                         alphabet_size=4)
    with pytest.raises(ParameterError, match="prefix_len"):
        train_grammar_only(ds, tiny_model(),
                           GrammarOnlyConfig(iterations=1, prefix_len=7))


# ---------------------------------------------------------------------------
# _pruned_loglik against plain-numpy and plain-Python oracles
# ---------------------------------------------------------------------------

def _tables(model, n0):
    """(p0, t_all, probs_all) as numpy arrays, the tables _pruned_loglik
    reads (softmax terminals)."""
    _, t_all, probs_all = model.rule_tables()
    with ad.no_grad():
        p0 = model.rule_probs(Tensor(n0)).value
    return p0, t_all, probs_all


def _forward_loglik(p0, t_all, probs_all, tokens):
    """Batch mean of log p(tokens): the exact forward recursion."""
    alpha = p0 * t_all[:, tokens[:, 0]].T
    for j in range(1, tokens.shape[1]):
        alpha = (alpha @ probs_all) * t_all[:, tokens[:, j]].T
    return float(np.mean(np.log(alpha.sum(axis=1))))


def _pruned_loglik_loop(p0, t_all, probs_all, tokens, k, max_paths,
                        lower_first=True):
    """The pruning rule, stated literally: per parent keep the k most probable
    successors, ties to the lower rule index; then keep the max_paths heaviest
    candidates, ties to the earlier candidate. lower_first=False breaks both
    kinds of tie the other way."""
    p0, t_all, probs_all = p0.tolist(), t_all.tolist(), probs_all.tolist()
    tie = 1 if lower_first else -1

    def top(weights, n):
        return sorted(range(len(weights)), key=lambda i: (-weights[i], tie * i))[:n]

    total = 0.0
    for b, x in enumerate(tokens.tolist()):
        paths = [(r, p0[b][r] * t_all[r][x[0]]) for r in top(p0[b], k)]
        for tok in x[1:]:
            cands = [(s, w * probs_all[r][s] * t_all[s][tok])
                     for r, w in paths for s in top(probs_all[r], k)]
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


def test_pruned_loglik_matches_literal_pruning_rule_topk_mask():
    model = tiny_model(d_terminal=3, topk_mask=1)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 3, size=(6, 5))
    n0 = rng.normal(size=(6, 8))
    tables = _tables(model, n0)
    want = _pruned_loglik_loop(*tables, tokens, 2, 3)
    assert abs(_loglik(model, tokens, n0, 2, 3) - want) < 1e-12


def test_pruned_loglik_matches_literal_pruning_rule_with_ties():
    # Small-integer rule logits give exact ties between successors, and rules
    # that share an emission row give exact ties between candidates. The
    # successor logits differ per rule, so which tied rule survives changes
    # the likelihood (checked below by breaking ties the other way).
    R, C = 6, 3
    model = tiny_model(num_rules=R, d_nonterminal=R, d_terminal=C)
    rng = np.random.default_rng(2)
    logits = rng.integers(0, 3, size=(R, R)).astype(np.float64)
    emissions = 3.0 * np.eye(C)[rng.integers(0, C, size=R)]
    model.f_n.layers[0].w.assign(np.eye(R))      # n_all = one-hot rule rows
    model.f_r.layers[0].w.assign(logits)
    model.f_r.layers[0].b.assign(np.zeros(R))
    model.f_t.layers[0].w.assign(emissions)
    tokens = rng.integers(0, C, size=(8, 6))
    n0 = np.eye(R)[rng.integers(0, R, size=8)]
    tables = _tables(model, n0)
    for k_cap, max_paths in ((2, 3), (3, 2), (2, 5)):
        want = _pruned_loglik_loop(*tables, tokens, k_cap, max_paths)
        assert abs(_loglik(model, tokens, n0, k_cap, max_paths) - want) < 1e-12
        flipped = _pruned_loglik_loop(*tables, tokens, k_cap, max_paths,
                                      lower_first=False)
        assert abs(flipped - want) > 1e-6
