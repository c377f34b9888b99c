"""Grammar model: rule head, Gumbel selection, expanders, unrolling,
enumeration."""
import numpy as np
import pytest

from agg import autodiff as ad
from agg.autodiff import Tensor
from agg.errors import DimensionError, ParameterError, ParseError, ResourceError
from agg.grammar import GrammarConfig, GrammarModel, activity_config, gumbel_softmax

from helpers import (expand, numeric_grad, ref_rule_logits, rel_err, seed_probs,
                     straight_through)


def tiny_config(**overrides):
    cfg = dict(d_nonterminal=8, d_terminal=4, num_rules=6)
    cfg.update(overrides)
    return GrammarConfig(**cfg)


def test_config_validation():
    with pytest.raises(ParameterError):
        GrammarConfig(d_nonterminal=0)
    with pytest.raises(ParameterError):
        GrammarConfig(num_rules=4, topk_mask=5)


def test_presets():
    a = activity_config(10)
    assert (a.d_nonterminal, a.num_rules, a.topk_mask) == (64, 256, 4)
    assert a.d_terminal == 10


def test_seed_rows_are_distributions():
    model = GrammarModel(tiny_config(), seed=0)
    rng = np.random.default_rng(1)
    n = rng.normal(size=(1000, 8))
    p = seed_probs(model, n)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)


def test_seed_rows_zero_weights_uniform():
    model = GrammarModel(tiny_config(), seed=0)
    for p in (model.w_r, model.b_r):
        p.assign(np.zeros_like(p.value))
    probs = seed_probs(model, np.ones((1, 8)))
    assert np.allclose(probs, 1.0 / 6)


def test_topk_mask_behaviors():
    base = GrammarModel(tiny_config(), seed=2)
    full = GrammarModel(tiny_config(topk_mask=6), seed=2)
    one = GrammarModel(tiny_config(topk_mask=1), seed=2)
    n = np.random.default_rng(0).normal(size=(5, 8))
    assert np.allclose(seed_probs(base, n), seed_probs(full, n))
    p1 = seed_probs(one, n)
    assert np.all(p1.max(axis=1) == 1.0)
    assert np.all((p1 > 0).sum(axis=1) == 1)
    two = GrammarModel(tiny_config(topk_mask=2), seed=2)
    p2 = seed_probs(two, n)
    assert np.all((p2 > 0).sum(axis=1) == 2)


def test_gumbel_symmetric_noise():
    y = gumbel_softmax(Tensor(np.zeros(2)), 1.0, np.array([0.5, 0.5])).value
    assert np.allclose(y, 0.5)


def test_gumbel_neg_inf_logit_stays_zero():
    logits = Tensor(np.array([0.0, -np.inf, 1.0]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.uniform(1e-6, 1 - 1e-6, size=3)
        assert gumbel_softmax(logits, 1.0, u).value[1] == 0.0
        assert gumbel_softmax(logits, 1.0, u, hard=True).value[1] == 0.0


def test_gumbel_validation():
    with pytest.raises(ParameterError):
        gumbel_softmax(Tensor(np.zeros(3)), 0.0, np.full(3, 0.5))
    with pytest.raises(ParameterError):
        gumbel_softmax(Tensor(np.zeros(3)), 1.0, np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ParameterError):
        gumbel_softmax(Tensor(np.zeros(3)), 1.0, np.array([1.0, 0.5, 0.5]))
    with pytest.raises(ParameterError):   # NaN is not in (0, 1)
        gumbel_softmax(Tensor(np.zeros(3)), 1.0, np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(ParameterError):
        gumbel_softmax(Tensor(np.zeros((2, 3))), 1.0, np.full((2, 3), np.nan), hard=True)


def test_gumbel_hard_is_one_hot_with_soft_grad():
    logits = Tensor(np.array([0.3, -0.2, 0.1]))
    u = np.array([0.7, 0.2, 0.4])
    hard = gumbel_softmax(logits, 1.0, u, hard=True)
    assert sorted(hard.value.tolist()) == [0.0, 0.0, 1.0]
    w = np.array([1.0, 2.0, 3.0])
    loss = ad.total(ad.mul(hard, w))
    ad.backward(loss)
    ana = logits.grad.copy()

    def soft_loss(x):
        g = -np.log(-np.log(u))
        z = x + g
        e = np.exp(z - z.max())
        return float((e / e.sum() * w).sum())

    num = numeric_grad(soft_loss, np.array([0.3, -0.2, 0.1]))
    assert rel_err(ana, num) < 1e-4


def _gumbel_chain(logits, tau, noise, hard):
    """gumbel_softmax built from primitive autodiff ops."""
    y = ad.softmax(ad.mul(ad.add(logits, -np.log(-np.log(noise))), 1.0 / tau))
    if not hard:
        return y
    one_hot = np.zeros_like(y.value)
    np.put_along_axis(one_hot, np.argmax(y.value, axis=-1)[..., None], 1.0, axis=-1)
    return straight_through(one_hot, y)


@pytest.mark.parametrize("hard", [False, True])
@pytest.mark.parametrize("logits_shape,tau", [((5, 9), 0.7), ((9,), 1.3)])
def test_gumbel_node_equals_primitive_chain(hard, logits_shape, tau):
    # the fused node must reproduce the chain's value and logits gradient
    # bit for bit: masked -inf entries, tau != 1, 1-d logits broadcast
    # against 2-d noise
    rng = np.random.default_rng(11)
    lv = rng.normal(size=logits_shape)
    masked = rng.random(logits_shape) < 0.5
    masked[..., 0] = False
    lv[masked] = -np.inf
    noise = rng.uniform(1e-6, 1 - 1e-6, size=(5, 9))
    w = rng.normal(size=(5, 9))
    results = []
    for build in (gumbel_softmax, _gumbel_chain):
        logits = Tensor(lv.copy())
        y = build(logits, tau, noise, hard)
        ad.backward(ad.total(ad.mul(y, w)))
        results.append((y.value, logits.grad))
    (y_node, g_node), (y_chain, g_chain) = results
    assert np.array_equal(y_node, y_chain)
    assert np.array_equal(g_node, g_chain)
    assert g_node.shape == logits_shape


def test_gumbel_temperature_limit():
    # tau -> 0 with fixed noise concentrates on argmax(logits + g)
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = rng.normal(size=5)
        u = rng.uniform(1e-3, 1 - 1e-3, size=5)
        g = -np.log(-np.log(u))
        y = gumbel_softmax(Tensor(logits), 1e-4, u).value
        k = np.argmax(logits + g)
        off = np.delete(y, k)
        assert off.max(initial=0.0) < 1e-3
        assert y[k] > 1 - 1e-3


def test_encode_start_contracts():
    model = GrammarModel(tiny_config(), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 5, 4))
    n0 = model.encode_start(x)
    assert n0.value.shape == (2, 8)
    # single frame works under same padding
    assert model.encode_start(x[:, :1]).value.shape == (2, 8)
    from agg.errors import InputError
    with pytest.raises(InputError):
        model.encode_start(np.zeros((2, 0, 4)))


def test_encode_start_input_sensitivity():
    model = GrammarModel(tiny_config(), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 5, 4))
    t = Tensor(x)
    loss = ad.total(model.encode_start(t))
    ad.backward(loss)
    assert np.abs(t.grad).max() > 0


def test_unroll_length_contract():
    model = GrammarModel(tiny_config(), seed=0)
    s = model.unroll(np.zeros(8), 5, rng_seed=0)
    assert len(s.terminals) == 5
    assert len(s.nonterminals) == 6
    assert len(s.rule_indices) == 5
    assert s.log_prob <= 0.0


def test_unroll_seed_reproducible():
    model = GrammarModel(tiny_config(), seed=0)
    a = model.unroll(np.ones(8), 6, rng_seed=42)
    b = model.unroll(np.ones(8), 6, rng_seed=42)
    assert a.rule_indices == b.rule_indices
    assert np.array_equal(np.stack(a.terminals), np.stack(b.terminals))


def test_unroll_topk1_matches_greedy():
    # with one rule kept per state, a sampled unroll is the argmax path
    model = GrammarModel(tiny_config(topk_mask=1), seed=3)
    g = model.enumerate_all(np.ones(8), 6, k_cap=1)[0][0]
    s = model.unroll(np.ones(8), 6, rng_seed=11)
    assert g.rule_indices == s.rule_indices


def test_unroll_two_rule_frequencies():
    # force a near-uniform two-rule head via zero weights and a 2-rule bank
    model = GrammarModel(tiny_config(num_rules=2), seed=0)
    for p in (model.w_r, model.b_r):
        p.assign(np.zeros_like(p.value))
    counts = np.zeros(2)
    for k in range(1000):
        s = model.unroll(np.zeros(8), 1, rng_seed=k)
        counts[s.rule_indices[0]] += 1
    freq = counts / counts.sum()
    assert abs(freq[0] - 0.5) < 0.05


def test_unroll_markov_property():
    # restarting from a recorded intermediate state with the same remaining
    # noise stream reproduces the suffix
    model = GrammarModel(tiny_config(), seed=4)
    rng = np.random.default_rng(9)
    noise = rng.random((6, 1, 6))
    n0 = np.ones((1, 8))

    def run(n_start, draws):
        n = Tensor(n_start)
        idx = []
        with ad.no_grad():
            for u in draws:
                logits = ref_rule_logits(model, n)
                sel = gumbel_softmax(logits, 1.0, np.clip(u, 1e-12, 1 - 1e-12),
                                     hard=True)
                idx.append(int(np.argmax(sel.value)))
                n = expand(model, sel)[0]
        return idx, n.value

    full, _ = run(n0, noise)
    prefix, n3 = run(n0, noise[:3])
    suffix, _ = run(n3, noise[3:])
    assert full == prefix + suffix


def test_unroll_batch_policy_validation():
    model = GrammarModel(tiny_config(), seed=0)
    with pytest.raises(ParameterError):
        model.unroll_batch(np.zeros((1, 8)), 0, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        model.unroll_batch(np.zeros((1, 8)), 3, np.random.default_rng(0), tau=0.0)
    # a table's seed rows are the states the unroll starts from, one per row
    n0 = np.zeros((3, 8))
    for tables in (model.rule_tables(), model.rule_tables(n0[:2])):
        with pytest.raises(DimensionError):
            model.unroll_batch(n0, 3, np.random.default_rng(0), tables=tables)


def test_unroll_batch_entropy_gradient():
    model = GrammarModel(tiny_config(), seed=1)
    rng = np.random.default_rng(0)
    out = model.unroll_batch(Tensor(np.ones((2, 8))), 3, rng, return_entropy=True)
    assert len(out) == 5
    ent = out[4]
    assert ent.value.shape == ()
    ad.backward(ent)
    assert any(np.abs(p.grad_or_zero()).max() > 0 for p in (model.w_r, model.b_r))


def test_unroll_batch_entropy_flag_leaves_sample_unchanged():
    model = GrammarModel(tiny_config(topk_mask=3), seed=1)
    outs, states = [], []
    for flag in (False, True):
        rng = np.random.default_rng(4)
        outs.append(model.unroll_batch(Tensor(np.ones((3, 8))), 5, rng, tau=0.8,
                                       return_entropy=flag))
        states.append(rng.bit_generator.state)
    off, on = outs
    assert len(off) == 4 and len(on) == 5
    assert np.array_equal(off[0].value, on[0].value)
    assert np.array_equal(off[1].value, on[1].value)
    assert np.array_equal(off[2], on[2])
    assert np.array_equal(off[3], on[3])
    assert states[0] == states[1]


def test_enumerate_counts_and_mass():
    model = GrammarModel(tiny_config(), seed=0)
    out = model.enumerate_all(np.ones(8), 10, k_cap=2)
    assert len(out) == 1024
    probs = [q for _, q in out]
    assert all(probs[i] >= probs[i + 1] for i in range(len(probs) - 1))
    full = model.enumerate_all(np.ones(8), 3, k_cap=6)
    assert abs(sum(q for _, q in full) - 1.0) < 1e-9


def test_enumerate_budget_error():
    model = GrammarModel(tiny_config(), seed=0)
    with pytest.raises(ResourceError) as e:
        model.enumerate_all(np.ones(8), 30, k_cap=2)
    assert "2^30" in str(e.value)


def test_enumerate_hand_tree():
    # step probs (0.7, 0.3), then the 0.7-branch is deterministic while the
    # 0.3-branch splits (0.4, 0.6): path products {0.7, 0.12, 0.18}
    model = GrammarModel(GrammarConfig(d_nonterminal=3, d_terminal=4,
                                       num_rules=3), seed=0)
    # wire f_n so rule i lands in state e_i, then solve a 1-layer rule head
    # that realizes the desired per-state distributions
    model.w_n.assign(np.eye(3))
    n0 = np.array([1.0, 1.0, 1.0])
    states = np.stack([n0, np.eye(3)[0], np.eye(3)[1]])
    probs = np.array([[0.7, 0.3, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 0.4, 0.6]])
    targets = np.log(probs + 1e-15)
    model.w_r.assign(np.linalg.solve(states, targets))
    model.b_r.assign(np.zeros(3))

    got = sorted(q for _, q in model.enumerate_all(n0, 2, k_cap=2))
    want = [0.3 * 0.4, 0.3 * 0.6, 0.7 * 1.0]
    for v in want:
        assert min(abs(v - g) for g in got) < 1e-6, (v, got)


def test_load_state_missing_parameter():
    model = GrammarModel(tiny_config(), seed=0)
    state = model.state()
    del state["f_r.0.b"]
    with pytest.raises(ParseError, match="f_r.0.b"):
        model.load_state(state)


def test_load_state_refuses_a_parameter_the_model_lacks():
    model = GrammarModel(tiny_config(), seed=0)
    state = model.state()
    state["f_t.0.w"] = np.zeros((6, 4))
    before = model.w_r.value.copy()
    with pytest.raises(ParseError, match="f_t.0.w"):
        model.load_state(state)
    assert np.array_equal(model.w_r.value, before)


def test_load_state_restores_each_rules_token():
    # the tokens come from the state, not from the model's seed
    saved, model = GrammarModel(tiny_config(), seed=0), GrammarModel(tiny_config(), seed=1)
    assert not np.array_equal(saved.emit, model.emit)
    model.load_state({n: np.asarray(v, dtype="<f8") for n, v in saved.state().items()})
    assert np.array_equal(model.emit, saved.emit) and model.emit.dtype == np.int64
    for bad in (None, saved.emit[:-1], saved.emit + 0.5, np.full(6, 4), np.full(6, -1)):
        state = saved.state()
        if bad is None:
            del state["emit"]
        else:
            state["emit"] = bad
        with pytest.raises(ParseError, match="emit"):
            model.load_state(state)


@pytest.mark.parametrize("R", [7, 256])
def test_rule_tokens_are_balanced_over_the_classes(R):
    # each class has floor(R / C) or ceil(R / C) rules, so with C <= R every
    # class can be emitted
    for C in (1, 3, 6, R):
        model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=C, num_rules=R),
                             seed=C)
        counts = np.bincount(model.emit, minlength=C)
        assert len(counts) == C and model.emit.shape == (R,)
        assert set(counts) <= {R // C, -(-R // C)}


def test_rule_tables_consistency():
    model = GrammarModel(tiny_config(), seed=7)
    n_all, emit, probs_all = model.rule_tables()[:3]
    assert n_all.shape == (6, 8) and emit.shape == (6,)
    assert np.allclose(probs_all.sum(axis=1), 1.0, atol=1e-9)
    n_new, t_new = expand(model, np.eye(6)[2:3])
    assert np.allclose(n_new.value[0], n_all[2])
    assert np.array_equal(t_new.value[0], np.eye(4)[emit[2]])


@pytest.mark.parametrize("U", [1, 2, 256])
@pytest.mark.parametrize("topk", [4, None, 1])
def test_seed_rows_round_as_in_any_batch(topk, U):
    # rule_tables(n0) runs one gemm over the R rules and the U seed states:
    # its first R rows are the seedless table's, and the seed row of state i
    # is the one that state gets alone, bit for bit
    model = GrammarModel(activity_config(6, topk_mask=topk), seed=3)
    R = model.config.num_rules
    n0 = np.random.default_rng(U).normal(size=(U, 64))
    seeded = model.rule_tables(n0)
    for a, b in zip(model.rule_tables(), seeded, strict=True):
        assert a.tobytes() == b[:R].tobytes()
    for i in range(U):
        alone = model.rule_tables(n0[i:i + 1])
        for a, b in zip(alone[2:], seeded[2:], strict=True):
            assert a[R].tobytes() == b[R + i].tobytes()


def test_sample_rule_paths_matches_unroll_distribution():
    model = GrammarModel(tiny_config(), seed=8)
    n0 = np.ones((1, 8))
    paths, _ = model.sample_rule_paths(n0, 4, 4000, seed=0)
    assert paths.shape == (4000, 4)
    p0 = seed_probs(model, n0)[0]
    freq = np.bincount(paths[:, 0], minlength=6) / 4000
    assert np.abs(freq - p0).max() < 0.05
