"""Acceptance gate: one test per release criterion, tolerances pinned.

Heavy criteria (grammar recovery, branching ablation) share module-scoped
training fixtures; everything else is direct.
"""
import json
import math
import time

import numpy as np
import pytest

from agg import autodiff as ad
from agg.adversarial import (Discriminator, DiscriminatorConfig,
                             GrammarOnlyConfig, TrainConfig,
                             discriminator_loss, generator_loss,
                             train_adversarial, train_grammar_only)
from agg.autodiff import Tensor
from agg.grammar import GrammarConfig, GrammarModel, activity_config, gumbel_softmax
from agg.metrics import (best_of_k, grammar_sampler, kl_divergence, ngram_kl,
                         sample_model_futures)
from agg.nn import SGD, Conv1d, Dense
from agg.synthdata import build_preset_grammar, sample_dataset, sample_sequence

from helpers import run_cli

H = 1e-4
GRAD_TOL = 1e-4
GRAD_CASES = 100

# recipe-recovery training setup: adversarial losses only (no auxiliary
# likelihood or entropy term), desk-sized discriminator, annealed temperature
RECOVERY_SEEDS = (0, 1, 2)
RECOVERY_KW = dict(iterations=5000, batch_size=32, prefix_len=4, lr0=0.02,
                   d_loss_floor=0.7, entropy_weight=0.0, ema_decay=0.999,
                   tau_end=0.5)

ABLATION_SEEDS = (0, 1, 2, 3, 4)
ABLATION_ITERS = 800


# ---------------------------------------------------------------------------
# 1. gradient suite: every differentiable op vs central finite differences
# ---------------------------------------------------------------------------

def fd_check_params(forward, params, rng, tol=GRAD_TOL, max_coords=6):
    """Backprop through forward() and compare each parameter's gradient with
    central differences on a random coordinate subset."""
    for p in params:
        p.grad = None
    loss = forward()
    ad.backward(loss)
    grads = [p.grad_or_zero().copy() for p in params]
    for p, g in zip(params, grads):
        flat = p.value.reshape(-1)
        gf = g.reshape(-1)
        if flat.size <= max_coords:
            idxs = range(flat.size)
        else:
            idxs = rng.choice(flat.size, size=max_coords, replace=False)
        for i in idxs:
            for h in (H, H * 1e-2):
                keep = flat[i]
                flat[i] = keep + h
                with ad.no_grad():
                    fp = float(forward().value)
                flat[i] = keep - h
                with ad.no_grad():
                    fm = float(forward().value)
                flat[i] = keep
                num = (fp - fm) / (2.0 * h)
                denom = max(abs(num), abs(gf[i]), 1.0)
                if abs(gf[i] - num) / denom < tol:
                    break   # retry with smaller h only when straddling a kink
            else:
                raise AssertionError(f"{p.name}[{i}]: fd {num} vs {gf[i]}")


def test_gradient_suite_dense():
    for case in range(GRAD_CASES):
        rng = np.random.default_rng(case)
        layer = Dense(rng, 3, 2, name=f"d{case}")
        x = Tensor(rng.normal(size=(2, 3)))
        fd_check_params(lambda: ad.total(ad.sigmoid(layer(x))),
                        layer.parameters() + [x], rng)


def test_gradient_suite_conv1d():
    for case in range(GRAD_CASES):
        rng = np.random.default_rng(1000 + case)
        conv = Conv1d(rng, 2, 2, kernel=3, stride=1, name=f"c{case}")
        x = Tensor(rng.normal(size=(1, 5, 2)))
        fd_check_params(lambda: ad.total(ad.sigmoid(conv(x))),
                        conv.parameters() + [x], rng)


def test_gradient_suite_gumbel_soft():
    for case in range(GRAD_CASES):
        rng = np.random.default_rng(3000 + case)
        noise = rng.uniform(1e-6, 1.0 - 1e-6, size=4)
        tau = 0.5 + rng.random()
        logits = Tensor(rng.normal(size=4))
        weight = Tensor(rng.normal(size=4))

        def forward():
            y = gumbel_softmax(logits, tau, noise, hard=False)
            return ad.total(ad.mul(y, weight))

        fd_check_params(forward, [logits], rng, max_coords=4)


def test_gradient_suite_discriminator():
    cfg = DiscriminatorConfig(conv_channels=(2, 3, 2))
    for case in range(GRAD_CASES):
        rng = np.random.default_rng(4000 + case)
        disc = Discriminator(2, 3, cfg, seed=case)
        for p in disc.parameters():
            # zero-init biases can park a relu exactly on its kink, where
            # central differences are invalid; evaluate at a generic point
            p.assign(p.value + rng.normal(scale=0.01, size=p.value.shape))
        t = Tensor(rng.normal(size=(1, 6, 2)))
        n = Tensor(rng.normal(size=(1, 6, 3)))
        fd_check_params(lambda: ad.total(disc(t, n)),
                        disc.parameters() + [t, n], rng, max_coords=2)


def test_gradient_suite_gan_losses():
    for case in range(GRAD_CASES):
        rng = np.random.default_rng(5000 + case)
        p_real = Tensor(rng.uniform(0.05, 0.95, size=3))
        p_fake = Tensor(rng.uniform(0.05, 0.95, size=3))
        fd_check_params(lambda: discriminator_loss(p_real, p_fake),
                        [p_real, p_fake], rng)
        q = Tensor(p_fake.value.copy())
        fd_check_params(lambda: generator_loss(q), [q], rng)


# ---------------------------------------------------------------------------
# 2. gumbel-max exactness: hard sampling reproduces the softmax distribution
# ---------------------------------------------------------------------------

def test_gumbel_hard_sampling_exact():
    n = 10**5
    logits = np.array([math.log(2.0), 0.0, 0.0])
    expected = np.array([0.5, 0.25, 0.25])
    rng = np.random.default_rng(0)
    noise = rng.random(size=(n, 3))
    with ad.no_grad():
        y = gumbel_softmax(Tensor(np.tile(logits, (n, 1))), 1.0, noise,
                           hard=True)
    counts = y.value.sum(axis=0)
    assert abs(counts.sum() - n) < 1e-9          # exactly one-hot rows
    freqs = counts / n
    assert np.abs(freqs - expected).max() < 0.01
    chi2 = float(np.sum((counts - n * expected) ** 2 / (n * expected)))
    p_value = math.exp(-chi2 / 2.0)              # exact sf for 2 dof
    assert p_value > 0.001


# ---------------------------------------------------------------------------
# 3. enumeration contract: path count and total probability mass
# ---------------------------------------------------------------------------

def test_enumeration_count_and_mass():
    model = GrammarModel(GrammarConfig(d_nonterminal=8, d_terminal=3,
                                       num_rules=6), seed=0)
    n0 = np.ones(8)
    paths, _ = model.enumerate_all(n0, length=10, k_cap=2)
    assert len(paths) == 1024
    paths, probs = model.enumerate_all(n0, length=4, k_cap=model.config.num_rules,
                                       budget=10**7)
    assert len(paths) == len(probs) == 6**4
    mass = sum(probs)
    assert abs(mass - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# 4 + 7. grammar recovery and GAN equilibrium on the recipe grammar
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recovery_runs():
    grammar = build_preset_grammar("recipe")
    dataset = sample_dataset(grammar, 10**4, 12, seed=1)
    prefixes = dataset.one_hot()[:1000, :4]
    runs = []
    t0 = time.time()
    for seed in RECOVERY_SEEDS:
        model = GrammarModel(activity_config(6), seed=seed)
        disc = Discriminator(6, model.config.d_nonterminal,
                             DiscriminatorConfig(conv_channels=(16, 32, 16)),
                             seed=seed + 1)
        result = train_adversarial(dataset, model, disc,
                                   TrainConfig(seed=seed, **RECOVERY_KW))
        samples = sample_model_futures(model, prefixes, 12,
                                       num_samples_per_prefix=10, seed=99)
        runs.append({
            "kl3": ngram_kl(samples, grammar, 3, 12),
            "holdout": result.holdout_accuracy,
            "metrics": result.metrics,
        })
    return {"runs": runs, "elapsed": time.time() - t0}


def test_grammar_recovery_recipe(recovery_runs):
    kls = [r["kl3"] for r in recovery_runs["runs"]]
    print(f"recovery 3-gram KL per seed: {[round(k, 3) for k in kls]}, "
          f"elapsed {recovery_runs['elapsed']:.0f}s")
    assert recovery_runs["elapsed"] <= 600.0
    assert float(np.median(kls)) <= 0.1


def test_gan_equilibrium_sanity(recovery_runs):
    for run in recovery_runs["runs"]:
        for row in run["metrics"]:
            assert np.isfinite(row["d_loss"]) and np.isfinite(row["g_loss"])
    holdouts = [r["holdout"] for r in recovery_runs["runs"]]
    print(f"holdout discriminator accuracy per seed: "
          f"{[round(h, 3) for h in holdouts]}")
    med = float(np.median(holdouts))
    assert 0.35 <= med <= 0.65


# ---------------------------------------------------------------------------
# 5. multi-future coverage: best-of-10 vs single sample on the bimodal preset
# ---------------------------------------------------------------------------

def test_best_of_10_coverage_bimodal():
    # two equiprobable futures after the shared prefix: a single sample
    # matches a drawn target w.p. 0.5, ten samples w.p. 1 - 2^-10
    g = build_preset_grammar("bimodal")
    sampler = grammar_sampler(g)
    rng = np.random.default_rng(123)
    trials = 300

    def run(k):
        hits = []
        for s in range(trials):
            target = sample_sequence(g, 5, rng)
            score = lambda seq: float(np.array_equal(seq, target))
            hits.append(best_of_k(sampler, 5, k, score, seed=s))
        return float(np.mean(hits))

    single, best10 = run(1), run(10)
    assert best10 - single >= 0.10


# ---------------------------------------------------------------------------
# 6. branching ablation: topk_mask = 1 degrades the 3-gram KL
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ablation_arms():
    # likelihood-trained arms isolate the branching factor; the prefix stops
    # before the branch point so it cannot leak which mode to emit
    grammar = build_preset_grammar("bimodal")
    dataset = sample_dataset(grammar, 2000, 12, seed=0)
    prefixes = dataset.one_hot()[:500, :2]
    arms = {1: [], 4: []}
    for seed in ABLATION_SEEDS:
        for topk in (4, 1):
            model = GrammarModel(activity_config(3, topk_mask=topk), seed=seed)
            train_grammar_only(dataset, model,
                               GrammarOnlyConfig(iterations=ABLATION_ITERS,
                                                 batch_size=32, prefix_len=2,
                                                 lr0=0.02, seed=seed,
                                                 k_cap=min(4, topk),
                                                 max_paths=64))
            samples = sample_model_futures(model, prefixes, 12,
                                           num_samples_per_prefix=10,
                                           seed=seed + 7)
            arms[topk].append(ngram_kl(samples, grammar, 3, 12))
    return arms


def test_branching_ablation(ablation_arms):
    branching = float(np.median(ablation_arms[4]))
    no_branching = float(np.median(ablation_arms[1]))
    print(f"3-gram KL: branching {branching:.3f}, "
          f"no branching {no_branching:.3f}")
    assert no_branching - branching >= 0.05


# ---------------------------------------------------------------------------
# 8. metric unit values
# ---------------------------------------------------------------------------

def test_metric_unit_values():
    p = {(0,): 0.5, (1,): 0.5}
    r = {(0,): 0.25, (1,): 0.75}
    assert abs(kl_divergence(p, r, [(0,), (1,)]) - 0.1438) < 1e-3


# ---------------------------------------------------------------------------
# 9. determinism: repeated CLI runs are byte-identical
# ---------------------------------------------------------------------------

def test_cli_byte_identical(tmp_path):
    def run(args):
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr

    run(["synth", "--set", "preset=recipe", "--set", "num_sequences=80",
         "--set", "length=8", "--set", "out_dir=data"])
    args = ["train", "--set", "dataset=data/dataset.jsonl",
            "--set", "iterations=12", "--set", "d_channels=[4,6,4]",
            "--set", "seed=3", "--set", "out_dir=run"]
    run(args)
    csv1 = (tmp_path / "run" / "metrics.csv").read_bytes()
    ckpt1 = (tmp_path / "run" / "checkpoint.bin").read_bytes()
    run(args)
    assert (tmp_path / "run" / "metrics.csv").read_bytes() == csv1
    assert (tmp_path / "run" / "checkpoint.bin").read_bytes() == ckpt1


# ---------------------------------------------------------------------------
# 10. cosine learning-rate schedule endpoints
# ---------------------------------------------------------------------------

def test_schedule_endpoints():
    opt = SGD([ad.Parameter(np.zeros(1), name="p")], lr0=0.1, total_steps=5000)
    assert opt.lr(0) == 0.1
    assert abs(opt.lr(2500) - 0.05) < 1e-12
    assert abs(opt.lr(5000) - 0.0) < 1e-12
