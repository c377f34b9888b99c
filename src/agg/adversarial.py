"""Discriminator and the adversarial training loop.

The discriminator runs two 1-d conv stacks, one over the terminal stream and
one over the non-terminal stream, mean-pools each, concatenates, and maps the
joint feature to a real/fake probability. Training alternates discriminator
and generator momentum-SGD updates under the shared cosine schedule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InputError, ParameterError
from .grammar import _softmax_kept
from .nn import SGD, Conv1d, Dense

LOG_CLAMP = 1e-7


@dataclass
class DiscriminatorConfig:
    conv_channels: tuple = (128, 256, 64)
    kernel_width: int = 5
    stride: int = 4
    padding: str = "same"

    def __post_init__(self):
        if not self.conv_channels or any(c <= 0 for c in self.conv_channels):
            raise ParameterError("conv channels must be a non-empty list of positive sizes")
        if self.kernel_width < 1 or self.kernel_width % 2 == 0:
            raise ParameterError("kernel width must be positive and odd")
        if self.stride < 1:
            raise ParameterError("stride must be positive")


class Discriminator:
    def __init__(self, d_terminal, d_nonterminal, config=None, seed=0):
        self.config = config or DiscriminatorConfig()
        rng = np.random.default_rng(seed)
        cfg = self.config
        self.t_stack = self._stack(rng, d_terminal, "d.t")
        self.n_stack = self._stack(rng, d_nonterminal, "d.n")
        self.head = Dense(rng, 2 * cfg.conv_channels[-1], 1, name="d.head")

    def _stack(self, rng, d_in, name):
        cfg = self.config
        layers = []
        c_prev = d_in
        for i, c in enumerate(cfg.conv_channels):
            layers.append(Conv1d(rng, c_prev, c, kernel=cfg.kernel_width,
                                 stride=cfg.stride, padding=cfg.padding,
                                 activation="relu", name=f"{name}.conv{i}"))
            c_prev = c
        return layers

    def __call__(self, t_seq, n_seq):
        """Real/fake probability in (0, 1) for aligned terminal and
        non-terminal streams of shape (B, L, d)."""
        t_seq = t_seq if isinstance(t_seq, Tensor) else Tensor(np.asarray(t_seq, dtype=np.float64))
        n_seq = n_seq if isinstance(n_seq, Tensor) else Tensor(np.asarray(n_seq, dtype=np.float64))
        if t_seq.value.ndim != 3 or n_seq.value.ndim != 3:
            raise DimensionError("discriminator inputs must be (B, L, d)")
        if t_seq.value.shape[1] == 0:
            raise InputError("discriminator got an empty sequence")
        if t_seq.value.shape[:2] != n_seq.value.shape[:2]:
            raise DimensionError("terminal and non-terminal streams must align")
        ht, hn = t_seq, n_seq
        for layer in self.t_stack:
            ht = layer(ht)
        for layer in self.n_stack:
            hn = layer(hn)
        feat = ad.concat([ad.mean(ht, axis=1), ad.mean(hn, axis=1)], axis=-1)
        p = ad.sigmoid(self.head(feat))
        return ad.reshape(p, (-1,))

    def parameters(self):
        ps = [p for layer in self.t_stack + self.n_stack for p in layer.parameters()]
        return ps + self.head.parameters()

    def named_parameters(self):
        return {p.name: p for p in self.parameters()}


def discriminator_loss(p_real, p_fake):
    """-mean log p_real - mean log (1 - p_fake), log args clamped at 1e-7."""
    p_real = p_real if isinstance(p_real, Tensor) else Tensor(p_real)
    p_fake = p_fake if isinstance(p_fake, Tensor) else Tensor(p_fake)
    real_term = ad.mean(ad.log(ad.clamp_min(p_real, LOG_CLAMP)))
    fake_term = ad.mean(ad.log(ad.clamp_min(1.0 - p_fake, LOG_CLAMP)))
    return -real_term - fake_term


def generator_loss(p_fake, variant="non_saturating"):
    # no 1e-7 clamp here: clamping zeroes the gradient exactly when the
    # discriminator is winning, which is when the generator needs it most;
    # the tiny guard only dodges a literal log(0)
    p_fake = p_fake if isinstance(p_fake, Tensor) else Tensor(p_fake)
    if variant == "non_saturating":
        return -ad.mean(ad.log(ad.clamp_min(p_fake, 1e-300)))
    if variant == "saturating":
        return ad.mean(ad.log(ad.clamp_min(1.0 - p_fake, 1e-300)))
    raise ParameterError(f"unknown generator loss variant {variant!r}")


def _check_positive(config, *names):
    bad = [n for n in names if getattr(config, n) <= 0]
    if bad:
        raise ParameterError(f"{', '.join(bad)} must be positive")


def _check_sgd(config):
    if not config.lr0 >= 0:                      # also rejects NaN
        raise ParameterError("lr0 must be >= 0")
    if not 0 <= config.momentum < 1:
        raise ParameterError("momentum must be in [0, 1)")


def _check_prefix_len(config, length):
    if config.prefix_len > length:
        raise ParameterError("prefix_len exceeds sequence length")


@dataclass
class TrainConfig:
    iterations: int = 5000
    batch_size: int = 32
    d_steps_per_g_step: int = 1
    generator_loss_variant: str = "non_saturating"
    sequence_length: int | None = None   # default: dataset length
    prefix_len: int = 4
    seed: int = 0
    lr0: float = 0.1
    momentum: float = 0.9
    policy: str = "sample_hard"
    tau: float = 1.0
    tau_end: float | None = None         # optional linear anneal target
    harden_terminals: bool = True        # straight-through one-hot fake terminals
    d_lr_scale: float = 1.0              # discriminator lr relative to generator
    d_loss_floor: float | None = 1.0     # skip D updates below this loss
    entropy_weight: float = 0.0          # bonus on rule-distribution entropy
    ema_decay: float | None = None       # Polyak-average generator weights
    log_every: int = 100
    holdout_fraction: float = 0.1

    def __post_init__(self):
        _check_positive(self, "iterations", "batch_size", "d_steps_per_g_step",
                        "prefix_len", "log_every", "tau")
        _check_sgd(self)
        if self.tau_end is not None:
            _check_positive(self, "tau_end")
        if self.d_lr_scale < 0:
            raise ParameterError("d_lr_scale must be >= 0")
        if self.ema_decay is not None and not 0 <= self.ema_decay < 1:
            raise ParameterError("ema_decay must be in [0, 1)")
        if self.generator_loss_variant not in ("non_saturating", "saturating"):
            raise ParameterError("bad generator_loss_variant")


@dataclass
class TrainResult:
    metrics: list                 # rows of (iteration, d_loss, g_loss, d_acc, lr)
    holdout_accuracy: float
    iterations: int
    # share of the real steps parsed in training whose hardened parse fell
    # back to the soft emission weight (see teacher_forced_states)
    parse_fallback_share: float = 0.0


def teacher_forced_states(model, batch, n0, rng=None, harden=False,
                          return_fallbacks=False):
    """Non-terminal stream for real data, built by a teacher-forced parse.

    From the seed states n0, each step *samples* a rule from the
    forward-filtering posterior: rule probability at the current state times
    the rule's emission weight at the observed token, given the tokens up to
    this step only. This is not the smoothing posterior, which also conditions
    on later tokens. The real stream has the same conditional law as a
    generator path that happens to emit the data only when the tokens
    determine the rules; otherwise a parsed rule can emit the observed token
    yet have no successor that emits the next one, and the next step falls
    back (below) even though the generator can produce the string. A
    deterministic argmax here would hand the discriminator an artifact that
    persists at convergence.

    The emission weight follows the generator's terminals. With harden=True
    (hardened fake terminals: a rule always emits the argmax of its terminal
    row) the weight is the indicator argmax t_all[r] == token, so a parsed
    rule always emits the observed token. A row in which no rule with nonzero
    probability emits the token falls back to the soft weight t_all[r, token]
    for that step. With harden=False the soft weight is used throughout.
    With return_fallbacks=True the result is (states, number of (row, step)
    pairs that fell back). Forward-only; no gradients flow to the generator
    here."""
    n_all, t_all, probs_all = model.rule_tables()
    B, L, _ = batch.shape
    if rng is None:
        rng = np.random.default_rng(0)
    tokens = np.argmax(batch, axis=2)                   # (B, L)
    emis = t_all.T                                      # (C, R) emission weight
    emits = np.argmax(t_all, axis=1)                    # (R,) hardened emission
    with ad.no_grad():
        p = model.rule_probs(Tensor(np.asarray(n0, dtype=np.float64))).value
    out = np.empty((B, L, n_all.shape[1]))
    fallbacks = 0
    for j in range(L):
        w = p * np.maximum(emis[tokens[:, j]], 1e-12)
        if harden:
            w_hard = p * (emits[None, :] == tokens[:, j, None])
            hit = w_hard.sum(axis=1, keepdims=True) > 0
            fallbacks += B - int(hit.sum())
            w = np.where(hit, w_hard, w)
        w /= w.sum(axis=1, keepdims=True)
        cum = np.cumsum(w, axis=-1)
        cum[:, -1] = 1.0
        idx = (cum < rng.random((B, 1))).sum(axis=-1)
        out[:, j, :] = n_all[idx]
        p = probs_all[idx]
    return (out, fallbacks) if return_fallbacks else out


def _harden(t_seq):
    """Straight-through one-hot of each fake terminal, so the discriminator
    sees the same vector space as the one-hot real data."""
    v = t_seq.value
    idx = np.argmax(v, axis=-1)
    hard = np.zeros_like(v)
    np.put_along_axis(hard, idx[..., None], 1.0, axis=-1)
    return ad.straight_through(t_seq, hard)


def _tau_at(cfg, it):
    if cfg.tau_end is None:
        return cfg.tau
    frac = it / max(cfg.iterations - 1, 1)
    return cfg.tau + frac * (cfg.tau_end - cfg.tau)


def _accuracy(p_real, p_fake):
    return 0.5 * (float(np.mean(p_real > 0.5)) + float(np.mean(p_fake < 0.5)))


def train_adversarial(dataset, grammar_model, disc_model, config,
                      on_log=None, checkpoint_fn=None):
    """Alternating GAN loop; no supervised loss on the generator.

    on_log(row) is called for each metrics row; checkpoint_fn(iteration) for
    periodic checkpointing (wired by the CLI).
    """
    if len(dataset) == 0:
        raise InputError("empty dataset")
    L = config.sequence_length or dataset.length
    if L != dataset.length:
        raise DimensionError("sequence_length must match the dataset")
    _check_prefix_len(config, L)
    X = dataset.one_hot()
    n_hold = int(len(X) * config.holdout_fraction)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(X))
    X_hold, X_train = X[perm[:n_hold]], X[perm[n_hold:]]
    if len(X_train) == 0:
        raise InputError("no training data left after holdout split")

    g_opt = SGD(grammar_model.parameters(), lr0=config.lr0,
                momentum=config.momentum, total_steps=config.iterations)
    d_opt = SGD(disc_model.parameters(), lr0=config.lr0 * config.d_lr_scale,
                momentum=config.momentum,
                total_steps=config.iterations * config.d_steps_per_g_step)
    d_params = disc_model.parameters()
    g_params = grammar_model.parameters()
    # Polyak average damps the limit cycling of the adversarial game; the
    # averaged weights become the trained generator
    ema = None
    if config.ema_decay is not None:
        ema = [p.value.copy() for p in g_params]

    metrics = []
    parsed = fallbacks = 0
    for it in range(config.iterations):
        tau = _tau_at(config, it)
        d_loss_v = g_loss_v = acc_v = 0.0
        for extra in range(config.d_steps_per_g_step):
            last = extra == config.d_steps_per_g_step - 1
            take = rng.integers(0, len(X_train), size=config.batch_size)
            batch = X_train[take]
            if last:
                n0 = grammar_model.encode_start(Tensor(batch[:, :config.prefix_len]))
                unrolled = grammar_model.unroll_batch(
                    n0, L, config.policy, rng, tau=tau,
                    return_entropy=bool(config.entropy_weight))
                t_fake, n_fake = unrolled[:2]
                if config.harden_terminals:
                    t_fake = _harden(t_fake)
                fake_t_v, fake_n_v = t_fake.detach(), n_fake.detach()
                n0_v = n0.value
            else:
                with ad.no_grad():
                    n0 = grammar_model.encode_start(Tensor(batch[:, :config.prefix_len]))
                    tf, nf, _, _ = grammar_model.unroll_batch(
                        n0, L, config.policy, rng, tau=tau)
                    if config.harden_terminals:
                        tf = _harden(tf)
                fake_t_v, fake_n_v = Tensor(tf.value), Tensor(nf.value)
                n0_v = n0.value
            n_real, fell = teacher_forced_states(
                grammar_model, batch, n0_v, rng,
                harden=config.harden_terminals, return_fallbacks=True)
            parsed += batch.shape[0] * L
            fallbacks += fell
            p_real = disc_model(Tensor(batch), Tensor(n_real))
            p_fake = disc_model(fake_t_v, fake_n_v)
            d_loss = discriminator_loss(p_real, p_fake)
            d_loss_v = float(d_loss.value)
            acc_v = _accuracy(p_real.value, p_fake.value)
            # throttle D near the decision boundary: a saturated D pushes
            # p_fake under the log clamp and the generator goes gradient-dead
            if config.d_loss_floor is None or d_loss_v >= config.d_loss_floor:
                ad.backward(d_loss)
                d_opt.step()
            else:
                d_opt.skip()
        # generator step reuses the recorded fake-batch graph
        p_fake_g = disc_model(t_fake, n_fake)
        g_loss = generator_loss(p_fake_g, config.generator_loss_variant)
        g_obj = g_loss
        if config.entropy_weight:
            # data-free entropy bonus; keeps rule selection from sharpening
            # into a deterministic basin whose softmax gradient vanishes
            g_obj = ad.add(g_loss, ad.scale(unrolled[4], -config.entropy_weight))
        ad.backward(g_obj)
        for p in d_params:          # generator backward also reaches D weights
            p.grad = None
        g_opt.step()
        if ema is not None:
            d = config.ema_decay
            for avg, p in zip(ema, g_params):
                avg *= d
                avg += (1.0 - d) * p.value
        g_loss_v = float(g_loss.value)
        if not (np.isfinite(d_loss_v) and np.isfinite(g_loss_v)):
            raise ParameterError(f"non-finite loss at iteration {it}")

        if it % config.log_every == 0 or it == config.iterations - 1:
            row = {"iteration": it, "d_loss": d_loss_v, "g_loss": g_loss_v,
                   "d_accuracy": acc_v, "lr": g_opt.lr(min(it, config.iterations))}
            metrics.append(row)
            if on_log:
                on_log(row)
        if checkpoint_fn:
            checkpoint_fn(it)

    if ema is not None:
        for avg, p in zip(ema, g_params):
            p.assign(avg)
    holdout = _holdout_accuracy(grammar_model, disc_model, X_hold, config, rng)
    return TrainResult(metrics=metrics, holdout_accuracy=holdout,
                       iterations=config.iterations,
                       parse_fallback_share=fallbacks / max(parsed, 1))


def _holdout_accuracy(grammar_model, disc_model, X_hold, config, rng):
    if len(X_hold) == 0:
        return float("nan")
    with ad.no_grad():
        n0 = grammar_model.encode_start(Tensor(X_hold[:, :config.prefix_len]))
        n_real = teacher_forced_states(grammar_model, X_hold, n0.value, rng,
                                       harden=config.harden_terminals)
        p_real = disc_model(Tensor(X_hold), Tensor(n_real)).value
        t_fake, n_fake, _, _ = grammar_model.unroll_batch(
            n0, X_hold.shape[1], config.policy, rng,
            tau=_tau_at(config, config.iterations - 1))
        if config.harden_terminals:
            t_fake = _harden(t_fake)
        p_fake = disc_model(t_fake, n_fake).value
    return _accuracy(p_real, p_fake)


# ---------------------------------------------------------------------------
# non-adversarial baseline: maximum likelihood over a pruned enumeration
# ---------------------------------------------------------------------------

@dataclass
class GrammarOnlyConfig:
    iterations: int = 1000
    batch_size: int = 16
    k_cap: int = 2
    max_paths: int = 64           # beam-style memory cap on the enumeration
    prefix_len: int = 4
    seed: int = 0
    lr0: float = 0.1
    momentum: float = 0.9
    log_every: int = 100

    def __post_init__(self):
        _check_positive(self, "iterations", "batch_size", "k_cap", "max_paths",
                        "prefix_len", "log_every")
        _check_sgd(self)


def _top_stable(x, m):
    """np.argsort(-x, axis=1, kind="stable")[:, :m] as a selection: entries
    above a row's (m+1)-th largest value, stably sorted; rows where that value
    ties the m-th (as equal path products do) or with a NaN take the full sort."""
    n = x.shape[1]
    if m >= n:
        return np.argsort(-x, axis=1, kind="stable")
    s = np.sort(x, axis=1)
    tie = ~(s[:, -m] > s[:, -m - 1]) | np.isnan(s[:, -1])
    keep = x > s[:, -m - 1, None]
    keep[tie] = np.arange(n) < m                  # stand-in, replaced below
    at = np.flatnonzero(keep).reshape(-1, m)      # flat indices
    rows = np.arange(len(x))[:, None]
    top = at.take((-x.take(at)).argsort(axis=1, kind="stable") + m * rows) - n * rows
    if tie.any():
        top[tie] = np.argsort(-x[tie], axis=1, kind="stable")[:, :m]
    return top


def _pruned_loglik(model, batch, n0, k_cap, max_paths):
    """Differentiable log-likelihood of token batches under the grammar,
    summed over a pruned enumeration of rule paths.

    With k = min(k_cap, R), the pruning rule is:
    - step 0: keep the k rules of largest p0, ties to the lower rule index;
    - each later step: every kept path (the parent) proposes the k successor
      rules r' of largest probs_all[parent rule, r'], ties to the lower rule
      index. A candidate's weight is (w_parent * probs_all[r, r']) *
      t_all[r', token], multiplied in that order. Of the candidates, listed
      parent by parent and within a parent in successor rank order, keep the
      max_paths heaviest, ties to the earlier candidate.
    The result is the batch mean of log(sum of kept path weights).

    The (R, R) table is ranked once per call, and candidates are weighed
    only at the kept (parent, successor) pairs. The beam and the rule-table
    head probs_all = softmax(mask(W_n @ W_r + b_r)) are one autodiff node,
    whose backward repeats the primitive-op graph's backward expressions in
    that graph's order, so every gradient is the same bit for bit: mean,
    log, clamp, sum; then from step L-1 down to step 0 a step's products and
    gathers (each scatter-add one bincount), its sums into t_all and
    probs_all added in that order; then the head's softmax, bias and matmul."""
    (B, L), R = batch.shape, model.config.num_rules
    w_r, b_r, w_n, w_t = model.weights()         # f_n(I) is W_n, f_t(I) is W_t
    t_all = ad.softmax(w_t)
    p0 = model.rule_probs(n0)                    # (B, R)
    P0, T = p0.value, t_all.value
    P = _softmax_kept(*model._head(w_n.value))   # probs_all, (R, R)
    C, rows = T.shape[1], np.arange(B)[:, None]

    # level 0: top-k rules per example. A step holds flat indices and factors
    # (parent, trans, emis); step 0's parent is p0, its trans 1.0 (x * 1.0 is x)
    k = min(k_cap, R)
    cur = _top_stable(P0, k)                                          # (B, k)
    at, emis_at = cur + R * rows, cur * C + batch[:, [0]]
    steps = [(at, B * R, None, emis_at, P0.take(at), 1.0, T.take(emis_at))]
    w = P0.take(at) * T.take(emis_at)
    succ = _top_stable(P, k)                                          # (R, k)
    for j in range(1, L):
        W = cur.shape[1]
        # per parent keep top-k rules, then cap total paths
        keep_r = succ[cur]                                            # (B, W, k)
        trans_at = keep_r + R * cur[:, :, None]
        emis_at = keep_r * C + batch[:, j, None, None]
        trans_sel, emis_sel = P.take(trans_at), T.take(emis_at)
        cand_sel = w[:, :, None] * trans_sel * emis_sel
        order = _top_stable(cand_sel.reshape(B, W * k), max_paths)
        at, parent = order + W * k * rows, order // k + W * rows
        steps.append((parent, B * W, trans_at.take(at), emis_at.take(at),
                      w.take(parent), trans_sel.take(at), emis_sel.take(at)))
        w = cand_sel.take(at)
        cur = keep_r.take(at)
    tot = w.sum(axis=1)
    clamped = np.maximum(tot, 1e-300)

    def bwd(g):
        g = np.full_like(clamped, 1.0 / B) * g / clamped * (tot > 1e-300)  # mean, log, clamp
        gw = np.expand_dims(g, 1) * np.ones_like(w)       # sum along paths
        gP = gT = None
        for parent, size, trans_at, emis_at, wp, tr, em in reversed(steps):
            # (w_parent * trans) * emis; emis's gather first, the parent's last
            dT = np.bincount(emis_at.ravel(), (gw * (wp * tr)).ravel(), R * C)
            gT = dT if gT is None else gT + dT
            gm = gw * em
            if trans_at is not None:
                dP = np.bincount(trans_at.ravel(), (gm * wp).ravel(), R * R).reshape(R, R)
                gP = dP if gP is None else gP + dP
            gw = np.bincount(parent.ravel(), (gm * tr).ravel(), size).reshape(B, -1)
        if gP is not None:
            # softmax; its +-0 where the mask dropped a rule is gl * keep's
            gl = P * (gP - (gP * P).sum(axis=-1, keepdims=True))
            ad._acc(b_r, gl.sum(axis=0))
            ad._acc(w_n, gl @ w_r.value.T)
            ad._acc(w_r, w_n.value.T @ gl)
        ad._acc(t_all, gT.reshape(R, C))
        ad._acc(p0, gw)

    return ad._node(np.log(clamped).mean(), (p0, t_all, w_n, w_r, b_r), bwd)


def train_grammar_only(dataset, grammar_model, config, on_log=None):
    """Maximize data likelihood over the pruned enumeration of futures."""
    if len(dataset) == 0:
        raise InputError("empty dataset")
    _check_prefix_len(config, dataset.length)
    X = dataset.one_hot()
    toks = np.asarray(dataset.records, dtype=np.int64).reshape(len(dataset), dataset.length)
    rng = np.random.default_rng(config.seed)
    opt = SGD(grammar_model.parameters(), lr0=config.lr0,
              momentum=config.momentum, total_steps=config.iterations)
    metrics = []
    for it in range(config.iterations):
        take = rng.integers(0, len(X), size=config.batch_size)
        n0 = grammar_model.encode_start(Tensor(X[take][:, :config.prefix_len]))
        loglik = _pruned_loglik(grammar_model, toks[take], n0,
                                config.k_cap, config.max_paths)
        loss = -loglik
        ad.backward(loss)
        opt.step()
        if it % config.log_every == 0 or it == config.iterations - 1:
            row = {"iteration": it, "nll": float(loss.value), "lr": opt.lr(min(it, config.iterations))}
            metrics.append(row)
            if on_log:
                on_log(row)
    return metrics
