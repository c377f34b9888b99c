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
from .grammar import _softmax_rows, _top_stable
from .nn import SGD, Conv1d, Dense
from .synthdata import one_hot

LOG_CLAMP = 1e-7
KERNEL_WIDTH, STRIDE = 5, 4              # of every discriminator conv layer
HOLDOUT_FRACTION = 0.1                   # share of the rows D is scored on at the end
HOLDOUT_BLOCK = 256                      # most rows the holdout runs through at once
# the likelihood beam's weight of a rule at a token it does not emit; with 0,
# a row that no kept path emits would have no weight and pass no gradient
EMISSION_FLOOR = np.exp(-50.0)


@dataclass
class DiscriminatorConfig:
    conv_channels: tuple = (16, 32, 16)

    def __post_init__(self):
        if not self.conv_channels or any(c <= 0 for c in self.conv_channels):
            raise ParameterError("conv channels must be a non-empty list of positive sizes")


class Discriminator:
    def __init__(self, d_terminal, d_nonterminal, config=None, seed=0):
        self.config = config or DiscriminatorConfig()
        rng = np.random.default_rng(seed)
        self.t_stack = self._stack(rng, d_terminal, "d.t")
        self.n_stack = self._stack(rng, d_nonterminal, "d.n")
        self.head = Dense(rng, 2 * self.config.conv_channels[-1], 1, name="d.head")

    def _stack(self, rng, d_in, name):
        layers = []
        c_prev = d_in
        for i, c in enumerate(self.config.conv_channels):
            layers.append(Conv1d(rng, c_prev, c, kernel=KERNEL_WIDTH,
                                 stride=STRIDE, name=f"{name}.conv{i}"))
            c_prev = c
        return layers

    def __call__(self, t_seq, n_seq):
        """Real/fake probability in (0, 1) for aligned terminal and
        non-terminal streams of shape (B, L, d)."""
        t_seq, n_seq = ad._as_tensor(t_seq), ad._as_tensor(n_seq)
        if t_seq.value.ndim != 3 or n_seq.value.ndim != 3:
            raise DimensionError("discriminator inputs must be (B, L, d)")
        if t_seq.value.shape[1] == 0:
            raise InputError("discriminator got an empty sequence")
        if t_seq.value.shape[:2] != n_seq.value.shape[:2]:
            raise DimensionError("terminal and non-terminal streams must align")
        ht, hn = t_seq, n_seq
        for layer in self.t_stack:
            ht = ad.relu(layer(ht))
        for layer in self.n_stack:
            hn = ad.relu(layer(hn))
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
    p_real, p_fake = ad._as_tensor(p_real), ad._as_tensor(p_fake)
    real_term = ad.mean(ad.log(ad.clamp_min(p_real, LOG_CLAMP)))
    fake_term = ad.mean(ad.log(ad.clamp_min(1.0 - p_fake, LOG_CLAMP)))
    return -real_term - fake_term


def generator_loss(p_fake):
    """Non-saturating generator loss, -mean log p_fake."""
    # no 1e-7 clamp here: clamping zeroes the gradient exactly when the
    # discriminator is winning, which is when the generator needs it most;
    # the tiny guard only dodges a literal log(0)
    return -ad.mean(ad.log(ad.clamp_min(p_fake, 1e-300)))


def _check_positive(config, *names):
    bad = [n for n in names if getattr(config, n) <= 0]
    if bad:
        raise ParameterError(f"{', '.join(bad)} must be positive")


def _check_sgd(config):
    if not config.lr0 >= 0:                      # also rejects NaN
        raise ParameterError("lr0 must be >= 0")


def _check_prefix_len(prefix_len, length):
    if prefix_len > length:
        raise ParameterError("prefix_len exceeds sequence length")


@dataclass
class TrainConfig:
    iterations: int = 5000
    batch_size: int = 32
    prefix_len: int = 4
    seed: int = 0
    lr0: float = 0.02                    # both G's and D's
    tau_end: float = 0.0                 # anneal target from 1.0; 0: no anneal
    d_loss_floor: float = 0.7            # skip D updates below this loss; 0: never
    entropy_weight: float = 0.1          # bonus on rule-distribution entropy
    ema_decay: float = 0.999             # Polyak-average generator weights; 0: off
    log_every: int = 100

    def __post_init__(self):
        _check_positive(self, "iterations", "batch_size", "prefix_len", "log_every")
        _check_sgd(self)
        if not self.tau_end >= 0:                # also rejects NaN
            raise ParameterError("tau_end must be >= 0")
        if not 0 <= self.ema_decay < 1:
            raise ParameterError("ema_decay must be in [0, 1)")


@dataclass
class TrainResult:
    metrics: list                 # rows of (iteration, d_loss, g_loss, d_acc, lr)
    holdout_accuracy: float
    iterations: int
    # share of the parsed real steps where no kept rule emits the token
    parse_fallback_share: float = 0.0


def teacher_forced_states(model, batch, n0, rng, tables=None):
    """Non-terminal stream for real data, built by a teacher-forced parse.

    From the seed states n0, each step *samples* a rule from the
    forward-filtering posterior: the rule law at the current state restricted
    to the rules that emit the observed token, given the tokens so far (not
    the smoothing posterior, which also conditions on later tokens). So a
    parsed rule can emit the observed token yet have no successor that emits
    the next one; a step where no kept rule emits the token falls back to
    the rule law alone. A deterministic argmax here would hand the
    discriminator an artifact that persists at convergence.

    Returns (the rows of n_all at the parsed rules, (B, L, d), the number of
    (row, step) pairs that fell back). Forward-only. tables is the model's
    rule_tables(n0) at its current weights, row b of n0 its seed state
    R + b, built here when None; other seed rows are a DimensionError.

    A row starts at its seed state and reads its state's row of the table at
    every step, the state then moving to the parsed rule. A step weighs the
    k kept rules of each row (a dropped rule has probability 0), normalizes
    by the row's sum over the k weights scattered into a zeroed row, and
    draws one uniform u per row: the first kept rule whose running sum is at
    least u, rule 0 when u is 0, and rule R - 1 when u is above the last
    running sum. That is what a cumsum over the full row, its last entry set
    to 1, selects bit for bit."""
    if tables is None:
        tables = model.rule_tables(np.asarray(n0, dtype=np.float64))
    n_all, emit, probs_all, kept, _ = tables
    tokens = np.argmax(batch, axis=2)
    (B, L), R, k = tokens.shape, len(n_all), kept.shape[1]
    if len(kept) != R + B:
        raise DimensionError("the rule tables need one seed row per row of the batch")
    rows = np.arange(B)
    base = rows[:, None] * R                # flat offset of each row of a (B, R) array
    kept_probs = np.take_along_axis(probs_all, kept, axis=1)     # (R + B, k)
    state = R + rows
    rules = np.empty((B, L), dtype=np.intp)
    fallbacks = 0
    for j in range(L):
        # each row's kept rules at its state and their law
        cols, p = kept[state], kept_probs[state]
        w = p * (emit[cols] == tokens[:, j, None])
        miss = np.flatnonzero(~(w > 0).any(axis=1))
        fallbacks += len(miss)
        w[miss] = p[miss]
        row = np.zeros((B, R))
        row.put(cols + base, w)
        w /= row.sum(axis=1, keepdims=True)
        cum = np.cumsum(w, axis=1)
        u = rng.random((B, 1))
        first = (cum < u).sum(axis=1)
        idx = np.where(first < k, cols[rows, np.minimum(first, k - 1)], R - 1)
        idx[u[:, 0] == 0] = 0
        rules[:, j] = state = idx
    return n_all[rules], fallbacks


def _tau_at(cfg, it):
    if not cfg.tau_end:
        return 1.0
    frac = it / max(cfg.iterations - 1, 1)
    return 1.0 + frac * (cfg.tau_end - 1.0)


def _accuracy(p_real, p_fake):
    return 0.5 * (float(np.mean(p_real > 0.5)) + float(np.mean(p_fake < 0.5)))


def train_adversarial(dataset, grammar_model, disc_model, config,
                      on_log=None, checkpoint_fn=None):
    """Alternating GAN loop; no supervised loss on the generator.

    Each iteration takes one discriminator step and one generator step on a
    batch one-hot encoded from its own rows of dataset.records; the dataset
    as a whole stays token rows. on_log(row) is called for each metrics row;
    checkpoint_fn(iteration) after each iteration.
    """
    if len(dataset) == 0:
        raise InputError("empty dataset")
    L = dataset.length
    _check_prefix_len(config.prefix_len, L)
    n_hold = int(len(dataset) * HOLDOUT_FRACTION)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    hold_rows, train_rows = perm[:n_hold], perm[n_hold:]
    if len(train_rows) == 0:
        raise InputError("no training data left after holdout split")

    g_opt = SGD(grammar_model.parameters(), lr0=config.lr0, total_steps=config.iterations)
    d_opt = SGD(disc_model.parameters(), lr0=config.lr0, total_steps=config.iterations)
    g_params = grammar_model.parameters()
    # Polyak average damps the limit cycling of the adversarial game; the
    # averaged weights become the trained generator
    ema = None
    if config.ema_decay:
        ema = [p.value.copy() for p in g_params]

    metrics = []
    parsed = fallbacks = 0
    for it in range(config.iterations):
        take = rng.integers(0, len(train_rows), size=config.batch_size)
        batch = one_hot(dataset.records[train_rows[take]], dataset.alphabet_size)
        d_loss_v, g_loss_v, acc_v, fell = _adversarial_step(
            grammar_model, disc_model, batch, config, it, rng, d_opt, g_opt)
        parsed += batch.shape[0] * L
        fallbacks += fell
        if ema is not None:
            d = config.ema_decay
            for avg, p in zip(ema, g_params):
                avg *= d
                avg += (1.0 - d) * p.value
        if not (np.isfinite(d_loss_v) and np.isfinite(g_loss_v)):
            raise ParameterError(f"non-finite loss at iteration {it}")

        if it % config.log_every == 0 or it == config.iterations - 1:
            row = {"iteration": it, "d_loss": d_loss_v, "g_loss": g_loss_v,
                   "d_accuracy": acc_v, "lr": g_opt.lr(it)}
            metrics.append(row)
            if on_log:
                on_log(row)
        if checkpoint_fn:
            checkpoint_fn(it)

    if ema is not None:
        for avg, p in zip(ema, g_params):
            p.assign(avg)
    holdout = float("nan")
    if n_hold:
        holdout = _accuracy(*_holdout_scores(grammar_model, disc_model, dataset, hold_rows,
                                             config, rng))
    return TrainResult(metrics=metrics, holdout_accuracy=holdout,
                       iterations=config.iterations,
                       parse_fallback_share=fallbacks / max(parsed, 1))


def _adversarial_step(grammar_model, disc_model, batch, config, it, rng, d_opt, g_opt):
    """Iteration `it` of train_adversarial on the one-hot batch (B, L, C):
    one discriminator step, then one generator step. Returns (d_loss, g_loss,
    D's accuracy, parse fallbacks); the iteration's autodiff graph is freed
    on return, so no two iterations' graphs are alive together."""
    n0 = grammar_model.encode_start(Tensor(batch[:, :config.prefix_len]))
    # one rule table for the iteration, its seed rows the encoded prefixes,
    # read by the unroll and by the parse, and freed once the parse has read it
    tables = grammar_model.rule_tables(n0.value)
    unrolled = grammar_model.unroll_batch(
        n0, batch.shape[1], rng, tau=_tau_at(config, it),
        return_entropy=bool(config.entropy_weight), tables=tables)
    t_fake, n_fake = unrolled[:2]
    n_real, fell = teacher_forced_states(grammar_model, batch, n0.value, rng, tables)
    del tables
    p_real = disc_model(Tensor(batch), Tensor(n_real))
    p_fake = disc_model(t_fake.detach(), n_fake.detach())
    d_loss = discriminator_loss(p_real, p_fake)
    d_loss_v = float(d_loss.value)
    acc_v = _accuracy(p_real.value, p_fake.value)
    # throttle D near the decision boundary: a saturated D pushes
    # p_fake under the log clamp and the generator goes gradient-dead;
    # the loss is >= 0, so a floor of 0 never throttles
    if d_loss_v >= config.d_loss_floor:
        ad.backward(d_loss)
        d_opt.step()
    else:
        d_opt.skip()
    # generator step reuses the recorded fake-batch graph
    g_loss = generator_loss(disc_model(t_fake, n_fake))
    g_obj = g_loss
    if config.entropy_weight:
        # data-free entropy bonus; keeps rule selection from sharpening
        # into a deterministic basin whose softmax gradient vanishes
        g_obj = ad.add(g_loss, ad.mul(unrolled[4], -config.entropy_weight))
    ad.backward(g_obj)
    for p in d_opt.params:          # generator backward also reaches D weights
        p.grad = None
    g_opt.step()
    return d_loss_v, float(g_loss.value), acc_v, fell


def _holdout_scores(grammar_model, disc_model, dataset, rows, config, rng):
    """D's scores (p_real, p_fake) of the held-out `rows` of dataset, their
    parse giving the real non-terminal streams, and of as many fakes the
    generator unrolls from the same prefixes at the last iteration's tau.

    The N rows run one block after another, in the ceil(N / HOLDOUT_BLOCK)
    near-equal blocks of np.array_split, so memory grows with the block and
    not with N. Each block runs a training iteration's forward pieces under
    no_grad: encode, the rule table with the block's encoded prefixes as its
    seed rows, parse, then unroll. D scores the two streams once the table
    is freed, and no stream outlives its block."""
    tau = _tau_at(config, config.iterations - 1)
    p_real, p_fake = [], []
    with ad.no_grad():
        for part in np.array_split(rows, -(-len(rows) // HOLDOUT_BLOCK)):
            batch = one_hot(dataset.records[part], dataset.alphabet_size)
            n0 = grammar_model.encode_start(Tensor(batch[:, :config.prefix_len]))
            tables = grammar_model.rule_tables(n0.value)
            n_real = teacher_forced_states(grammar_model, batch, n0.value, rng, tables)[0]
            fake = grammar_model.unroll_batch(n0, batch.shape[1], rng, tau=tau,
                                              tables=tables)[:2]
            del tables
            p_real.append(disc_model(batch, n_real).value)
            p_fake.append(disc_model(*fake).value)
            del n_real, fake
    return np.concatenate(p_real), np.concatenate(p_fake)


# ---------------------------------------------------------------------------
# non-adversarial baseline: maximum likelihood over a pruned enumeration
# ---------------------------------------------------------------------------

@dataclass
class GrammarOnlyConfig:
    iterations: int = 5000
    batch_size: int = 32
    k_cap: int = 2
    max_paths: int = 64           # beam-style memory cap on the enumeration
    prefix_len: int = 4
    seed: int = 0
    lr0: float = 0.02
    log_every: int = 100

    def __post_init__(self):
        _check_positive(self, "iterations", "batch_size", "k_cap", "max_paths",
                        "prefix_len", "log_every")
        _check_sgd(self)


def _successors(P, e, own, k):
    """np.argsort(-(P * e), axis=1, kind="stable")[:, :k], e the weights at a
    token that the rules of the mask `own` emit. A law is at most 1, so where
    the k-th best rule of own outweighs EMISSION_FLOOR, own's k best lead."""
    own = np.flatnonzero(own)
    if len(own) < k:
        return _top_stable(P * e, k)
    top = own[_top_stable(P[:, own], k)]
    other = np.flatnonzero(~(P[np.arange(len(P)), top[:, -1]] > EMISSION_FLOOR))
    if len(other):
        top[other] = _top_stable(P[other] * e, k)
    return top


def _pruned_loglik(model, batch, n0, k_cap, max_paths):
    """Differentiable log-likelihood of token batches under the grammar's
    unmasked rule law, summed over a pruned enumeration of rule paths.

    The beam ignores the top-k mask, so every rule gets gradient. A rule's
    emission weight e at a token is 1 if it emits the token, else
    EMISSION_FLOOR. With k = min(k_cap, R), step 0 keeps the k rules of
    largest p0 * e, and each later step every kept path (the parent, at rule
    r) proposes the k rules r' of largest probs_all[r, r'] * e(r'), ties to
    the lower rule, each weighing (w_parent * probs_all[r, r']) * e(r')
    (ranked by probability alone, a parent none of whose successors emits
    the token is stuck). Of the candidates, parent by parent and within a
    parent in rank order, the max_paths heaviest are kept, ties to the
    earlier one. The result is the batch mean of log(sum of path weights).

    The beam and both rule heads, probs_all = softmax(W_n @ W_r + b_r) and
    p0 = softmax(n0 @ W_r + b_r), are one autodiff node, whose backward
    repeats the primitive-op graph's backward expressions in its order, so
    every gradient is the same bit for bit: mean, log, clamp, sum; then from
    step L-1 down to step 0 a step's products and gathers (each scatter-add
    one bincount) and its sum into probs_all; then each head's softmax, bias
    and matmul, probs_all's before p0's. The sums into probs_all and its
    softmax run over the m rows that steps 1..L-1 visit, in ascending order,
    which gives each entry the dense (R, R) table's bits; the softmax rows
    are then scattered into a zero (R, R) gradient, because the head's
    matmuls keep their full shape: a gemm over the m rows alone takes
    another BLAS kernel (gemv for one row) and rounds differently."""
    (B, L), R = batch.shape, model.config.num_rules
    w_n = model.w_n                              # f_n(I) is W_n
    P0 = _softmax_rows(model._logits(n0.value))         # p0, (B, R)
    P = _softmax_rows(model._logits(w_n.value))         # probs_all, (R, R)
    E = np.where(model.emit == np.arange(model.config.d_terminal)[:, None], 1.0, EMISSION_FLOOR)
    rows = np.arange(B)[:, None]

    # level 0: top-k rules per example. A step holds flat indices and factors
    # (parent, trans, emis); step 0's parent is p0, its trans 1.0 (x * 1.0 is x)
    k = min(k_cap, R)
    cur = _top_stable(P0 * E[batch[:, 0]], k)                         # (B, k)
    at, emis = cur + R * rows, E[batch[:, [0]], cur]
    steps = [(at, B * R, None, P0.take(at), 1.0, emis)]
    w = P0.take(at) * emis
    # succ[c, r]: the k successors of rule r ranked by probs_all * e at a
    # token c that the batch reads after step 0
    succ = np.zeros((len(E), R, k), dtype=np.intp)
    for c in np.unique(batch[:, 1:]):
        succ[c] = _successors(P, E[c], model.emit == c, k)
    succ = succ.reshape(-1, k)                                        # row c * R + r
    for j in range(1, L):
        W = cur.shape[1]
        # per parent keep top-k rules, then cap total paths
        cR = R * batch[:, j, None]
        keep_r = succ.take(cR + cur, axis=0)                          # (B, W, k)
        trans_at = keep_r + R * cur[:, :, None]
        trans_sel = P.take(trans_at)
        emis_sel = E.take(keep_r + cR[:, :, None])
        cand_sel = w[:, :, None] * trans_sel * emis_sel
        order = _top_stable(cand_sel.reshape(B, W * k), max_paths)
        at, parent = order + W * k * rows, order // k + W * rows
        steps.append((parent, B * W, trans_at.take(at), w.take(parent),
                      trans_sel.take(at), emis_sel.take(at)))
        w = cand_sel.take(at)
        cur = keep_r.take(at)
    tot = w.sum(axis=1)
    clamped = np.maximum(tot, 1e-300)

    def bwd(g):
        g = np.full_like(clamped, 1.0 / B) * g / clamped * (tot > 1e-300)  # mean, log, clamp
        gw = np.expand_dims(g, 1) * np.ones_like(w)       # sum along paths
        # the m rows of probs_all that steps 1..L-1 read, ascending, and each
        # step's flat index into them
        seen = np.zeros(R, dtype=bool)
        for _, _, trans_at, *_ in steps[1:]:
            seen[trans_at // R] = True
        visited = np.flatnonzero(seen)
        shift = R * (np.cumsum(seen) - 1 - np.arange(R))
        gP = None
        for parent, size, trans_at, wp, tr, em in reversed(steps):
            # (w_parent * trans) * emis; the parent's gather last
            gm = gw * em
            if trans_at is not None:
                bins = trans_at + shift.take(trans_at // R)
                dP = np.bincount(bins.ravel(), (gm * wp).ravel(), len(visited) * R)
                gP = dP if gP is None else gP + dP
            gw = np.bincount(parent.ravel(), (gm * tr).ravel(), size).reshape(B, -1)
        # a head's softmax, then its logits' bias and matmul
        if gP is not None:
            Pv, gP = P[visited], gP.reshape(-1, R)
            gl = np.zeros_like(P)
            gl[visited] = Pv * (gP - (gP * Pv).sum(axis=-1, keepdims=True))
            ad._acc(w_n, model._head_backward(w_n.value, gl))
        gl = P0 * (gw - (gw * P0).sum(axis=-1, keepdims=True))
        ad._acc(n0, model._head_backward(n0.value, gl))

    return ad._node(np.log(clamped).mean(), (n0, w_n, model.w_r, model.b_r), bwd)


def train_grammar_only(dataset, grammar_model, config, on_log=None):
    """Maximize data likelihood over the pruned enumeration of futures, each
    batch one-hot encoded from its own rows of dataset.records."""
    if len(dataset) == 0:
        raise InputError("empty dataset")
    _check_prefix_len(config.prefix_len, dataset.length)
    rng = np.random.default_rng(config.seed)
    opt = SGD(grammar_model.parameters(), lr0=config.lr0, total_steps=config.iterations)
    metrics = []
    for it in range(config.iterations):
        tokens = dataset.records[rng.integers(0, len(dataset), size=config.batch_size)]
        n0 = grammar_model.encode_start(
            Tensor(one_hot(tokens[:, :config.prefix_len], dataset.alphabet_size)))
        loglik = _pruned_loglik(grammar_model, tokens, n0, config.k_cap, config.max_paths)
        loss = -loglik
        ad.backward(loss)
        opt.step()
        if it % config.log_every == 0 or it == config.iterations - 1:
            row = {"iteration": it, "nll": float(loss.value), "lr": opt.lr(it)}
            metrics.append(row)
            if on_log:
                on_log(row)
    return metrics
