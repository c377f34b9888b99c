"""Differentiable regular grammar with a global learned rule bank.

The generator keeps a bank of `num_rules` production rules of the form
A -> aB. A rule head maps the current non-terminal vector to a probability
distribution over the bank; a stochastic relaxed-categorical draw selects one
rule; two expander networks map the selection to the next non-terminal and the
emitted terminal. Unrolling repeats this, so every sequence is a path through
the rule bank.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InputError, ParameterError, ParseError, ResourceError
from .nn import ACTIVATIONS, Conv1d, Dense, MLP

POLICIES = ("sample_hard", "sample_soft", "greedy")


@dataclass
class GrammarConfig:
    d_nonterminal: int = 64
    d_terminal: int = 8
    num_rules: int = 256
    branching_k: int = 4
    topk_mask: int | None = None
    gumbel_temperature: float = 1.0
    terminal_activation: str = "softmax"
    encoder_channels: int = 64

    def __post_init__(self):
        if self.d_nonterminal <= 0 or self.d_terminal <= 0 or self.num_rules <= 0:
            raise ParameterError("dimensions must be positive")
        if self.gumbel_temperature <= 0:
            raise ParameterError("gumbel temperature must be > 0")
        if self.topk_mask is not None and not (1 <= self.topk_mask <= self.num_rules):
            raise ParameterError("topk_mask must be in [1, num_rules]")
        if not (1 <= self.branching_k <= self.num_rules):
            raise ParameterError("branching_k must be in [1, num_rules]")
        if self.terminal_activation not in ("softmax", "sigmoid", "none"):
            raise ParameterError(f"bad terminal_activation {self.terminal_activation!r}")


def activity_config(num_classes, multi_label=False, **overrides):
    """Activity preset: 64-d non-terminals, 256 shared rules, 4-way branching."""
    cfg = dict(
        d_nonterminal=64, d_terminal=num_classes, num_rules=256,
        branching_k=4, topk_mask=4,
        terminal_activation="sigmoid" if multi_label else "softmax",
    )
    cfg.update(overrides)
    return GrammarConfig(**cfg)


@dataclass
class SequenceSample:
    nonterminals: list            # L+1 vectors, starting at the seed state
    terminals: list               # L vectors
    rule_indices: list            # L ints
    log_prob: float
    length: int


def _softmax_kept(s, kept):
    """Softmax over the last axis of s with the entries outside the flat
    indices `kept` taken as -inf; each row's largest entry must be kept (a
    top-k mask keeps it). exp runs on the kept entries only; the others are
    exactly 0, as exp(-inf) would make them, so each row sum adds the same
    terms in the same order as a full-width softmax."""
    mx = s.max(axis=-1)
    e = np.zeros(s.shape)
    e.put(kept, np.exp(s.take(kept) - mx.take(kept // s.shape[-1])))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _sum(a, b):
    """a + b, where None stands for a gradient that never arrived."""
    if a is None:
        return b
    return a if b is None else a + b


def _kept(logits):
    """Flat indices of the entries of logits that are not -inf."""
    return (logits != -np.inf).ravel().nonzero()[0]


def _gumbel_probs(logits, kept, noise, inv):
    """softmax((logits + g) * inv) over the last axis, with Gumbel noise
    g = -log(-log(noise)) drawn only at the flat indices `kept`; the other
    entries count as -inf. logits and noise have one shape. The forward of
    gumbel_softmax and of the unroll, so both pick the same argmax bit for
    bit."""
    g = -np.log(-np.log(noise.take(kept)))
    s = np.full(logits.shape, -np.inf)
    s.put(kept, (logits.take(kept) + g) * inv)
    return _softmax_kept(s, kept)


def gumbel_softmax(logits, tau, noise, hard=False):
    """Relaxed categorical draw from unnormalized logits.

    noise must be standard-uniform in the open interval (0, 1). In hard mode
    the forward output is exactly one-hot at the argmax of the soft sample and
    the gradient is the soft sample's (straight-through).

    One autodiff node: the forward is softmax((logits + g) / tau) with Gumbel
    noise g = -log(-log(noise)), computed only where logits are not -inf (a
    masked rule gets weight 0 whatever its noise), and the backward is the
    softmax Jacobian scaled by 1/tau, into logits only.
    """
    if tau <= 0:
        raise ParameterError("gumbel temperature must be > 0")
    noise = np.asarray(noise, dtype=np.float64)
    if not ((noise > 0) & (noise < 1)).all():        # NaN fails too
        raise ParameterError("gumbel noise must lie in the open interval (0, 1)")
    logits = logits if isinstance(logits, Tensor) else Tensor(logits)
    lv = logits.value
    inv = 1.0 / tau
    lb, nb = np.broadcast_arrays(lv, noise)
    y = _gumbel_probs(lb, _kept(lb), nb, inv)
    if hard:
        out_v = (np.arange(y.shape[-1]) == y.argmax(axis=-1)[..., None]).astype(np.float64)
    else:
        out_v = y

    def bwd(gy):
        dot = (gy * y).sum(axis=-1, keepdims=True)
        ad._acc(logits, ad._unbroadcast((y * (gy - dot)) * inv, lv.shape))

    return ad._node(out_v, (logits,), bwd)


class _ConvEncoder:
    """Two temporal 1-d conv layers, mean-pool over time, dense head."""

    def __init__(self, rng, cfg):
        ch = cfg.encoder_channels
        self.conv1 = Conv1d(rng, cfg.d_terminal, ch, kernel=3,
                            padding="same", activation="relu", name="enc.conv1")
        self.conv2 = Conv1d(rng, ch, ch, kernel=3, padding="same",
                            activation="relu", name="enc.conv2")
        self.head = Dense(rng, ch, cfg.d_nonterminal, name="enc.head")

    def __call__(self, x):
        h = self.conv2(self.conv1(x))
        return self.head(ad.mean(h, axis=1))

    def parameters(self):
        return self.conv1.parameters() + self.conv2.parameters() + self.head.parameters()


class GrammarModel:
    """Encoder s, rule head f_R, expanders f_N / f_T, and unrolling."""

    def __init__(self, config, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        cfg = config
        self.encoder = _ConvEncoder(rng, cfg)
        self.f_r = MLP(rng, [cfg.d_nonterminal, cfg.num_rules], name="f_r")
        # expanders are bias-free: a shared bias is a common-mode channel that
        # lets adversarial gradients drag every rule's expansion to the same
        # output, collapsing the rule bank; without it a one-hot selection
        # reads a distinct column of each weight matrix
        self.f_n = MLP(rng, [cfg.num_rules, cfg.d_nonterminal], name="f_n", bias=False)
        self.f_t = MLP(rng, [cfg.num_rules, cfg.d_terminal], name="f_t", bias=False)

    # -- parameter plumbing -------------------------------------------------
    def parameters(self):
        return (self.encoder.parameters() + self.f_r.parameters()
                + self.f_n.parameters() + self.f_t.parameters())

    def named_parameters(self):
        return {p.name: p for p in self.parameters()}

    def load_state(self, state):
        for name, p in self.named_parameters().items():
            if name not in state:
                raise ParseError(f"checkpoint missing parameter {name!r}")
            p.assign(state[name])

    # -- forward pieces -----------------------------------------------------
    def encode_start(self, x):
        """Map an observed prefix (B, L, d_in) to starting non-terminals (B, d_n)."""
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        if x.value.ndim == 2:
            x = ad.reshape(x, (1,) + x.value.shape)
        if x.value.ndim != 3 or x.value.shape[1] == 0:
            raise InputError("encode_start needs a non-empty (B, L, d) input")
        if x.value.shape[2] != self.config.d_terminal:
            raise DimensionError(
                f"encoder input width {x.value.shape[2]} != {self.config.d_terminal}")
        return self.encoder(x)

    def weights(self):
        """(W_r, b_r, W_n, W_t): the Parameters of the rule head and of the
        two expanders, each a single layer, so f_n(I) is W_n and f_t(I)
        is W_t."""
        head = self.f_r.layers[0]
        return head.w, head.b, self.f_n.layers[0].w, self.f_t.layers[0].w

    def _topk_keep(self, v):
        """Boolean mask of the top-k entries of each row of the rule logits
        v, exactly k per row (ties broken by rank); None when no mask
        applies."""
        m = self.config.topk_mask
        if m is None or m >= self.config.num_rules:
            return None
        kth = np.partition(v, -m, axis=-1)[..., -m][..., None]
        keep = v >= kth
        # per-row tie overflow: keep exactly m by rank
        if np.any(keep.sum(axis=-1) != m):
            order = np.argsort(-v, kind="stable", axis=-1)
            keep = np.zeros_like(v, dtype=bool)
            np.put_along_axis(keep, order[..., :m], True, axis=-1)
        return keep

    def _head(self, n):
        """(s, kept) of the rule head at states n (B, d): the logits
        s = n @ W_r + b_r, unmasked, and the flat indices of the entries the
        top-k mask keeps. rule_logits(n) is s with the others set to -inf."""
        w_r, b_r, _, _ = self.weights()
        s = n @ w_r.value
        s += b_r.value
        keep = self._topk_keep(s)
        return s, np.arange(s.size) if keep is None else keep.ravel().nonzero()[0]

    def rule_logits(self, n):
        """Rule-bank logits with the optional top-k mask applied."""
        n = n if isinstance(n, Tensor) else Tensor(n)
        logits = self.f_r(n)
        keep = self._topk_keep(logits.value)
        return logits if keep is None else ad.mask_logits(logits, keep)

    def rule_probs(self, n):
        return ad.softmax(self.rule_logits(n))

    # -- unrolling ----------------------------------------------------------
    def unroll_batch(self, n0, length, policy="sample_hard", rng=None, tau=None,
                     return_entropy=False):
        """Differentiable batched unroll.

        Returns (terminals (B,L,C) Tensor, nonterminals N_1..N_L (B,L,d) Tensor,
        rule_indices (B,L) int array, log_prob (B,) array). With
        return_entropy=True a fifth element is appended: the mean per-step
        rule-distribution entropy as a differentiable scalar.

        The L steps are one autodiff node over n0, W_r, b_r, W_n and W_t; the
        terminal activation is one more node over all steps. A step computes
        what the primitive ops would: masked rule logits n @ W_r + b_r, the
        Gumbel-softmax selection (straight-through when hard), then
        sel @ W_n and sel @ W_t, which a one-hot selection reads as gathered
        rows (a one-hot row times W adds only exact zeros). The backward is
        backpropagation through time from step L down to step 1, with the
        primitive ops' backward expressions in their order, so every
        gradient is theirs bit for bit: each weight sums its per-step gemms
        from step L down to step 1. A greedy selection passes no gradient
        into the logits, so then f_r and n0 get gradient from the entropy
        alone.
        """
        if policy not in POLICIES:
            raise ParameterError(f"unknown policy {policy!r}")
        if length < 1:
            raise ParameterError("unroll length must be >= 1")
        n0 = n0 if isinstance(n0, Tensor) else Tensor(n0)
        tau = self.config.gumbel_temperature if tau is None else tau
        if policy != "greedy" and tau <= 0:
            raise ParameterError("gumbel temperature must be > 0")
        inv = 1.0 / tau
        w_r, b_r, w_n, w_t = self.weights()
        Wr, Wn, Wt = w_r.value, w_n.value, w_t.value
        B, R = n0.value.shape[0], self.config.num_rules
        rows = np.arange(B)
        ns = [n0.value]           # N_0..N_L
        ts, indices, logp, entropies = [], [], np.zeros(B), []
        # what the backward reads beyond ns and indices, kept only when it
        # can run: a forward-only unroll, such as the holdout's over a tenth
        # of the dataset at once, holds none of it
        record = ad.grad_enabled()
        ys, ps = [], []           # soft samples; probs when entropy is returned
        for _ in range(length):
            s, kept = self._head(ns[-1])
            probs = _softmax_kept(s, kept)
            if return_entropy:
                plogp = probs * np.log(np.maximum(probs, 1e-12))
                entropies.append(plogp.sum(axis=-1).mean())
            if policy == "greedy":
                y, idx = None, np.argmax(probs, axis=-1)
            else:
                u = np.clip(rng.random((B, R)), 1e-12, 1.0 - 1e-12)
                y = _gumbel_probs(s, kept, u, inv)
                idx = np.argmax(y, axis=-1)
            logp += np.log(np.maximum(probs[rows, idx], 1e-300))
            if policy == "sample_soft":
                ns.append(y @ Wn)
                ts.append(y @ Wt)
            else:
                ns.append(Wn[idx])
                ts.append(Wt[idx])
            indices.append(idx)
            if record and y is not None:
                ys.append(y)
            if record and return_entropy:
                ps.append(probs)
        values = [np.stack(ts, axis=1), np.stack(ns[1:], axis=1)]
        if return_entropy:
            values.append(np.asarray(np.mean(entropies) * -1.0))

        def bwd(grads):
            g_t, g_n = grads[:2]
            g_e = grads[2] if return_entropy else None
            if g_e is not None:
                # the entropy's -1 scale, mean over steps, mean over rows
                c = (1.0 / B) * ((1.0 / length) * (g_e * -1.0))
            gn = None             # into N_j from step j+1's rule head
            for j in range(length - 1, -1, -1):
                y = ys[j] if ys else None
                if policy == "sample_soft":
                    sel = y
                else:
                    sel = np.zeros((B, R))
                    sel[rows, indices[j]] = 1.0
                gn = _sum(None if g_n is None else g_n[:, j, :], gn)
                gt = None if g_t is None else g_t[:, j, :]
                gsel = gl = None
                if gn is not None:
                    ad._acc(w_n, sel.T @ gn)
                    if y is not None:
                        gsel = gn @ Wn.T
                if gt is not None:
                    ad._acc(w_t, sel.T @ gt)
                    if y is not None:
                        gsel = _sum(gsel, gt @ Wt.T)
                if g_e is not None:
                    # p log max(p, 1e-12): product rule, then the softmax
                    p = ps[j]
                    clamped = np.maximum(p, 1e-12)
                    gp = c * np.log(clamped) + ((c * p) / clamped) * (p > 1e-12)
                    gl = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
                if gsel is not None:
                    # Gumbel-softmax Jacobian, scaled by 1/tau
                    gl = _sum(gl, (y * (gsel - (gsel * y).sum(axis=-1, keepdims=True))) * inv)
                if gl is None:
                    gn = None
                    continue
                # gl is already +-0 wherever the top-k mask dropped a rule
                # (p and y are exactly 0 there), so the mask's backward,
                # gl * keep, would return gl bit for bit
                ad._acc(b_r, gl.sum(axis=0))
                ad._acc(w_r, ns[j].T @ gl)
                gn = gl @ Wr.T
            if gn is not None:
                ad._acc(n0, gn)

        t_pre, nonterminals, *ent = ad._multi_node(values, (n0, w_r, b_r, w_n, w_t), bwd)
        terminals = ACTIVATIONS[self.config.terminal_activation](t_pre)
        return (terminals, nonterminals, np.stack(indices, axis=1), logp, *ent)

    def unroll(self, n0, length, policy="sample_hard", rng_seed=0):
        """Single-sequence unroll (inference only)."""
        n0 = np.asarray(n0, dtype=np.float64).reshape(1, -1)
        rng = np.random.default_rng(rng_seed)
        with ad.no_grad():
            t, n, idx, logp = self.unroll_batch(n0, length, policy, rng)
        return SequenceSample(
            nonterminals=[n0[0]] + [n.value[0, j] for j in range(length)],
            terminals=[t.value[0, j] for j in range(length)],
            rule_indices=list(idx[0]),
            log_prob=float(logp[0]),
            length=length,
        )

    # -- table form: rule i fully determines its successor state ------------
    def rule_tables(self):
        """Per-rule expansion tables (next state, terminal, next-step probs).

        Because the next non-terminal is a function of the selected rule alone,
        hard unrolls after the first step reduce to table lookups. Row r is
        the expansion of the one-hot selection of rule r, which is row r of
        the expander weights. The arrays are the caller's own.
        """
        _, _, w_n, w_t = self.weights()
        with ad.no_grad():
            t_all = ACTIVATIONS[self.config.terminal_activation](w_t).value
        probs_all = _softmax_kept(*self._head(w_n.value))
        return w_n.value.copy(), np.array(t_all), probs_all

    def sample_rule_paths(self, n0, length, num_samples, seed=0):
        """Hard-sampled rule-index paths (N, L) and their log_prob (N,), for
        N = num_samples * B futures from the (B, d) seed states n0.

        Path i starts from n0[i // num_samples]. A step draws one uniform u
        per path and takes the first rule whose cumulative probability (last
        entry set to 1) is not below u, as searchsorted(side="left") would.
        The draws are step-major, one (N,) row per step, so the paths of a
        shorter length are the first columns of those of a longer one.
        log_prob adds log(max(p, 1e-300)) of each chosen rule, step by step.

        The states are the R rules (rows of probs_all) and the B seeds (rows
        R + b). Of each state's cumulative row only column 0, the columns of
        nonzero probability and the last column are kept, padded with +inf:
        the first entry not below u is always one of them, because a zero
        adds nothing to the running sum and column 0 covers u = 0. A step
        binary-searches the rows of all paths at once.
        """
        if length < 1 or num_samples < 1:
            raise ParameterError("path length and num_samples must be >= 1")
        rng = np.random.default_rng(seed)
        _, _, probs_all = self.rule_tables()
        p0 = _softmax_kept(*self._head(np.asarray(n0, dtype=np.float64)))
        probs = np.concatenate([probs_all, p0])
        keep = probs > 0
        keep[:, [0, -1]] = True
        # each row's kept columns in ascending order, then padding
        width = keep.sum(axis=-1)
        K = int(width.max())
        cols = np.argsort(~keep, axis=-1, kind="stable")[:, :K]
        # x + 0.0 is x, so the running sum of a row's kept entries is its
        # full cumsum at those columns, bit for bit
        vals = np.cumsum(np.take_along_axis(probs, cols, axis=-1), axis=-1)
        vals[np.arange(len(vals)), width - 1] = 1.0     # the last column
        vals[np.arange(K) >= width[:, None]] = np.inf
        state = len(probs_all) + np.repeat(np.arange(len(p0)), num_samples)
        paths = np.empty((len(state), length), dtype=np.int64)
        logp = np.zeros(len(state))
        u = rng.random((length, len(state)))     # step-major: one (N,) draw per step
        for j in range(length):
            # the kept entries of a row never decrease before its last one,
            # which is 1 > u, so those below u come first: a binary search
            # counts them in log2(K) gathers (K is R when nothing is masked)
            lo, hi = np.zeros(len(state), dtype=np.int64), np.full(len(state), K)
            for _ in range(K.bit_length()):
                mid = (lo + hi) // 2
                below = vals[state, np.minimum(mid, K - 1)] < u[j]
                lo, hi = np.where(below, mid + 1, lo), np.where(below, hi, mid)
            rule = cols[state, lo]
            logp += np.log(np.maximum(probs[state, rule], 1e-300))
            state = paths[:, j] = rule
        return paths, logp

    def enumerate_all(self, n0, length, k_cap=None, budget=10**6):
        """Exhaustively expand the k_cap most probable rules per step.

        Returns [(SequenceSample, probability)] sorted by descending path
        probability. Probabilities are raw products of the per-step rule
        probabilities (no renormalization over the pruned tree).
        """
        k_cap = self.config.branching_k if k_cap is None else k_cap
        if length < 1:
            raise ParameterError("length must be >= 1")
        if k_cap < 1 or k_cap > self.config.num_rules:
            raise ParameterError("k_cap must be in [1, num_rules]")
        if k_cap ** length > budget:
            raise ResourceError(
                f"enumeration needs k^L = {k_cap}^{length} = {k_cap ** length} "
                f"sequences, over budget {budget}")
        n0 = np.asarray(n0, dtype=np.float64).reshape(-1)
        n_all, t_all, probs_all = self.rule_tables()
        with ad.no_grad():
            p0 = self.rule_probs(Tensor(n0.reshape(1, -1))).value[0]

        def topk(p):
            order = np.argsort(-p, kind="stable")
            return order[:k_cap]

        results = []
        # DFS over (depth, prefix indices, prefix prob, step distribution)
        stack = [((), 1.0, p0)]
        while stack:
            prefix, prob, p = stack.pop()
            for i in topk(p):
                q = prob * p[i]
                path = prefix + (int(i),)
                if len(path) == length:
                    results.append((path, q))
                else:
                    stack.append((path, q, probs_all[i]))
        results.sort(key=lambda r: (-r[1], r[0]))
        out = []
        for path, q in results:
            idx = np.asarray(path)
            sample = SequenceSample(
                nonterminals=[n0] + [n_all[i] for i in idx],
                terminals=[t_all[i] for i in idx],
                rule_indices=list(path),
                log_prob=float(np.log(max(q, 1e-300))),
                length=length,
            )
            out.append((sample, float(q)))
        return out
