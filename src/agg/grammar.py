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
# futures whose noise sample_hard_paths holds at once: 64 x L x R doubles
_FUTURES_PER_BLOCK = 64


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
    """Softmax over the last axis of s, whose entries outside the flat
    indices `kept` are -inf. exp runs on the kept entries only; the others
    are exactly 0, as exp(-inf) would make them, so each row sum adds the
    same terms in the same order as a full-width softmax."""
    mx = s.max(axis=-1)
    e = np.zeros(s.shape)
    e.put(kept, np.exp(s.take(kept) - mx.take(kept // s.shape[-1])))
    return e / e.sum(axis=-1, keepdims=True)


def _gumbel_probs(logits, noise, inv):
    """softmax((logits + g) * inv) over the last axis, with Gumbel noise
    g = -log(-log(noise)) drawn only where logits is not -inf; logits and
    noise broadcast together. The forward of gumbel_softmax and of the
    table sampler, so the two pick the same argmax bit for bit."""
    lb, nb = np.broadcast_arrays(logits, noise)
    kept = (lb != -np.inf).ravel().nonzero()[0]
    g = -np.log(-np.log(nb.take(kept)))
    s = np.full(lb.shape, -np.inf)
    s.put(kept, (lb.take(kept) + g) * inv)
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
    y = _gumbel_probs(lv, noise, inv)
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

    def rule_logits(self, n):
        """Rule-bank logits with the optional top-k mask applied."""
        n = n if isinstance(n, Tensor) else Tensor(n)
        logits = self.f_r(n)
        m = self.config.topk_mask
        if m is not None and m < self.config.num_rules:
            v = logits.value
            kth = np.partition(v, -m, axis=-1)[..., -m][..., None]
            keep = v >= kth
            # per-row tie overflow: keep exactly m by rank
            if np.any(keep.sum(axis=-1) != m):
                order = np.argsort(-v, kind="stable", axis=-1)
                keep = np.zeros_like(v, dtype=bool)
                np.put_along_axis(keep, order[..., :m], True, axis=-1)
            logits = ad.mask_logits(logits, keep)
        return logits

    def rule_probs(self, n):
        return ad.softmax(self.rule_logits(n))

    def expand(self, selection):
        """Map a (relaxed) one-hot rule selection to (next non-terminal, terminal)."""
        selection = selection if isinstance(selection, Tensor) else Tensor(selection)
        n_new = self.f_n(selection)
        t_new = ACTIVATIONS[self.config.terminal_activation](self.f_t(selection))
        return n_new, t_new

    # -- unrolling ----------------------------------------------------------
    def unroll_batch(self, n0, length, policy="sample_hard", rng=None, tau=None,
                     return_entropy=False):
        """Differentiable batched unroll.

        Returns (terminals (B,L,C) Tensor, nonterminals N_1..N_L (B,L,d) Tensor,
        rule_indices (B,L) int array, log_prob (B,) array). With
        return_entropy=True a fifth element is appended: the mean per-step
        rule-distribution entropy as a differentiable scalar.
        """
        if policy not in POLICIES:
            raise ParameterError(f"unknown policy {policy!r}")
        if length < 1:
            raise ParameterError("unroll length must be >= 1")
        n0 = n0 if isinstance(n0, Tensor) else Tensor(n0)
        tau = self.config.gumbel_temperature if tau is None else tau
        B = n0.value.shape[0]
        R = self.config.num_rules
        n = n0
        terminals, nonterminals, indices, logp = [], [], [], np.zeros(B)
        entropies = []
        for _ in range(length):
            logits = self.rule_logits(n)
            if return_entropy:
                p_t = ad.softmax(logits)
                plogp = ad.mul(p_t, ad.log(ad.clamp_min(p_t, 1e-12)))
                entropies.append(ad.mean(ad.sum_along(plogp, axis=-1)))
            probs = _softmax_kept(logits.value, (logits.value != -np.inf).ravel().nonzero()[0])
            if policy == "greedy":
                idx = np.argmax(probs, axis=-1)
                sel_v = np.zeros((B, R))
                sel_v[np.arange(B), idx] = 1.0
                sel = Tensor(sel_v)
            else:
                u = np.clip(rng.random((B, R)), 1e-12, 1.0 - 1e-12)
                sel = gumbel_softmax(logits, tau, u, hard=(policy == "sample_hard"))
                idx = np.argmax(sel.value, axis=-1)
            logp += np.log(np.maximum(probs[np.arange(B), idx], 1e-300))
            n, t = self.expand(sel)
            terminals.append(t)
            nonterminals.append(n)
            indices.append(idx)
        out = (ad.stack_time(terminals), ad.stack_time(nonterminals),
               np.stack(indices, axis=1), logp)
        if return_entropy:
            ent = ad.scale(ad.mean(ad.concat([ad.reshape(e, (1,)) for e in entropies],
                                             axis=0)), -1.0)
            return out + (ent,)
        return out

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

    def sample_hard_paths(self, n0, length, seeds):
        """Hard-sampled futures as rule paths (N, L) and log_prob (N,).

        There are N = len(seeds) futures, k = N // len(n0) per seed state:
        future f starts from n0[f // k] and draws its noise from
        default_rng(seeds[f]). Row f equals unroll(n0[f // k], length,
        "sample_hard", rng_seed=seeds[f]) bit for bit. After step 0 the state
        is the chosen rule's row of n_all, so the logits of each state reached
        are computed once, by the (1, d) rule_logits call the unroll makes (a
        gemm over all states would move the last bits), and each step gathers
        them for a block of futures.
        """
        if length < 1:
            raise ParameterError("unroll length must be >= 1")
        n0 = np.asarray(n0, dtype=np.float64)
        P, N, R = len(n0), len(seeds), self.config.num_rules
        if N and (not P or N % P):
            raise ParameterError("seeds must hold the same number of futures per seed state")
        k = N // P if P else 0
        inv = 1.0 / self.config.gumbel_temperature
        n_all, _, _ = self.rule_tables()
        states = np.concatenate([n_all, n0])      # rule r is row r, n0[i] is row R + i
        logits, probs = np.empty((2, len(states), R))
        done = np.zeros(len(states), dtype=bool)
        paths = np.empty((N, length), dtype=np.int64)
        logp = np.zeros(N)
        for a in range(0, N, _FUTURES_PER_BLOCK):
            b = min(a + _FUTURES_PER_BLOCK, N)
            # (L, futures, R): future f's stream drawn one (R,) row per step
            u = np.clip(np.stack([np.random.default_rng(s).random((length, R))
                                  for s in seeds[a:b]], axis=1), 1e-12, 1.0 - 1e-12)
            state = R + np.arange(a, b) // k
            for j in range(length):
                for i in np.unique(state[~done[state]]):
                    with ad.no_grad():
                        lg = self.rule_logits(Tensor(states[i:i + 1])).value
                    logits[i] = lg[0]
                    probs[i] = _softmax_kept(lg, (lg != -np.inf).ravel().nonzero()[0])[0]
                    done[i] = True
                idx = _gumbel_probs(logits[state], u[j], inv).argmax(axis=-1)
                logp[a:b] += np.log(np.maximum(probs[state, idx], 1e-300))
                paths[a:b, j] = idx
                state = idx
        return paths, logp

    # -- table form: rule i fully determines its successor state ------------
    def rule_tables(self):
        """Per-rule expansion tables (next state, terminal, next-step probs).

        Because the next non-terminal is a function of the selected rule alone,
        hard unrolls after the first step reduce to table lookups.
        """
        with ad.no_grad():
            eye = Tensor(np.eye(self.config.num_rules))
            n_all, t_all = self.expand(eye)
            probs_all = self.rule_probs(n_all)
        return n_all.value, t_all.value, probs_all.value

    def sample_rule_paths(self, n0, length, num_samples, seed=0):
        """Fast hard-sampled rule-index paths (num_samples*B, L) from n0 rows.

        n0: (B, d) seed states; each is unrolled `num_samples` times. A step
        draws one uniform u per path and takes the first rule whose cumulative
        probability (last entry set to 1) is not below u. After step 0 the
        cumulative rows are those of probs_all, searched once per current rule.
        """
        rng = np.random.default_rng(seed)
        _, _, probs_all = self.rule_tables()
        with ad.no_grad():
            p0 = self.rule_probs(Tensor(np.asarray(n0, dtype=np.float64))).value
        # each seed row's cumsum once, then one copy per sample
        cum = np.cumsum(p0, axis=-1)
        cum[:, -1] = 1.0
        cum = np.repeat(cum, num_samples, axis=0)
        N = cum.shape[0]
        paths = np.empty((N, length), dtype=np.int64)
        u = rng.random((length, N))          # step-major: one (N,) draw per step
        idx = (cum < u[0, :, None]).sum(axis=-1)
        paths[:, 0] = idx
        cum_all = np.cumsum(probs_all, axis=-1)
        cum_all[:, -1] = 1.0
        for j in range(1, length):
            # group the paths by current rule; a cumsum of nonnegatives never
            # decreases, so searchsorted "left" counts the entries below u
            order = np.argsort(idx, kind="stable")
            rules, starts = np.unique(idx[order], return_index=True)
            uj = u[j, order]
            nxt = np.empty(N, dtype=np.int64)
            for r, a, b in zip(rules, starts, [*starts[1:], N]):
                nxt[a:b] = cum_all[r].searchsorted(uj[a:b], side="left")
            paths[order, j] = nxt
            idx = paths[:, j]
        return paths

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
