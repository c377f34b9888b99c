"""Differentiable regular grammar with a global learned rule bank.

The generator keeps a bank of `num_rules` production rules of the form
A -> aB. A rule head maps the current non-terminal vector to a probability
distribution over the bank; a straight-through Gumbel-softmax draw selects
one rule. The selected rule emits its one fixed token a, and its row of the
expander W_n is the next non-terminal B. Unrolling repeats this, so every
sequence is a path through the rule bank.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .errors import DimensionError, InputError, ParameterError, ParseError, ResourceError
from .nn import Conv1d, Dense, xavier_uniform

ENCODER_CHANNELS = 64                    # both encoder conv layers' width


@dataclass
class GrammarConfig:
    d_nonterminal: int = 64
    d_terminal: int = 8
    num_rules: int = 256
    topk_mask: int | None = None

    def __post_init__(self):
        if self.d_nonterminal <= 0 or self.d_terminal <= 0 or self.num_rules <= 0:
            raise ParameterError("dimensions must be positive")
        if self.topk_mask is not None and not (1 <= self.topk_mask <= self.num_rules):
            raise ParameterError("topk_mask must be in [1, num_rules]")


def activity_config(num_classes, topk_mask=4):
    """Activity preset: GrammarConfig's 64-d non-terminals and 256 shared
    rules, with 4-way branching."""
    return GrammarConfig(d_terminal=num_classes, topk_mask=topk_mask)


class RuleTables(NamedTuple):
    """The generator as a finite chain over its R rules, with U seed states
    appended. State r < R is the expansion of a one-hot selection of rule r,
    state R + u the seed state n0[u]; a path starts at a seed state and then
    moves to the rule it draws. k is the number of rules the top-k mask keeps
    (R without a mask)."""
    n_all: np.ndarray             # (R, d) next state: row r of W_n
    emit: np.ndarray              # (R,) the token rule r emits
    probs_all: np.ndarray         # (R + U, R) next-step rule law at each state
    kept: np.ndarray              # (R + U, k) the columns the mask keeps, ascending
    logits: np.ndarray            # (R + U, R) the unmasked logits (n_all; n0) @ W_r + b_r


@dataclass
class SequenceSample:
    nonterminals: list            # L+1 vectors, starting at the seed state
    terminals: list               # L vectors
    rule_indices: list            # L ints
    log_prob: float
    length: int


def _softmax_at(v, kept, shape, mx):
    """The `shape` array that holds exp(v - mx) at the flat indices `kept`
    and exact zeros elsewhere, each kept entry divided by its row's sum over
    the last axis. The sum runs over the full row, so it adds the same terms
    in the same order as a full-width softmax with exp(-inf) = 0 outside
    `kept`; the division runs at the kept entries only, whose quotients are
    the full-width division's (0 / sum is 0 for a finite, nonzero sum)."""
    e = np.zeros(shape)
    e.put(kept, np.exp(v - mx))
    e.put(kept, e.take(kept) / e.sum(axis=-1).take(kept // shape[-1]))
    return e


def _softmax_kept(s, kept):
    """Softmax over the last axis of s with the entries outside the flat
    indices `kept` taken as -inf; each row's largest entry must be kept (a
    top-k mask keeps it). exp and the division run on the kept entries only
    (see _softmax_at)."""
    return _softmax_at(s.take(kept), kept, s.shape,
                       s.max(axis=-1).take(kept // s.shape[-1]))


def _softmax_rows(s):
    """Softmax over the last axis of s, in place; bit for bit _softmax_kept's."""
    np.exp(s - s.max(axis=-1, keepdims=True), out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _top_mask(x, m):
    """Boolean mask of the m < n largest entries of each row of the (rows, n)
    array x, ties to the lower column: the first m of np.argsort(-x, axis=1,
    kind="stable"). A row keeps its entries above its (m+1)-th largest value;
    a row where that value ties the m-th, or with a NaN, ranks by that sort."""
    s = np.sort(x, axis=1)
    keep = x > s[:, -m - 1, None]
    tie = ~(s[:, -m] > s[:, -m - 1]) | np.isnan(s[:, -1])
    if tie.any():
        order = np.argsort(-x[tie], axis=1, kind="stable")
        rank = np.zeros(order.shape, dtype=bool)
        np.put_along_axis(rank, order[:, :m], True, axis=1)
        keep[tie] = rank
    return keep


def _top_stable(x, m):
    """np.argsort(-x, axis=1, kind="stable")[:, :m]: the entries of the
    (rows, n) array x that _top_mask keeps, stably sorted by -x."""
    n = x.shape[1]
    if m >= n:
        return np.argsort(-x, axis=1, kind="stable")
    at = np.flatnonzero(_top_mask(x, m)).reshape(-1, m)     # flat indices
    rows = np.arange(len(x))[:, None]
    return at.take((-x.take(at)).argsort(axis=1, kind="stable") + m * rows) - n * rows


def _sum(a, b):
    """a + b, where None stands for a gradient that never arrived."""
    if a is None:
        return b
    return a if b is None else a + b


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
    logits = ad._as_tensor(logits)
    lv = logits.value
    inv = 1.0 / tau
    lb, nb = np.broadcast_arrays(lv, noise)
    kept = (lb != -np.inf).ravel().nonzero()[0]
    g = -np.log(-np.log(nb.take(kept)))
    s = np.full(lb.shape, -np.inf)
    s.put(kept, (lb.take(kept) + g) * inv)
    y = _softmax_kept(s, kept)
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
        ch = ENCODER_CHANNELS
        self.conv1 = Conv1d(rng, cfg.d_terminal, ch, kernel=3, name="enc.conv1")
        self.conv2 = Conv1d(rng, ch, ch, kernel=3, name="enc.conv2")
        self.head = Dense(rng, ch, cfg.d_nonterminal, name="enc.head")

    def __call__(self, x):
        h = ad.relu(self.conv2(ad.relu(self.conv1(x))))
        return self.head(ad.mean(h, axis=1))

    def parameters(self):
        return self.conv1.parameters() + self.conv2.parameters() + self.head.parameters()


class GrammarModel:
    """Encoder s, rule head f_R, expander f_N, each rule's token, and unrolling."""

    def __init__(self, config, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        cfg = config
        self.encoder = _ConvEncoder(rng, cfg)
        d, R = cfg.d_nonterminal, cfg.num_rules
        # rule head f_R: logits n @ W_r + b_r over the bank
        self.w_r = Parameter(xavier_uniform(rng, (d, R)), name="f_r.0.w")
        self.b_r = Parameter(np.zeros(R), name="f_r.0.b")
        # expander f_N: a one-hot selection of rule r reads row r of W_n. It
        # is bias-free: a shared bias is a common-mode channel that lets
        # adversarial gradients drag every rule's expansion to the same
        # output, collapsing the rule bank
        self.w_n = Parameter(xavier_uniform(rng, (R, d)), name="f_n.0.w")
        # f_T is fixed: rule r always emits token emit[r], and each class has
        # floor(R / C) or ceil(R / C) rules
        self.emit = rng.permutation(R) % cfg.d_terminal

    # -- parameter plumbing -------------------------------------------------
    def parameters(self):
        return self.encoder.parameters() + [self.w_r, self.b_r, self.w_n]

    def named_parameters(self):
        return {p.name: p for p in self.parameters()}

    def state(self):
        """The arrays a checkpoint holds: each parameter by name, and emit."""
        return {"emit": self.emit, **{n: p.value for n, p in self.named_parameters().items()}}

    def load_state(self, state):
        """Assign state()'s arrays; ParseError on other names or a bad emit."""
        params = self.named_parameters()
        names = set(params) | {"emit"}
        odd = sorted(names ^ set(state))            # in one of the two only
        if odd:
            what = "missing" if odd[0] in names else "holds unknown"
            raise ParseError(f"checkpoint {what} array {odd[0]!r}")
        emit = np.asarray(state["emit"])
        if emit.shape != self.emit.shape or not np.isin(emit, range(self.config.d_terminal)).all():
            raise ParseError("checkpoint emit is not one token per rule")
        for name, p in params.items():
            p.assign(state[name])
        self.emit = emit.astype(np.int64)

    # -- forward pieces -----------------------------------------------------
    def encode_start(self, x):
        """Map an observed prefix (B, L, d_in) to starting non-terminals (B, d_n)."""
        x = ad._as_tensor(x)
        if x.value.ndim == 2:
            x = ad.reshape(x, (1,) + x.value.shape)
        if x.value.ndim != 3 or x.value.shape[1] == 0:
            raise InputError("encode_start needs a non-empty (B, L, d) input")
        if x.value.shape[2] != self.config.d_terminal:
            raise DimensionError(
                f"encoder input width {x.value.shape[2]} != {self.config.d_terminal}")
        return self.encoder(x)

    def _topk_keep(self, v):
        """_top_mask of the rule logits v at k = topk_mask; None when no mask
        applies."""
        m = self.config.topk_mask
        if m is None or m >= self.config.num_rules:
            return None
        return _top_mask(v, m)

    def _logits(self, n):
        """The unmasked rule logits n @ W_r + b_r at states n (B, d)."""
        return n @ self.w_r.value + self.b_r.value

    def _head_backward(self, n, gl):
        """Backward of the logits n @ W_r + b_r for their gradient gl: adds
        into b_r and W_r, and returns the gradient into the states n."""
        ad._acc(self.b_r, gl.sum(axis=0))
        ad._acc(self.w_r, n.T @ gl)
        return gl @ self.w_r.value.T

    # -- unrolling ----------------------------------------------------------
    def unroll_batch(self, n0, length, rng, tau=1.0, return_entropy=False, tables=None):
        """Differentiable batched unroll, each step drawing one hard rule from
        the generator rng.

        Returns (terminals (B,L,C) one-hot Tensor, nonterminals N_1..N_L
        (B,L,d) Tensor, rule_indices (B,L) int array, log_prob (B,) array). With
        return_entropy=True a fifth element is appended: the mean per-step
        rule-distribution entropy as a differentiable scalar. tables is this
        model's rule_tables(n0) at its current weights, row b of n0 its seed
        state R + b, built here when None; other seed rows are a
        DimensionError.

        The rules are draw_rules' from the seed rows; the outputs are the rows
        of E, the (R, C) one-hot table of the rules' tokens, and of W_n at
        them. The L steps are one autodiff node over n0, W_r, b_r and W_n,
        whose backward is backpropagation through time with the primitive
        ops' backward expressions in their order, bit for bit. The selection
        is one-hot where the Gumbel-softmax of the masked logits peaks, with
        that softmax's straight-through gradient; under a top-1 mask, whose
        one-entry softmax has none, the gradient is that of the Gumbel-softmax
        of the unmasked logits under the same noise. A terminal's gradient g
        reaches the selection as g @ E.T, g[:, emit].
        """
        if length < 1:
            raise ParameterError("unroll length must be >= 1")
        n0 = ad._as_tensor(n0)
        if tau <= 0:
            raise ParameterError("gumbel temperature must be > 0")
        B, R = n0.value.shape[0], self.config.num_rules
        if tables is None:
            tables = self.rule_tables(n0.value)
        if len(tables.kept) != R + B:
            raise DimensionError("the rule tables need one seed row per state of n0")
        inv = 1.0 / tau
        Wn, emit = self.w_n.value, tables.emit
        rows = np.arange(B)
        # the soft samples the backward reads are kept only when it can run
        record = ad.grad_enabled()
        rules, logp, ys = self.draw_rules(tables, length, rng, tau, record,
                                          record and self.config.topk_mask == 1)
        values = [np.eye(self.config.d_terminal)[emit[rules]], Wn[rules]]
        if return_entropy:
            # each step's full-width rule law: the row of its state, the seed
            # row R + b at step 0 and the rule drawn before it later
            ps = [tables.probs_all[R + rows]] + [tables.probs_all[rules[:, j]]
                                                 for j in range(length - 1)]
            entropies = [(p * np.log(np.maximum(p, 1e-12))).sum(axis=-1).mean() for p in ps]
            values.append(np.asarray(np.mean(entropies) * -1.0))

        def bwd(grads):
            g_t, g_n = grads[:2]
            g_e = grads[2] if return_entropy else None
            if g_e is not None:
                # the entropy's -1 scale, mean over steps, mean over rows
                c = (1.0 / B) * ((1.0 / length) * (g_e * -1.0))
            gn = None             # into N_j from step j+1's rule head
            for j in range(length - 1, -1, -1):
                y = ys[j]
                sel = np.zeros((B, R))
                sel[rows, rules[:, j]] = 1.0
                gn = _sum(None if g_n is None else g_n[:, j, :], gn)
                gt = None if g_t is None else g_t[:, j, :]
                gsel = gl = None
                if gn is not None:
                    ad._acc(self.w_n, sel.T @ gn)
                    gsel = gn @ Wn.T
                if gt is not None:
                    gsel = _sum(gsel, gt[:, emit])
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
                # a masked y is 0 at a dropped rule, so gl is +-0 there, as the
                # mask's backward gl * keep leaves it. N_j is n0 or W_n's row
                gn = self._head_backward(Wn[rules[:, j - 1]] if j else n0.value, gl)
            if gn is not None:
                ad._acc(n0, gn)

        terminals, nonterminals, *ent = ad._multi_node(
            values, (n0, self.w_r, self.b_r, self.w_n), bwd)
        return (terminals, nonterminals, rules, logp, *ent)

    def draw_rules(self, tables, length, rng, tau, record=False, full=False):
        """The unroll's draw loop over the B seed rows of the RuleTables
        `tables`: rule indices (B, length) and log_prob (B,), and, when record
        is true, each step's Gumbel-softmax y (B, R) of the masked logits, or
        of the unmasked ones when full is true.

        A path starts at its seed state R + b and reads its state's row of the
        table at every step, the state then moving to the drawn rule. A step
        draws a (B, R) array of uniforms and takes the first kept rule where
        the Gumbel-softmax of the masked logits peaks; it forms the noise at
        the kept entries only unless full is true. Every op works row by row,
        and the table's gemm rounds each row as any batch of two or more
        states does, so the steps are the per-op graph's bit for bit; a lone
        seed row, whose per-op head numpy would multiply by gemv, reads the
        table's rounding instead, as sample_rule_paths does.
        """
        inv = 1.0 / tau
        R = self.config.num_rules
        B = len(tables.logits) - R
        rows = np.arange(B)
        state = R + rows
        rules = np.empty((B, length), dtype=np.intp)
        logp = np.zeros(B)
        ys = []
        for j in range(length):
            at = tables.kept[state] + rows[:, None] * R
            s = tables.logits[state]
            # the perturbed logits z = (s + g) / tau, g = -log(-log(u))
            u = np.clip(rng.random((B, R)), 1e-12, 1.0 - 1e-12)
            if not full:
                u, s = u.take(at), s.take(at)
            z = (s - np.log(-np.log(u))) * inv
            zk = z.take(at) if full else z
            y = _softmax_at(zk, at, (B, R), zk.max(axis=-1, keepdims=True))
            # the drawn rule is the first kept entry where y peaks
            idx = rules[:, j] = np.argmax(y, axis=-1)
            logp += np.log(np.maximum(tables.probs_all[state, idx], 1e-300))
            if record:
                ys.append(_softmax_rows(z) if full else y)
            state = idx
        return rules, logp, ys

    def unroll(self, n0, length, rng_seed=0):
        """Single-sequence unroll (inference only)."""
        n0 = np.asarray(n0, dtype=np.float64).reshape(1, -1)
        rng = np.random.default_rng(rng_seed)
        with ad.no_grad():
            t, n, idx, logp = self.unroll_batch(n0, length, rng)
        return SequenceSample(
            nonterminals=[n0[0]] + [n.value[0, j] for j in range(length)],
            terminals=[t.value[0, j] for j in range(length)],
            rule_indices=list(idx[0]),
            log_prob=float(logp[0]),
            length=length,
        )

    # -- table form: rule i fully determines its successor state ------------
    def rule_tables(self, n0=None):
        """The RuleTables of the chain, with one seed row per state of the
        array n0 (U, d), none when n0 is None. The next non-terminal is a
        function of the selected rule alone, so hard unrolls are table
        lookups: row r is the expansion of the one-hot selection of rule r,
        row r of W_n, and row R + u that of the seed state n0[u]. The heads
        are one gemm over the R + U states, which numpy rounds row by row as
        it rounds that row in any batch of two or more states. The arrays are
        the caller's own."""
        n = self.w_n.value if n0 is None else np.concatenate([self.w_n.value, n0])
        s = self._logits(n)
        keep = self._topk_keep(s)
        at = np.arange(s.size) if keep is None else keep.ravel().nonzero()[0]
        at = at.reshape(len(s), -1)
        return RuleTables(self.w_n.value.copy(), self.emit.copy(), _softmax_kept(s, at),
                          at % s.shape[1], s)

    def sample_rule_paths(self, n0, length, num_samples, seed=0, start=None):
        """Hard-sampled rule-index paths (N, L) and their log_prob (N,), for
        N = num_samples * B futures from the (U, d) seed states n0.

        start (B,) names the seed row of each prefix, every row of n0 in
        order by default; path i starts from n0[start[i // num_samples]]. A
        step draws one uniform u per path and takes the first kept rule whose
        cumulative probability (the last kept entry set to 1) is not below u,
        as searchsorted(side="left") would. The draws are step-major, one (N,)
        row per step, so the paths of a shorter length are the first columns
        of those of a longer one. log_prob adds log(max(p, 1e-300)) of each
        chosen rule, step by step.

        The states are the rows of rule_tables(n0): the R rules, then the U
        seeds (rows R + u). A state draws only among its k kept columns
        (RuleTables.kept, all R without a mask), so a draw never lands on a rule
        the mask dropped: u = 0 takes the first kept rule, and u above the
        kept total takes the last. The cumulative, log and rule arrays are
        read flat, state s owning slots s * k to s * k + k - 1, and a step
        binary-searches the slots of all paths at once.
        """
        if length < 1 or num_samples < 1:
            raise ParameterError("path length and num_samples must be >= 1")
        rng = np.random.default_rng(seed)
        tables = self.rule_tables(np.asarray(n0, dtype=np.float64))
        kept, R, k = tables.kept, self.config.num_rules, tables.kept.shape[1]
        p = np.take_along_axis(tables.probs_all, kept, axis=1)
        del tables                               # the walk reads kept and p only
        vals = np.cumsum(p, axis=1)
        vals[:, -1] = 1.0                        # above every u
        logs = np.log(np.maximum(p, 1e-300))
        if start is None:
            start = np.arange(len(p) - R)
        state = R + np.repeat(start, num_samples)
        paths = np.empty((len(state), length), dtype=np.int64)
        logp = np.zeros(len(state))
        u = rng.random((length, len(state)))     # step-major: one (N,) draw per step
        # a row's cumulative entries never decrease before its last one, which
        # is 1 > u, so those below u come first; a branch-free binary search
        # counts them, each probe clamped to the row's last slot
        steps = [1 << i for i in range((k - 1).bit_length() - 1, -1, -1)]
        for j in range(length):
            at = state * k
            last = at + (k - 1)
            for s in steps:
                probe = np.minimum(at + (s - 1), last)
                at += (vals.take(probe) < u[j]) * s
            logp += logs.take(at)
            state = paths[:, j] = kept.take(at)
        return paths, logp

    def sample_prefix_paths(self, prefixes, length, num_samples, seed=0):
        """sample_rule_paths seeded by encoding the one-hot prefixes
        (B, L, C): paths (N, length) and log_prob (N,), path i from prefix
        i // num_samples.

        Only the distinct prefixes, found by byte equality, are encoded and
        become seed rows of the sampler's table. The result is the same bit
        for bit as encoding every prefix: a batched encode rounds each row
        alike whatever the batch holds, and the uniforms are drawn per path.
        numpy multiplies a one-row batch by gemv, which rounds otherwise, so
        a lone distinct prefix among several is encoded twice.
        """
        x = np.asarray(prefixes, dtype=np.float64)
        if x.ndim != 3:
            raise InputError("prefixes must be a (B, L, C) array")
        flat = np.ascontiguousarray(x).reshape(len(x), x.shape[1] * x.shape[2])
        rows = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
        _, first, start = np.unique(rows, return_index=True, return_inverse=True)
        if len(first) == 1 < len(x):
            first = np.zeros(2, dtype=np.intp)
        with ad.no_grad():
            n0 = self.encode_start(x[first]).value
        return self.sample_rule_paths(n0, length, num_samples, seed=seed, start=start)

    def enumerate_all(self, n0, length, k_cap, budget=10**6):
        """Exhaustively expand the k_cap most probable rules per step.

        Returns [(SequenceSample, probability)] sorted by descending path
        probability. Probabilities are raw products of the per-step rule
        probabilities (no renormalization over the pruned tree).
        """
        if length < 1:
            raise ParameterError("length must be >= 1")
        if k_cap < 1 or k_cap > self.config.num_rules:
            raise ParameterError("k_cap must be in [1, num_rules]")
        if k_cap ** length > budget:
            raise ResourceError(
                f"enumeration needs k^L = {k_cap}^{length} = {k_cap ** length} "
                f"sequences, over budget {budget}")
        n0 = np.asarray(n0, dtype=np.float64).reshape(-1)
        n_all, emit, probs_all = self.rule_tables(n0[None])[:3]

        results = []
        # DFS over (depth, prefix indices, prefix prob, step distribution),
        # from the seed row
        stack = [((), 1.0, probs_all[-1])]
        while stack:
            prefix, prob, p = stack.pop()
            for i in _top_stable(p[None], k_cap)[0]:
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
                terminals=list(np.eye(self.config.d_terminal)[emit[idx]]),
                rule_indices=list(path),
                log_prob=float(np.log(max(q, 1e-300))),
                length=length,
            )
            out.append((sample, float(q)))
        return out
