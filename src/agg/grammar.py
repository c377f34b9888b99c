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
    """The generator after its first step: a finite chain over its R rules.
    Row r of each table is the expansion of a one-hot selection of rule r,
    and k is the number of rules the top-k mask keeps (R without a mask)."""
    n_all: np.ndarray             # (R, d) next state: row r of W_n
    emit: np.ndarray              # (R,) the token rule r emits
    probs_all: np.ndarray         # (R, R) next-step rule law at n_all
    kept: np.ndarray              # (R, k) the columns the mask keeps, ascending
    logits: np.ndarray            # (R, R) the unmasked logits n_all @ W_r + b_r


class StartHead(NamedTuple):
    """Step 0's rule head at B seed states, in the kept form both the unroll
    and the parse read: k entries a row, in ascending column order."""
    at: np.ndarray                # (B, k) flat indices of the kept entries of a (B, R) array
    logits: np.ndarray            # (B, k) the logits n0 @ W_r + b_r there
    probs: np.ndarray             # (B, k) the rule law there; 0 at every other rule


def _row_blocks(heads):
    """The row slice of each StartHead of consecutive blocks of rows."""
    ends = np.cumsum([len(h.at) for h in heads])
    return [slice(end - len(h.at), end) for h, end in zip(heads, ends)]


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

    def _head(self, n):
        """(s, kept) of the rule head at states n (B, d): the logits
        s = n @ W_r + b_r, unmasked, and the flat indices of the entries the
        top-k mask keeps; the masked logits are s with the others -inf."""
        s = self._logits(n)
        keep = self._topk_keep(s)
        return s, np.arange(s.size) if keep is None else keep.ravel().nonzero()[0]

    def _head_backward(self, n, gl):
        """Backward of the logits n @ W_r + b_r for their gradient gl: adds
        into b_r and W_r, and returns the gradient into the states n."""
        ad._acc(self.b_r, gl.sum(axis=0))
        ad._acc(self.w_r, n.T @ gl)
        return gl @ self.w_r.value.T

    def rule_probs(self, n):
        """(B, R) rule distributions at the states n (B, d), an array: the
        softmax of the masked logits. Forward-only."""
        return _softmax_kept(*self._head(n))

    def start_head(self, n0):
        """StartHead of the rule head at the seed states n0 (B, d), an array.
        Its law is rule_probs(n0) at the kept entries, bit for bit."""
        s, at = self._head(n0)
        at = at.reshape(len(s), -1)
        return StartHead(at, s.take(at), _softmax_kept(s, at).take(at))

    # -- unrolling ----------------------------------------------------------
    def unroll_batch(self, n0, length, rng, tau=1.0, return_entropy=False, tables=None,
                     head=None):
        """Differentiable batched unroll, each step drawing one hard rule from
        the generator rng.

        Returns (terminals (B,L,C) one-hot Tensor, nonterminals N_1..N_L
        (B,L,d) Tensor, rule_indices (B,L) int array, log_prob (B,) array). With
        return_entropy=True a fifth element is appended: the mean per-step
        rule-distribution entropy as a differentiable scalar. tables is this
        model's rule_tables() and head its start_head(n0) at its current
        weights, each built here when None.

        The rules are draw_rules' over one block of all B rows; the outputs
        are the rows of E, the (R, C) one-hot table of the rules' tokens, and
        of W_n at them. The L steps are one autodiff node over n0, W_r, b_r
        and W_n, whose backward is backpropagation through time with the
        primitive ops' backward expressions in their order, bit for bit. The
        selection is one-hot where the Gumbel-softmax of the masked logits
        peaks, with that softmax's straight-through gradient; under a top-1
        mask, whose one-entry softmax has none, the gradient is that of the
        Gumbel-softmax of the unmasked logits under the same noise. A
        terminal's gradient g reaches the selection as g @ E.T, g[:, emit].
        """
        if length < 1:
            raise ParameterError("unroll length must be >= 1")
        n0 = ad._as_tensor(n0)
        if tau <= 0:
            raise ParameterError("gumbel temperature must be > 0")
        if tables is None:
            tables = self.rule_tables()
        if head is None:
            head = self.start_head(n0.value)
        inv = 1.0 / tau
        Wn, emit = self.w_n.value, tables.emit
        B, R = n0.value.shape[0], self.config.num_rules
        rows = np.arange(B)
        # the soft samples the backward reads are kept only when it can run
        record = ad.grad_enabled()
        logits0 = self._logits(n0.value) if record and self.config.topk_mask == 1 else None
        rules, logp, ys = self.draw_rules([head], length, rng, tables, tau, record, logits0)
        values = [np.eye(self.config.d_terminal)[emit[rules]], Wn[rules]]
        if return_entropy:
            # each step's full-width rule law: step 0's scattered from the
            # kept entries, as the softmax leaves it, then the table's rows
            p0 = np.zeros((B, R))
            p0.put(head.at, head.probs)
            ps = [p0] + [tables.probs_all[rules[:, j]] for j in range(length - 1)]
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

    def draw_rules(self, heads, length, rng, tables, tau, record=False, logits0=None):
        """The unroll's draw loop: rule indices (N, length) and log_prob (N,)
        of the N rows of `heads`, StartHeads of consecutive blocks of rows,
        and, when record is true, each step's Gumbel-softmax y (N, R) of the
        masked logits, or of the unmasked ones given logits0, the unmasked
        step-0 logits of one block.

        Step 0 reads a block's head, a later step row idx of the chain's
        table, idx the rule the step before chose. A step draws a (b, R)
        block of uniforms and takes the first kept rule where the
        Gumbel-softmax of the masked logits peaks; it forms the noise at the
        kept entries only unless logits0 is given. The steps run step-major, each
        block drawing its uniforms in turn, which is one draw of all N rows
        bit for bit. Every op works row by row, and the table's gemm rounds
        row r as a batch of two or more states does, so the steps are the
        per-op graph's bit for bit; a batch of one state (numpy's gemv) reads
        the table's rounding instead, as sample_rule_paths does.
        """
        inv = 1.0 / tau
        R = self.config.num_rules
        blocks = _row_blocks(heads)
        rules = np.empty((blocks[-1].stop, length), dtype=np.intp)
        logp = np.zeros(len(rules))
        ys = []
        for j in range(length):
            for head, blk in zip(heads, blocks):
                B = len(head.at)
                if j:
                    prev = rules[blk, j - 1]
                    at = tables.kept[prev] + np.arange(B)[:, None] * R
                    s = tables.logits[prev]
                else:
                    at, s = head.at, logits0
                # the perturbed logits z = (s + g) / tau, g = -log(-log(u))
                u = np.clip(rng.random((B, R)), 1e-12, 1.0 - 1e-12)
                if logits0 is None:
                    u, s = u.take(at), s.take(at) if j else head.logits
                z = (s - np.log(-np.log(u))) * inv
                zk = z if logits0 is None else z.take(at)
                y = _softmax_at(zk, at, (B, R), zk.max(axis=-1, keepdims=True))
                idx = np.argmax(y, axis=-1)
                rules[blk, j] = idx
                # the drawn rule is the first kept entry where y peaks
                p = (tables.probs_all[prev, idx] if j else
                     head.probs[np.arange(B), y.take(at).argmax(axis=-1)])
                logp[blk] += np.log(np.maximum(p, 1e-300))
                if record:
                    ys.append(y if logits0 is None else _softmax_rows(z))
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
    def rule_tables(self):
        """The RuleTables of the chain. The next non-terminal is a function
        of the selected rule alone, so hard unrolls after the first step are
        table lookups: row r is the expansion of the one-hot selection of
        rule r, row r of W_n, and its head is the (R, R) gemm's row r, which
        numpy rounds as it rounds that row in a batch of two or more states.
        The arrays are the caller's own."""
        s, at = self._head(self.w_n.value)
        at = at.reshape(len(s), -1)
        return RuleTables(self.w_n.value.copy(), self.emit.copy(), _softmax_kept(s, at),
                          at % len(s), s)

    def sample_rule_paths(self, n0, length, num_samples, seed=0, start=None):
        """Hard-sampled rule-index paths (N, L) and their log_prob (N,), for
        N = num_samples * B futures from the (U, d) seed states n0.

        start (B,) names the seed row of each prefix, every row of n0 in
        order by default; path i starts from n0[start[i // num_samples]]. A
        step draws one uniform u per path and takes the first rule whose
        cumulative probability (last entry set to 1) is not below u, as
        searchsorted(side="left") would. The draws are step-major, one (N,)
        row per step, so the paths of a shorter length are the first columns
        of those of a longer one. log_prob adds log(max(p, 1e-300)) of each
        chosen rule, step by step.

        The states are the R rules (rows of probs_all) and the U seeds (rows
        R + u). Of each state's cumulative row only column 0, the columns of
        nonzero probability and the last column are kept, in K slots padded
        with +inf: the first entry not below u is always one of them, because
        a zero adds nothing to the running sum and column 0 covers u = 0. The
        tables are flat, state s owning slots s * K to s * K + K - 1, and a
        step binary-searches the slots of all paths at once.
        """
        if length < 1 or num_samples < 1:
            raise ParameterError("path length and num_samples must be >= 1")
        rng = np.random.default_rng(seed)
        probs_all = self.rule_tables().probs_all
        p0 = self.rule_probs(np.asarray(n0, dtype=np.float64))
        probs = np.concatenate([probs_all, p0])
        keep = probs > 0
        keep[:, [0, -1]] = True
        kept = np.flatnonzero(keep)               # row by row, columns ascending
        rows = kept // probs.shape[1]
        cols = kept - rows * probs.shape[1]
        width = np.bincount(rows, minlength=len(probs))
        K = int(width.max())
        # a kept entry's slot: its row's first slot plus its place in the row
        slot = rows * K + np.arange(len(kept)) - np.repeat(np.cumsum(width) - width, width)
        p = np.zeros(len(probs) * K)
        p[slot] = probs.take(kept)
        # x + 0.0 is x, so the running sum of a row's kept entries is its
        # full cumsum at those columns, bit for bit
        vals = np.cumsum(p.reshape(-1, K), axis=-1).ravel()
        vals[np.arange(len(probs)) * K + width - 1] = 1.0      # the last column
        vals[(np.arange(K) >= width[:, None]).ravel()] = np.inf
        logs = np.log(np.maximum(p, 1e-300))
        rule = np.zeros(len(probs) * K, dtype=np.int64)
        rule[slot] = cols
        if start is None:
            start = np.arange(len(p0))
        state = len(probs_all) + np.repeat(start, num_samples)
        paths = np.empty((len(state), length), dtype=np.int64)
        logp = np.zeros(len(state))
        u = rng.random((length, len(state)))     # step-major: one (N,) draw per step
        # the kept entries of a row never decrease before its last one, which
        # is 1 > u, so those below u come first; a branch-free binary search
        # counts them, each probe clamped to the row's last slot (1 or +inf)
        steps = [1 << i for i in range((K - 1).bit_length() - 1, -1, -1)]
        for j in range(length):
            at = state * K
            last = at + (K - 1)
            for s in steps:
                probe = np.minimum(at + (s - 1), last)
                at += (vals.take(probe) < u[j]) * s
            logp += logs.take(at)
            state = paths[:, j] = rule.take(at)
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
        n_all, emit, probs_all = self.rule_tables()[:3]
        p0 = self.rule_probs(n0.reshape(1, -1))[0]

        results = []
        # DFS over (depth, prefix indices, prefix prob, step distribution)
        stack = [((), 1.0, p0)]
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
