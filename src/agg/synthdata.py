"""Ground-truth stochastic regular grammars and dataset plumbing.

These symbolic grammars are the data source for training and the exact
oracle for evaluation: every rule has the form A -> aB, there is no
termination rule, and fixed-length sampling truncates the infinite language.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParameterError, ParseError, ResourceError

PROB_TOL = 1e-9


@dataclass
class GroundTruthGrammar:
    states: list
    tokens: list
    start: str
    rules: list  # (state, token, next_state, probability)

    def __post_init__(self):
        sset = set(self.states)
        if self.start not in sset:
            raise ParameterError(f"start state {self.start!r} not in states")
        by_state = {s: 0.0 for s in self.states}
        for st, tok, nxt, p in self.rules:
            if st not in sset or nxt not in sset:
                raise ParameterError(f"rule {st}->{tok} {nxt} references unknown state")
            if tok not in self.tokens:
                raise ParameterError(f"rule emits unknown token {tok!r}")
            if not p >= 0:                  # also rejects NaN
                raise ParameterError("rule probabilities must be nonnegative")
            by_state[st] += p
        reachable = {self.start}
        frontier = [self.start]
        while frontier:
            s = frontier.pop()
            for st, _, nxt, p in self.rules:
                if st == s and p > 0 and nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        for s in self.states:
            if s not in reachable:
                raise ParameterError(f"state {s!r} unreachable from start")
            if abs(by_state[s] - 1.0) > PROB_TOL:
                raise ParameterError(
                    f"rules out of state {s!r} sum to {by_state[s]}, expected 1")
        self._tok_index = {t: i for i, t in enumerate(self.tokens)}
        self._state_index = {s: i for i, s in enumerate(self.states)}
        # per-state (token_index, next_state, prob) entries of the positive rules
        self._out = {s: [] for s in self.states}
        for st, tok, nxt, p in self.rules:
            if p > 0:
                self._out[st].append((self._tok_index[tok], nxt, p))
        # the same entries as padded (S, K) sampling tables; each cdf row is
        # computed as Generator.choice computes it, and padding never gets drawn
        K = max(len(e) for e in self._out.values())
        self._cdf = np.full((len(self.states), K), np.inf)
        self._tok = np.zeros((len(self.states), K), dtype=np.int64)
        self._next = np.zeros((len(self.states), K), dtype=np.int64)
        for s, entries in self._out.items():
            i, n = self._state_index[s], len(entries)
            probs = np.asarray([p for _, _, p in entries])
            cdf = np.cumsum(probs / probs.sum())
            cdf /= cdf[-1]
            self._cdf[i, :n] = cdf
            self._tok[i, :n] = [tok for tok, _, _ in entries]
            self._next[i, :n] = [self._state_index[nxt] for _, nxt, _ in entries]

    @property
    def num_tokens(self):
        return len(self.tokens)

    def transition_matrices(self):
        """T[s, a, s'] = P(emit token a and move to s' | state s)."""
        S, A = len(self.states), len(self.tokens)
        T = np.zeros((S, A, S))
        for st, tok, nxt, p in self.rules:
            T[self._state_index[st], self._tok_index[tok], self._state_index[nxt]] += p
        return T

    def to_json(self):
        return {"states": self.states, "tokens": self.tokens, "start": self.start,
                "rules": [[st, tok, nxt, p] for st, tok, nxt, p in self.rules]}

    @classmethod
    def from_json(cls, obj):
        try:
            rules = [(st, tok, nxt, float(p)) for st, tok, nxt, p in obj["rules"]]
            return cls(list(obj["states"]), list(obj["tokens"]), obj["start"], rules)
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed grammar spec: {e}") from e


def save_grammar(path, grammar):
    with open(path, "w") as f:
        json.dump(grammar.to_json(), f, indent=2)


def load_grammar(path):
    with open(path) as f:
        return GroundTruthGrammar.from_json(json.load(f))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def build_preset_grammar(name, seed=0, n_states=4, n_tokens=4,
                         branch_probs=(0.8, 0.1, 0.1)):
    """walk_stop_run | bimodal | recipe | random."""
    if name == "walk_stop_run":
        pw, ps, pr = branch_probs
        if abs(pw + ps + pr - 1.0) > PROB_TOL:
            raise ParameterError("branch probabilities must sum to 1")
        return GroundTruthGrammar(
            states=["W", "U", "V"], tokens=["walking", "stopping", "running"],
            start="W",
            rules=[("W", "walking", "W", pw), ("W", "stopping", "U", ps),
                   ("W", "running", "V", pr), ("U", "stopping", "U", 1.0),
                   ("V", "running", "V", 1.0)])
    if name == "bimodal":
        # shared two-step prefix, then two equiprobable absorbing suffixes
        return GroundTruthGrammar(
            states=["P0", "P1", "P2", "A", "B"], tokens=["s", "a", "b"], start="P0",
            rules=[("P0", "s", "P1", 1.0), ("P1", "s", "P2", 1.0),
                   ("P2", "a", "A", 0.5), ("P2", "b", "B", 0.5),
                   ("A", "a", "A", 1.0), ("B", "b", "B", 1.0)])
    if name == "recipe":
        # 6-step chain; each step may skip the next one
        states = [f"R{i}" for i in range(6)]
        tokens = [f"step{i}" for i in range(6)]
        rules = []
        for i in range(4):
            rules.append((f"R{i}", f"step{i}", f"R{i + 1}", 0.7))
            rules.append((f"R{i}", f"step{i}", f"R{i + 2}", 0.3))
        rules.append(("R4", "step4", "R5", 1.0))
        rules.append(("R5", "step5", "R5", 1.0))
        return GroundTruthGrammar(states, tokens, "R0", rules)
    if name == "random":
        rng = np.random.default_rng(seed)
        states = [f"S{i}" for i in range(n_states)]
        tokens = [f"t{i}" for i in range(n_tokens)]
        rules = []
        for i, st in enumerate(states):
            # chain rule keeps every state reachable; extras add branching
            targets = [(i + 1) % n_states]
            n_extra = int(rng.integers(0, min(3, n_tokens * n_states)))
            pairs = {(int(rng.integers(n_tokens)), int(rng.integers(n_states)))
                     for _ in range(n_extra)}
            chain_tok = int(rng.integers(n_tokens))
            entries = [(chain_tok, targets[0])] + [p for p in pairs
                                                  if p != (chain_tok, targets[0])]
            probs = rng.dirichlet(np.ones(len(entries)))
            for (tok, nxt), p in zip(entries, probs):
                rules.append((st, tokens[tok], states[nxt], float(p)))
        return GroundTruthGrammar(states, tokens, states[0], rules)
    raise ParameterError(f"unknown grammar preset {name!r}")


# ---------------------------------------------------------------------------
# sampling and exact oracles
# ---------------------------------------------------------------------------

def sample_sequences(grammar, num_sequences, length, rng):
    """(num_sequences, length) token indices from the start state.

    Each token takes one uniform from rng, row by row, and the first rule of
    its state whose cdf lies above it: what Generator.choice(p=...) does with
    the one double it draws. So this equals num_sequences calls of
    sample_sequence on the same rng.
    """
    if length < 1:
        raise ParameterError("length must be >= 1")
    u = rng.random((num_sequences, length))
    out = np.empty((num_sequences, length), dtype=np.int64)
    state = np.full(num_sequences, grammar._state_index[grammar.start])
    for j in range(length):
        i = (grammar._cdf[state] <= u[:, j, None]).sum(axis=-1)
        out[:, j] = grammar._tok[state, i]
        state = grammar._next[state, i]
    return out


def sample_sequence(grammar, length, rng):
    """Sample `length` token indices starting from the grammar's start state."""
    return sample_sequences(grammar, 1, length, rng)[0]


def sample_dataset(grammar, num_sequences, length, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    if num_sequences > 0:
        records = list(sample_sequences(grammar, num_sequences, length, rng))
    return SequenceDataset(records=records, alphabet_size=grammar.num_tokens,
                           length=length, kind="discrete")


def exact_future_distribution(grammar, state=None, horizon=1, budget=10**6):
    """Exact map over all length-`horizon` token strings from `state`.

    Returns {tuple(token indices): probability}; the probabilities sum to 1.
    """
    state = grammar.start if state is None else state
    A = grammar.num_tokens
    if A ** horizon > budget:
        raise ResourceError(
            f"{A}^{horizon} = {A ** horizon} strings exceeds budget {budget}")
    out = {}
    stack = [((), state, 1.0)]
    while stack:
        prefix, s, prob = stack.pop()
        if len(prefix) == horizon:
            out[prefix] = out.get(prefix, 0.0) + prob
            continue
        for tok, nxt, p in grammar._out[s]:
            stack.append((prefix + (tok,), nxt, prob * p))
    return out


def step_marginals(grammar, state=None, horizon=1):
    """(horizon, num_tokens) per-step token marginals by dynamic programming."""
    state = grammar.start if state is None else state
    S, A = len(grammar.states), grammar.num_tokens
    T = grammar.transition_matrices()
    dist = np.zeros(S)
    dist[grammar._state_index[state]] = 1.0
    out = np.zeros((horizon, A))
    for j in range(horizon):
        joint = np.einsum("s,sat->at", dist, T)
        out[j] = joint.sum(axis=1)
        dist = joint.sum(axis=0)
    return out


def exact_ngram_distribution(grammar, n, horizon, state=None):
    """Distribution over n-grams averaged across window starts in a length-
    `horizon` sequence, computed exactly from the state DP."""
    if n > horizon:
        raise ParameterError("n must be <= horizon")
    state = grammar.start if state is None else state
    S = len(grammar.states)
    T = grammar.transition_matrices()
    dist = np.zeros(S)
    dist[grammar._state_index[state]] = 1.0
    # per-state distribution over n-grams emitted from that state
    grams = {}
    for s in grammar.states:
        for gram, p in exact_future_distribution(grammar, s, n).items():
            grams.setdefault(s, {})[gram] = p
    agg = {}
    windows = horizon - n + 1
    for j in range(windows):
        for s in grammar.states:
            w = dist[grammar._state_index[s]]
            if w <= 0:
                continue
            for gram, p in grams[s].items():
                agg[gram] = agg.get(gram, 0.0) + w * p / windows
        dist = np.einsum("s,sat->t", dist, T)
    return agg


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass
class SequenceDataset:
    records: list               # list of int arrays (discrete) or float arrays
    length: int
    kind: str = "discrete"      # "discrete" | "continuous"
    alphabet_size: int | None = None
    feature_width: int | None = None

    def __post_init__(self):
        for r in self.records:
            if len(r) != self.length:
                raise ParameterError("dataset records must share a uniform length")
            if self.kind == "discrete" and self.alphabet_size is not None:
                if len(r) and int(np.max(r)) >= self.alphabet_size:
                    raise ParameterError("token index out of alphabet range")

    def __len__(self):
        return len(self.records)

    def one_hot(self):
        """(N, L, alphabet) one-hot array for discrete datasets."""
        if self.kind != "discrete":
            raise InputError("one_hot is only defined for discrete datasets")
        N = len(self.records)
        out = np.zeros((N, self.length, self.alphabet_size))
        if N:
            out[np.arange(N)[:, None], np.arange(self.length), np.asarray(self.records)] = 1.0
        return out


def save_dataset(path, dataset):
    with open(path, "w") as f:
        if dataset.kind == "discrete":
            # a list of ints prints as json.dumps writes it
            rows = np.asarray(dataset.records, dtype=np.int64).tolist()
            f.writelines('{"tokens": %s}\n' % row for row in rows)
        else:
            for r in dataset.records:
                f.write(json.dumps({"frames": np.asarray(r).tolist()}) + "\n")


def _numeric_row(obj, key, ndim, kinds, dtype, lineno):
    """obj[key] as an ndim-d array of `dtype`, or ParseError when it has
    another shape or an element is not a number of one of the numpy dtype
    `kinds` (e.g. "iu": integers only). JSON booleans are not numbers."""
    try:
        row = np.asarray(obj[key])
    except ValueError as e:                 # ragged nesting
        raise ParseError(f"line {lineno}: {key} is not a rectangular list") from e
    if row.ndim != ndim:
        raise ParseError(f"line {lineno}: {key} must be a {ndim}-d list")
    # numpy turns JSON true/false mixed with numbers into 1/0; reject them
    items = obj[key] if ndim == 1 else itertools.chain.from_iterable(obj[key])
    if row.size and (row.dtype.kind not in kinds or bool in set(map(type, items))):
        what = "integers" if kinds == "iu" else "numbers"
        raise ParseError(f"line {lineno}: {key} must hold only {what}")
    return row.astype(dtype, copy=False)


def load_dataset(path, alphabet_size=None):
    records = []
    kind = None
    length = None
    width = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"line {lineno}: invalid JSON ({e})") from e
            if not isinstance(obj, dict):
                raise ParseError(f"line {lineno}: record must be a JSON object")
            if "tokens" in obj:
                row_kind = "discrete"
                row = _numeric_row(obj, "tokens", 1, "iu", np.int64, lineno)
                if alphabet_size is not None and row.size and row.max() >= alphabet_size:
                    raise ParseError(
                        f"line {lineno}: token {int(row.max())} >= alphabet "
                        f"size {alphabet_size}")
                if np.any(row < 0):
                    raise ParseError(f"line {lineno}: negative token index")
            elif "frames" in obj:
                row_kind = "continuous"
                row = _numeric_row(obj, "frames", 2, "iuf", np.float64, lineno)
                if width is None:
                    width = row.shape[1]
                elif row.shape[1] != width:
                    raise ParseError(f"line {lineno}: inconsistent feature width")
            else:
                raise ParseError(f"line {lineno}: record needs 'tokens' or 'frames'")
            if kind is None:
                kind = row_kind
                length = len(row)
            elif kind != row_kind:
                raise ParseError(f"line {lineno}: mixed record kinds")
            elif len(row) != length:
                raise ParseError(f"line {lineno}: inconsistent sequence length")
            records.append(row)
    if kind is None:
        return SequenceDataset(records=[], length=0, kind="discrete",
                               alphabet_size=alphabet_size or 0)
    if kind == "discrete":
        inferred = alphabet_size
        if inferred is None:
            inferred = int(max(int(np.max(r)) for r in records if len(r)) + 1)
        return SequenceDataset(records=records, length=length, kind="discrete",
                               alphabet_size=inferred)
    return SequenceDataset(records=records, length=length, kind="continuous",
                           feature_width=width)


# ---------------------------------------------------------------------------
# continuous stand-in (quaternion embeddings, per-step deltas)
# ---------------------------------------------------------------------------

def qmul(a, b):
    """Hamilton product on trailing (..., 4) blocks."""
    w1, x1, y1, z1 = np.moveaxis(a, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(b, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def qconj(a):
    return a * np.asarray([1.0, -1.0, -1.0, -1.0])


def quaternion_embedding(num_tokens, num_blocks=1, seed=0):
    """Seeded unit quaternions per token: (num_tokens, 4*num_blocks)."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(num_tokens, num_blocks, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q.reshape(num_tokens, 4 * num_blocks)


def make_continuous_dataset(grammar, num_sequences, length, embedding,
                            noise_std=0.0, seed=0, quaternion_deltas=False):
    """Embed grammar samples into vectors plus seeded Gaussian noise.

    embedding: (num_tokens, d) array. With quaternion_deltas, each 4-block is
    normalized to unit norm and the emitted frames are per-step rotation
    deltas; cumulative composition from identity recovers the absolute frames.
    """
    if noise_std < 0:
        raise ParameterError("noise_std must be >= 0")
    embedding = np.asarray(embedding, dtype=np.float64)
    if not np.isfinite(embedding).all():
        raise ParameterError("embedding must be finite")
    if embedding.shape[0] != grammar.num_tokens:
        raise ParameterError("embedding rows must match the grammar alphabet")
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(num_sequences):
        toks = sample_sequence(grammar, length, rng)
        frames = embedding[toks].copy()
        if quaternion_deltas:
            q = frames.reshape(length, -1, 4)
            q = q / np.linalg.norm(q, axis=-1, keepdims=True)
            prev = np.zeros_like(q)
            prev[:, :, 0] = 1.0
            prev[1:] = q[:-1]
            delta = qmul(q, qconj(prev) / np.sum(prev * prev, axis=-1, keepdims=True))
            frames = delta.reshape(length, -1)
        if noise_std > 0:
            frames = frames + rng.normal(scale=noise_std, size=frames.shape)
        records.append(frames)
    return SequenceDataset(records=records, length=length, kind="continuous",
                           feature_width=embedding.shape[1])


def compose_deltas(deltas):
    """Invert the delta representation: cumulative quaternion composition."""
    deltas = np.asarray(deltas, dtype=np.float64)
    L, d = deltas.shape
    q = deltas.reshape(L, -1, 4)
    out = np.empty_like(q)
    prev = np.zeros_like(q[0])
    prev[:, 0] = 1.0
    for j in range(L):
        prev = qmul(q[j], prev)
        out[j] = prev
    return out.reshape(L, d)
