"""Ground-truth stochastic regular grammars and dataset plumbing.

These symbolic grammars are the data source for training and the exact
oracle for evaluation: every rule has the form A -> aB, there is no
termination rule, and fixed-length sampling truncates the infinite language.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, ResourceError

PROB_TOL = 1e-9
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


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
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except ValueError as e:                 # bad JSON or bad UTF-8
        raise ParseError(f"{path}: unreadable grammar file ({e})") from e
    return GroundTruthGrammar.from_json(obj)


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
        if n_states < 1 or n_tokens < 1:
            raise ParameterError("random preset needs n_states >= 1 and n_tokens >= 1")
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
    if num_sequences < 0:
        raise ParameterError("num_sequences must be >= 0")
    rng = np.random.default_rng(seed)
    records = sample_sequences(grammar, num_sequences, length, rng)
    return SequenceDataset(records=records, alphabet_size=grammar.num_tokens,
                           length=length)


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
    records: list               # (N, length) int array, or N int token-index arrays
    length: int
    alphabet_size: int | None = None

    def __post_init__(self):
        # the first record at fault names the error: a wrong length, or else
        # a token outside the alphabet
        lens = np.fromiter(map(len, self.records), dtype=np.int64, count=len(self.records))
        bad = np.flatnonzero(lens != self.length)
        n = bad[0] if bad.size else len(lens)
        if self.alphabet_size is not None and n and self.length:
            toks = np.asarray(self.records[:n]).reshape(n, self.length)
            if (toks.max(axis=1) >= self.alphabet_size).any():
                raise ParameterError("token index out of alphabet range")
        if bad.size:
            raise ParameterError("dataset records must share a uniform length")

    def __len__(self):
        return len(self.records)

    def one_hot(self, num=None, length=None):
        """(N, L, alphabet) one-hot array of the first `num` records' first
        `length` tokens; all of them by default."""
        records = self.records[:num]
        toks = np.asarray(records, dtype=np.int64).reshape(len(records), self.length)
        toks = toks[:, :length]
        out = np.zeros(toks.shape + (self.alphabet_size,))
        out[np.arange(len(toks))[:, None], np.arange(toks.shape[1]), toks] = 1.0
        return out


def save_dataset(path, dataset):
    # a list of ints prints as json.dumps writes it
    rows = np.asarray(dataset.records, dtype=np.int64).tolist()
    with open(path, "w") as f:
        f.writelines('{"tokens": %s}\n' % row for row in rows)


def _token_row(obj, lineno):
    """obj["tokens"] as a non-empty 1-d int64 array, or ParseError when it has
    another shape or an element is not an integer. JSON booleans are not
    integers."""
    try:
        row = np.asarray(obj["tokens"])
    except ValueError as e:                 # ragged nesting
        raise ParseError(f"line {lineno}: tokens is not a rectangular list") from e
    if row.ndim != 1:
        raise ParseError(f"line {lineno}: tokens must be a 1-d list")
    if row.size == 0:
        raise ParseError(f"line {lineno}: tokens must not be empty")
    # numpy turns JSON true/false mixed with numbers into 1/0; reject them
    if row.dtype.kind not in "iu" or bool in set(map(type, obj["tokens"])):
        raise ParseError(f"line {lineno}: tokens must hold only integers")
    return row.astype(np.int64, copy=False)


def _line_tokens(line, lineno):
    """The tokens of one non-blank dataset line as a list of int64-sized ints,
    or ParseError when the line is not a record with a non-empty, flat list
    of integer tokens."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {lineno}: invalid JSON ({e})") from e
    if not isinstance(obj, dict):
        raise ParseError(f"line {lineno}: record must be a JSON object")
    if "tokens" not in obj:
        raise ParseError(f"line {lineno}: record needs 'tokens'")
    toks = obj["tokens"]
    # a non-empty list of int64-sized ints is taken as it is; _token_row
    # rejects anything else, or converts it as numpy reads it
    if (type(toks) is list and set(map(type, toks)) == {int}
            and _INT64_MIN <= min(toks) and max(toks) <= _INT64_MAX):
        return toks
    return _token_row(obj, lineno).tolist()


def _token_array(flat, lens, linenos, alphabet_size):
    """The rows, given as their concatenated tokens and their lengths, as one
    (N, L) int64 array; or the ParseError of the first row at fault, whose
    checks run in load_dataset's order: alphabet bound, negative tokens,
    then a length unlike the first row's."""
    flat, lens = np.array(flat, dtype=np.int64), np.asarray(lens)
    starts = np.cumsum(lens) - lens             # rows are non-empty
    lo, hi = np.minimum.reduceat(flat, starts), np.maximum.reduceat(flat, starts)
    over = hi >= alphabet_size if alphabet_size is not None else np.zeros(len(lens), bool)
    at_fault = np.flatnonzero(over | (lo < 0) | (lens != lens[0]))
    if at_fault.size:
        i = at_fault[0]
        if over[i]:
            raise ParseError(
                f"line {linenos[i]}: token {int(hi[i])} >= alphabet size {alphabet_size}")
        if lo[i] < 0:
            raise ParseError(f"line {linenos[i]}: negative token index")
        raise ParseError(f"line {linenos[i]}: inconsistent sequence length")
    return flat.reshape(len(lens), lens[0])


def load_dataset(path, alphabet_size=None):
    """Read a JSONL dataset, one {"tokens": [...]} record per non-blank line.

    Lines are parsed and type-checked one at a time up to the first bad one;
    the rows before it are then checked as one array. The error raised is
    that of the first line at fault; per line the checks run in this order:
    JSON, record shape, token types, alphabet bound, negative tokens, and a
    length unlike the first record's.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})") from e
    flat, lens, linenos, fault = [], [], [], None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            toks = _line_tokens(line, lineno)
        except ParseError as e:
            fault = e
            break
        flat.extend(toks)
        lens.append(len(toks))
        linenos.append(lineno)
    del lines                   # the text goes before the array is built
    toks = _token_array(flat, lens, linenos, alphabet_size) if lens else None
    if fault is not None:
        raise fault
    if toks is None:
        return SequenceDataset(records=[], length=0, alphabet_size=alphabet_size or 0)
    if alphabet_size is None:
        alphabet_size = int(toks.max()) + 1
    return SequenceDataset(records=toks, length=toks.shape[1], alphabet_size=alphabet_size)
