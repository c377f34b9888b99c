"""Ground-truth stochastic regular grammars and dataset plumbing.

These symbolic grammars are the data source for training and the exact
oracle for evaluation: every rule has the form A -> aB, there is no
termination rule, and fixed-length sampling truncates the infinite language.
"""
from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, ResourceError

PROB_TOL = 1e-9
ORACLE_BUDGET = 10**6           # most strings an exact oracle enumerates


@dataclass
class GroundTruthGrammar:
    states: list
    tokens: list
    start: str
    rules: list  # (state, token, next_state, probability)

    def __post_init__(self):
        for kind, names in (("state", self.states), ("token", self.tokens)):
            if len(set(names)) < len(names):
                raise ParameterError(f"repeated {kind} name")
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

def build_preset_grammar(name, seed=0, n_states=4, n_tokens=4):
    """walk_stop_run | bimodal | recipe | random."""
    if name == "walk_stop_run":
        return GroundTruthGrammar(
            states=["W", "U", "V"], tokens=["walking", "stopping", "running"],
            start="W",
            rules=[("W", "walking", "W", 0.8), ("W", "stopping", "U", 0.1),
                   ("W", "running", "V", 0.1), ("U", "stopping", "U", 1.0),
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
    K = grammar._cdf.shape[1]
    cdf = [np.ascontiguousarray(column) for column in grammar._cdf.T]
    tok, nxt = grammar._tok.ravel(), grammar._next.ravel()
    # at[j]: the flat index in the (S, K) tables of each row's rule at step j,
    # state * K plus the count of its cdf entries <= u
    at = np.empty((length, num_sequences), dtype=np.int64)
    state = np.full(num_sequences, grammar._state_index[grammar.start])
    for j, uj in enumerate(np.ascontiguousarray(u.T)):
        np.multiply(state, K, out=at[j])
        for column in cdf:
            at[j] += column.take(state) <= uj
        state = nxt.take(at[j])
    return tok.take(at.T)


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


def check_oracle_budget(grammar, length, budget=ORACLE_BUDGET):
    """ResourceError when the grammar's token strings of that length number
    more than budget: the bound of the exact oracles, which enumerate them."""
    A = grammar.num_tokens
    if A ** length > budget:
        raise ResourceError(f"{A}^{length} = {A ** length} strings exceeds budget {budget}")


def exact_future_distribution(grammar, state=None, horizon=1, budget=ORACLE_BUDGET):
    """Exact map over all length-`horizon` token strings from `state`.

    Returns {tuple(token indices): probability}; the probabilities sum to 1.
    """
    if horizon < 0:
        raise ParameterError("horizon must be >= 0")
    state = grammar.start if state is None else state
    check_oracle_budget(grammar, horizon, budget)
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


def exact_ngram_distribution(grammar, n, horizon, state=None):
    """Distribution over n-grams averaged across window starts in a length-
    `horizon` sequence, computed exactly from the state DP."""
    if n < 1:
        raise ParameterError("n-gram order must be >= 1")
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
    records: np.ndarray         # (N, length) int64 token indices; (0, 0) when empty
    length: int
    alphabet_size: int | None = None

    def __post_init__(self):
        r = self.records
        if not (isinstance(r, np.ndarray) and r.dtype == np.int64 and r.ndim == 2
                and r.shape[1] == self.length):
            raise ParameterError(
                f"dataset records must be an (N, {self.length}) int64 array")
        if (self.alphabet_size is not None and r.size
                and (r.min() < 0 or r.max() >= self.alphabet_size)):
            raise ParameterError("token index out of alphabet range")

    def __len__(self):
        return len(self.records)

    def one_hot(self, num=None, length=None):
        """(N, L, alphabet) one-hot array of the first `num` records' first
        `length` tokens; all of them by default."""
        return one_hot(self.records[:num, :length], self.alphabet_size)


def one_hot(tokens, width):
    """(..., width) float64 array that is 1.0 at each token index of the
    integer array tokens and 0.0 elsewhere."""
    out = np.zeros(tokens.shape + (width,))
    out.reshape(tokens.size, width)[np.arange(tokens.size), tokens.ravel()] = 1.0
    return out


# the dataset file's line for a record: _HEAD, the tokens joined by _SEP, _TAIL
_HEAD, _SEP, _TAIL = '{"tokens": [', ", ", "]}\n"


def save_dataset(path, dataset):
    """Write one {"tokens": [...]} line per record, spaced as json.dumps
    spaces it: the bytes of _dataset_bytes."""
    with open(path, "wb") as f:
        f.write(_dataset_bytes(dataset.records))


def _dataset_bytes(records):
    """The dataset file of the (N, L) int64 array `records`: the one
    definition of the format, built as one byte array.

    Every token gets a field W bytes wide, W the width of the widest token
    counting its '-': the digits of its magnitude right-aligned, 0 bytes to
    their left, and a '-' just before the digits of a negative token. A line
    is _HEAD, its L fields joined by _SEP, and _TAIL; one boolean compress
    then drops the 0 bytes to the left of narrower tokens."""
    n, length = records.shape
    toks = records.ravel()
    neg = toks < 0
    # uint64 magnitudes: -(-2**63) wraps to 2**63, which uint64 holds
    mag = toks.view(np.uint64)
    width = len(str(mag.max(initial=0, where=~neg)))
    if neg.any():
        mag = np.where(neg, -mag, mag)
        width = max(width, len(str(mag.max(initial=0, where=neg))) + 1)
    fields = np.empty((len(toks), width), dtype=np.uint8)
    digits = np.ones(len(toks), dtype=np.uint8)
    ten = np.uint64(10)
    for i in range(width - 1, 0, -1):
        q = mag // ten
        fields[:, i] = mag - q * ten        # mag % 10; numpy's % is the slower
        digits += q != 0
        mag = q
    fields[:, 0] = mag                      # the leftmost digit: mag < 10 here
    fields += ord("0")
    w = digits + neg                        # each token's width
    sign = np.flatnonzero(neg)
    fields[sign, width - w[sign]] = ord("-")
    line = _HEAD + _SEP.join(["0" * width] * length) + _TAIL
    out = np.tile(np.frombuffer(line.encode(), dtype=np.uint8), (n, 1))
    _fields(out, width, length)[...] = fields.reshape(n, length, width)
    if (w != width).any():
        keep = np.ones(out.shape, dtype=bool)
        _fields(keep, width, length)[...] = (
            np.arange(width) >= width - w[:, None]).reshape(n, length, width)
        out = out[keep]
    return out.tobytes()


def _fields(lines, width, length):
    """The (N, length, width) view of the token fields in `lines`, the (N,
    line) matrix of _dataset_bytes before its compress: each field is width
    bytes, the first after _HEAD and each next one after a _SEP."""
    start, step = len(_HEAD), width + len(_SEP)
    return lines[:, start:start + step * length].reshape(len(lines), length, step)[:, :, :width]


# every byte but a token's digits and '-' becomes a space
_NOT_NUMERIC = bytes(c if chr(c) in "-0123456789" else ord(" ") for c in range(256))


def _saved_tokens(data):
    """The N * L tokens of `data`, row by row, and N, when `data` is exactly
    what save_dataset writes for some N >= 1 records of L >= 1 tokens; else
    None. Two readers propose the tokens: _field_tokens, for the file of
    tokens of one width, and numpy's read of the numeric runs. The file
    passes only when _dataset_bytes writes the proposed tokens back to the
    same bytes. Each token's digits fill its own slot, so no two token arrays
    share a file, and a file that either reader misreads ('- 3' as -3,
    saturated past int64, spaces as [0], digits in other columns) fails the
    compare."""
    if not data.endswith(b"\n"):
        return None
    n = len(data) // (data.index(b"\n") + 1)      # lines as long as the first
    toks = _field_tokens(data, n)
    if toks is not None and _dataset_bytes(toks.reshape(n, -1)) == data:
        return toks, n
    n = data.count(b"\n")
    try:
        with warnings.catch_warnings():
            # numpy < 2 warns on unparsed text and returns what it read
            warnings.simplefilter("ignore", DeprecationWarning)
            toks = np.fromstring(data.translate(_NOT_NUMERIC), dtype=np.int64, sep=" ")
    except ValueError:
        return None
    if not toks.size or toks.size % n or _dataset_bytes(toks.reshape(n, -1)) != data:
        return None
    return toks, n


def _field_tokens(data, n):
    """The tokens of `data`, read as the (n, line) byte matrix that
    _dataset_bytes writes for tokens of one width W: each token's W digits
    at its _fields columns, W and the tokens per line L read off the first
    line. None when the lines differ in length, the first line has no such
    layout, or a byte at those columns is not a digit."""
    size = len(data) // n
    if size * n != len(data):
        return None
    stop = data.find(b",", len(_HEAD), size)
    width = (stop if stop >= 0 else size - len(_TAIL)) - len(_HEAD)
    # 20 digits pass int64; a 19-digit overflow fails the compare
    if not 0 < width < 20:
        return None
    length, rest = divmod(size - len(_HEAD) - len(_TAIL) + len(_SEP), width + len(_SEP))
    if rest:
        return None
    lines = np.frombuffer(data, dtype=np.uint8).reshape(n, size)
    digits = _fields(lines, width, length) - np.uint8(ord("0"))
    if digits.max() > 9:                    # a byte below '0' wraps past 9
        return None
    toks = digits[:, :, 0].astype(np.int64)
    for i in range(1, width):               # Horner over the field's columns
        toks *= 10
        toks += digits[:, :, i]
    return toks.ravel()


def _line_tokens(line, lineno):
    """The tokens of one stripped, non-blank dataset line as a list of
    int64-sized ints, or ParseError when the line is not a record with a
    non-empty, flat list of integer tokens. JSON booleans are not integers."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {lineno}: invalid JSON ({e})") from e
    if not isinstance(obj, dict):
        raise ParseError(f"line {lineno}: record must be a JSON object")
    if "tokens" not in obj:
        raise ParseError(f"line {lineno}: record needs 'tokens'")
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
    return row.astype(np.int64, copy=False).tolist()


def _check_row(toks, lineno, alphabet_size, length):
    """ParseError for the first fault of the record `toks` on line `lineno`,
    in this order: a token past the alphabet, a negative token, a length
    other than `length`, the first record's."""
    if alphabet_size is not None and max(toks) >= alphabet_size:
        raise ParseError(
            f"line {lineno}: token {int(max(toks))} >= alphabet size {alphabet_size}")
    if min(toks) < 0:
        raise ParseError(f"line {lineno}: negative token index")
    if len(toks) != length:
        raise ParseError(f"line {lineno}: inconsistent sequence length")


def load_dataset(path, alphabet_size=None):
    """Read a JSONL dataset, one {"tokens": [...]} record per non-blank line.

    A file that save_dataset would write back from its tokens is read as one
    byte array, as a field matrix or as numeric runs (_saved_tokens). Its
    tokens pass as one array when none is negative or past the alphabet;
    else numpy finds the first row at fault, and _check_row names its line.
    Any other file (other spacing, other keys, blank lines, other newlines, a
    fault) is read line by line, and each line is checked as it is read.
    Either way the error is that of the first line at fault; per line the
    checks run in this order: JSON, record shape, token types, alphabet
    bound, negative tokens, and a length unlike the first record's.
    """
    with open(path, "rb") as f:
        data = f.read()
    saved = _saved_tokens(data)
    if saved is not None:
        flat, n = saved
        toks = flat.reshape(n, -1)
        limit = np.inf if alphabet_size is None else alphabet_size   # no alphabet, no bound
        if flat.min() < 0 or flat.max() >= limit:
            row = int(((toks < 0) | (toks >= limit)).any(axis=1).argmax())
            _check_row(toks[row], row + 1, alphabet_size, toks.shape[1])
    else:
        toks = _load_lines(path, data, alphabet_size)
    if toks is None:
        return SequenceDataset(records=np.zeros((0, 0), dtype=np.int64), length=0,
                               alphabet_size=alphabet_size or 0)
    if alphabet_size is None:
        alphabet_size = int(toks.max()) + 1
    return SequenceDataset(records=toks, length=toks.shape[1], alphabet_size=alphabet_size)


def _load_lines(path, data, alphabet_size):
    """load_dataset's line-by-line reader of the file's bytes `data`, decoded
    as text mode decodes them (UTF-8, universal newlines): the (N, L) token
    array, or None when no line holds a record. Each line is checked as it
    is read, and the first line at fault raises."""
    try:
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read().split("\n")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e})") from e
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            toks = _line_tokens(line, lineno)
            _check_row(toks, lineno, alphabet_size, len(rows[0]) if rows else len(toks))
            rows.append(toks)
    return np.array(rows, dtype=np.int64) if rows else None
