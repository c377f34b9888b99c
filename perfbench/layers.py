"""Per-layer metrics of a traced run.

Timed metrics are self times (a span's duration minus the time its child
spans cover) summed over the traced passes and divided by the operations
the metric is counted per. A workload that never calls a layer reports 0
for it. Count metrics are computed for each pass on its own, so that two
passes over the same seed can be compared for exact equality.
"""
from __future__ import annotations

from collections import Counter

ITER = ("iter",)
LOADS_MODEL = ("generate", "evaluate")
REQUESTS = ("synth", "generate", "evaluate")

# metric -> (span names, operation kinds it is divided over)
TIMED = {
    "autodiff.backward_ms_per_iter": (("autodiff.backward",), ITER),
    "nn.sgd_ms_per_iter": (("nn.sgd",), ITER),
    "nn.load_checkpoint_ms_per_request": (("nn.load_checkpoint",), LOADS_MODEL),
    "grammar.encode_start_ms_per_iter": (("grammar.encode_start",), ITER),
    "grammar.unroll_batch_ms_per_iter": (("grammar.unroll_batch",), ITER),
    "grammar.unroll_ms_per_future": (("grammar.unroll", "grammar.unroll_batch"), ("future",)),
    "grammar.rule_tables_ms_per_iter": (("grammar.rule_tables",), ITER),
    "grammar.sample_rule_paths_ms_per_request": (("grammar.sample_rule_paths",), ("evaluate",)),
    "adversarial.teacher_forced_states_ms_per_iter":
        (("adversarial.teacher_forced_states",), ITER),
    "adversarial.disc_forward_ms_per_iter": (("adversarial.disc_forward",), ITER),
    "adversarial.pruned_loglik_ms_per_iter": (("adversarial.pruned_loglik",), ITER),
    "synthdata.load_dataset_ms_per_request": (("synthdata.load_dataset",), LOADS_MODEL),
    "synthdata.save_dataset_ms_per_request": (("synthdata.save_dataset",), ("synth",)),
    "synthdata.exact_ngram_ms_per_request": (("synthdata.exact_ngram",), ("evaluate",)),
    "metrics.sample_model_futures_ms_per_request":
        (("metrics.sample_model_futures",), ("evaluate",)),
    "metrics.empirical_ngram_ms_per_request": (("metrics.empirical_ngram",), ("evaluate",)),
    "cli.self_ms_per_request": (("cli.main",), REQUESTS),
}

COUNTS = ("autodiff.nodes_per_iter", "autodiff.nodes_per_future",
          "grammar.rule_tables_calls_per_iter", "adversarial.d_update_ratio")


def _ratio(num, den):
    return num / den if den else 0.0


def op_counts(ops, futures_per_request):
    """Operations per kind, plus the futures the generate requests produced."""
    n = Counter(kind for kind, _ in ops)
    n["future"] = sum(n[k] * f for k, f in futures_per_request.items())
    return n


def timed_metrics(tracer, labels, n):
    """Self-time metrics over the passes in `labels`; n from op_counts."""
    ms = Counter()
    token_s = tokens = 0
    for name, op, work, self_s in tracer.self_times():
        if name == "synthdata.sample_sequence":
            # synthesis runs in set-up too; every call counts
            token_s += self_s
            tokens += work
        if op[0] in labels:
            ms[name, op[1]] += self_s * 1e3
    out = {}
    for metric, (names, kinds) in TIMED.items():
        # futures are produced by generate requests
        span_kinds = ("generate",) if kinds == ("future",) else kinds
        total = sum(ms[name, kind] for name in names for kind in span_kinds)
        out[metric] = _ratio(total, sum(n[k] for k in kinds))
    out["synthdata.sample_sequence_us_per_token"] = _ratio(token_s * 1e6, tokens)
    return out


def count_metrics(tracer, label, n):
    """Count metrics of one pass; n from op_counts of that pass."""
    c = Counter()
    for (name, op), calls in tracer.counts.items():
        if op[0] == label:
            c[name, op[1]] += calls
    d_steps, d_skips = c["adversarial.d_step", "iter"], c["adversarial.d_skip", "iter"]
    return {
        "autodiff.nodes_per_iter": _ratio(c["autodiff.node", "iter"], n["iter"]),
        "autodiff.nodes_per_future": _ratio(c["autodiff.node", "generate"], n["future"]),
        "grammar.rule_tables_calls_per_iter": _ratio(c["grammar.rule_tables", "iter"], n["iter"]),
        "adversarial.d_update_ratio": _ratio(d_steps, d_steps + d_skips),
    }
