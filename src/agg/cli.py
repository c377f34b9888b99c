"""Command-line interface: synth, train, generate, evaluate, ablate.

Each command takes --config <json> plus repeated --set key=value overrides.
Every run writes its fully resolved config into the artifact directory so it
can be replayed exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .adversarial import (Discriminator, DiscriminatorConfig, GrammarOnlyConfig,
                          TrainConfig, _check_prefix_len, train_adversarial,
                          train_grammar_only)
from .errors import AggError, ConfigError, InputError
from .grammar import GrammarModel, activity_config
from .metrics import EvalReport, ngram_kl, ngram_kl_by_horizon, sample_model_futures
from .nn import load_checkpoint, save_checkpoint
from .synthdata import (build_preset_grammar, check_oracle_budget, load_dataset,
                        load_grammar, sample_dataset, save_dataset, save_grammar)

SYNTH_DEFAULTS = {
    "preset": "recipe",        # walk_stop_run | bimodal | recipe | random
    "num_sequences": 10000,
    "length": 12,
    "seed": 0,
    "grammar_seed": 0,         # random preset: structure seed
    "n_states": 4,             # random preset: state count
    "n_tokens": 4,             # random preset: token count
    "out_dir": "runs/synth",
}

TRAIN_DEFAULTS = {
    "dataset": "",             # path to a JSONL dataset (required)
    "mode": "adversarial",     # adversarial | grammar_only
    "num_classes": 0,          # 0: infer from the dataset alphabet
    "topk_mask": 4,            # 0 disables the per-state rule mask
    # the trainers' fields, at their dataclass defaults
    **asdict(TrainConfig()),
    **asdict(GrammarOnlyConfig()),
    "d_channels": list(DiscriminatorConfig().conv_channels),
    "out_dir": "runs/train",
}

GENERATE_DEFAULTS = {
    "run_dir": "",             # train artifact directory (required)
    "dataset": "",             # prefixes come from this dataset (required)
    "k": 10,                   # futures per prefix
    "horizon": 12,
    "prefix_len": 4,
    "num_prefixes": 10,
    "seed": 0,
    "out_dir": "runs/generate",
}

EVALUATE_DEFAULTS = {
    "run_dir": "",             # train artifact directory; "" evaluates untrained
    "dataset": "",             # prefixes (required)
    "grammar": "",             # ground-truth grammar JSON (required)
    "ngram": 3,
    "horizons": [12],
    "prefix_len": 4,
    "num_prefixes": 1000,
    "samples_per_prefix": 10,
    "seed": 0,
    "out_dir": "runs/evaluate",
}

ABLATE_DEFAULTS = {
    "preset": "bimodal",       # ground-truth grammar preset
    "num_sequences": 2000,
    "length": 12,
    "iterations": 1200,
    "batch_size": 32,
    "prefix_len": 2,           # pre-branch, so the prefix can't leak the mode
    "lr0": 0.02,
    "ngram": 3,
    "num_seeds": 5,
    "seed": 0,
    "num_prefixes": 500,
    "samples_per_prefix": 10,
    "out_dir": "runs/ablate",
}

DEFAULTS = {
    "synth": SYNTH_DEFAULTS,
    "train": TRAIN_DEFAULTS,
    "generate": GENERATE_DEFAULTS,
    "evaluate": EVALUATE_DEFAULTS,
    "ablate": ABLATE_DEFAULTS,
}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_value(key, value, default):
    """value, or ConfigError unless it has the default's type: an integer, a
    finite number, a string, or a list of integers."""
    if isinstance(default, list):
        ok = isinstance(value, list) and all(map(_is_int, value))
        what = "a list of integers"
    elif isinstance(default, str):
        ok, what = isinstance(value, str), "a string"
    elif isinstance(default, int):
        ok, what = _is_int(value), "an integer"
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
        what = "a finite number"
    if not ok:
        raise ConfigError(f"key {key!r} expects {what}, got {json.dumps(value)}")
    return value


def _coerce(key, value, default):
    """Parse an override string against the default's type."""
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    if isinstance(default, str) and not isinstance(parsed, str):
        parsed = value
    elif isinstance(default, int) and isinstance(parsed, float) and parsed.is_integer():
        parsed = int(parsed)
    return _check_value(key, parsed, default)


def resolve_config(command, config_path=None, overrides=()):
    """Defaults <- config file <- --set overrides."""
    defaults = DEFAULTS[command]
    cfg = dict(defaults)
    if config_path:
        loaded = _read_config(config_path, f"config file not found: {config_path}")
        for key, value in loaded.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r} for {command!r}")
            cfg[key] = _check_value(key, value, defaults[key])
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {command!r}")
        cfg[key] = _coerce(key, value, defaults[key])
    _check_nonnegative(cfg)
    return cfg


def _read_config(path, missing):
    """The JSON object in the file at path; ConfigError with the message
    `missing` when there is no such file, and when it holds no JSON object."""
    try:
        with open(path) as f:
            loaded = json.load(f)
    except FileNotFoundError:
        raise ConfigError(missing)
    except ValueError as e:             # bad JSON or bad UTF-8
        raise ConfigError(f"{path} is not valid JSON: {e}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return loaded


def _check_nonnegative(cfg):
    for key in ("seed", "grammar_seed", "num_classes"):
        if cfg.get(key, 0) < 0:
            raise ConfigError(f"{key} must be >= 0")


def _check_at_least_one(cfg, *keys):
    """ConfigError unless every named count is >= 1; a list must be
    non-empty, and each of its entries >= 1."""
    for key in keys:
        values = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
        if not values:
            raise ConfigError(f"{key} must not be empty")
        if any(v < 1 for v in values):
            raise ConfigError(f"{key} must be >= 1, got {json.dumps(cfg[key])}")


def _write_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def _grammar_config(num_classes, topk_mask=TRAIN_DEFAULTS["topk_mask"]):
    config = activity_config(num_classes, topk_mask=topk_mask or None)
    # the model deals its R rules' fixed tokens out evenly, so with
    # num_classes <= R every class has a rule that emits it; checked before
    # anything is allocated with num_classes entries
    if num_classes > config.num_rules:
        raise ConfigError(f"num_classes {num_classes} exceeds the model's "
                          f"{config.num_rules} rules")
    return config


def _load_trained(run_dir):
    """Rebuild a trained grammar model from a train artifact directory."""
    cfg_path = os.path.join(run_dir, "config.json")
    train_cfg = _read_config(cfg_path, f"no config.json under {run_dir!r}")
    for key, default in TRAIN_DEFAULTS.items():
        if key not in train_cfg:
            raise ConfigError(f"{cfg_path} lacks the train key {key!r}")
        _check_value(key, train_cfg[key], default)
    _check_nonnegative(train_cfg)
    model = GrammarModel(_grammar_config(train_cfg["num_classes"], train_cfg["topk_mask"]),
                         seed=train_cfg["seed"])
    state = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    model.load_state(state)
    return model, train_cfg


def cmd_synth(cfg):
    grammar = build_preset_grammar(cfg["preset"], seed=cfg["grammar_seed"],
                                   n_states=cfg["n_states"], n_tokens=cfg["n_tokens"])
    dataset = sample_dataset(grammar, cfg["num_sequences"], cfg["length"],
                             seed=cfg["seed"])
    out = cfg["out_dir"]
    _write_config(cfg, out)
    save_grammar(os.path.join(out, "grammar.json"), grammar)
    save_dataset(os.path.join(out, "dataset.jsonl"), dataset)
    print(f"wrote {len(dataset)} sequences of length {dataset.length} to {out}")
    return 0


def _metrics_csv(path, rows, columns):
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                             for c in columns) + "\n")


def _fields_of(config_class, cfg):
    """config_class built from the values that cfg holds for its fields."""
    return config_class(**{f.name: cfg[f.name] for f in fields(config_class)})


def _train_configs(cfg, length):
    """The trainer configs of the resolved train config cfg, checked against
    sequences of the given length: (TrainConfig, DiscriminatorConfig) in
    adversarial mode, (GrammarOnlyConfig,) in grammar_only mode. All three
    are built in either mode, so every trainer key that config.json records
    holds a value both trainers accept."""
    if cfg["mode"] not in ("adversarial", "grammar_only"):
        raise ConfigError(f"unknown train mode {cfg['mode']!r}")
    d_config = DiscriminatorConfig(conv_channels=tuple(cfg["d_channels"]))
    configs = {"adversarial": (_fields_of(TrainConfig, cfg), d_config),
               "grammar_only": (_fields_of(GrammarOnlyConfig, cfg),)}[cfg["mode"]]
    _check_prefix_len(configs[0].prefix_len, length)
    return configs


def _train(cfg, dataset, model, configs):
    """Train model on dataset with the configs _train_configs(cfg) built. Returns
    the metrics rows, their columns and a one-line summary."""
    if cfg["mode"] == "adversarial":
        train_config, d_config = configs
        disc = Discriminator(cfg["num_classes"], model.config.d_nonterminal, d_config,
                             seed=cfg["seed"] + 1)
        result = train_adversarial(dataset, model, disc, train_config)
        return (result.metrics, ["iteration", "d_loss", "g_loss", "d_accuracy", "lr"],
                f"trained {cfg['iterations']} iterations; "
                f"holdout discriminator accuracy {result.holdout_accuracy:.3f}; "
                f"parse fallbacks {result.parse_fallback_share:.1%}")
    rows = train_grammar_only(dataset, model, *configs)
    return (rows, ["iteration", "nll", "lr"],
            f"trained {cfg['iterations']} iterations; final nll {rows[-1]['nll']:.4f}")


def cmd_train(cfg):
    if not cfg["dataset"]:
        raise ConfigError("train requires a dataset path")
    # read at the model's width: num_classes, or inferred from the data
    dataset = load_dataset(cfg["dataset"], alphabet_size=cfg["num_classes"] or None)
    if len(dataset) == 0:
        raise InputError("empty dataset")
    num_classes = dataset.alphabet_size
    grammar_config = _grammar_config(num_classes, cfg["topk_mask"])
    cfg = dict(cfg, num_classes=num_classes)   # resolved config is replayable
    configs = _train_configs(cfg, dataset.length)   # checked before out_dir is made
    out = cfg["out_dir"]
    _write_config(cfg, out)
    model = GrammarModel(grammar_config, seed=cfg["seed"])
    rows, columns, summary = _train(cfg, dataset, model, configs)
    _metrics_csv(os.path.join(out, "metrics.csv"), rows, columns)
    print(summary)
    save_checkpoint(os.path.join(out, "checkpoint.bin"), model.state())
    return 0


def _load_prefixes(cfg, model):
    """One-hot prefixes for generate and evaluate: the first prefix_len tokens
    of the dataset's first num_prefixes records, read at the model's width."""
    dataset = load_dataset(cfg["dataset"], alphabet_size=model.config.d_terminal)
    if len(dataset) == 0:
        raise InputError("empty dataset")
    _check_prefix_len(cfg["prefix_len"], dataset.length)
    return dataset.one_hot(cfg["num_prefixes"], cfg["prefix_len"])


def cmd_generate(cfg):
    if not cfg["run_dir"] or not cfg["dataset"]:
        raise ConfigError("generate requires run_dir and dataset")
    _check_at_least_one(cfg, "k", "horizon", "prefix_len", "num_prefixes")
    model, _ = _load_trained(cfg["run_dir"])
    prefixes = _load_prefixes(cfg, model)
    out = cfg["out_dir"]
    _write_config(cfg, out)
    k = cfg["k"]
    paths, logp = model.sample_prefix_paths(prefixes, cfg["horizon"], k, seed=cfg["seed"])
    # every line from one template; the JSON of each log_prob comes from one
    # json.dumps call of the array, split at the separators between its items
    N, L = paths.shape
    line = ('{"prefix_index": %d, "sample_index": %d, "rule_indices": ['
            + ", ".join(["%d"] * L) + '], "log_prob": %s, "terminals": ['
            + ", ".join(["%d"] * L) + "]}\n")
    values = np.empty((N, 3 + 2 * L), dtype=object)
    values[:, 0], values[:, 1] = np.divmod(np.arange(N), k)
    values[:, 2:2 + L] = paths
    values[:, 2 + L] = json.dumps(logp.tolist())[1:-1].split(", ")
    values[:, 3 + L:] = model.emit[paths]
    with open(os.path.join(out, "futures.jsonl"), "w") as f:
        f.write((line * N) % tuple(values.ravel().tolist()))
    print(f"wrote {len(prefixes) * k} futures to {out}")
    return 0


def cmd_evaluate(cfg):
    if not cfg["dataset"] or not cfg["grammar"]:
        raise ConfigError("evaluate requires dataset and grammar paths")
    _check_at_least_one(cfg, "ngram", "horizons", "prefix_len", "num_prefixes",
                        "samples_per_prefix")
    horizons = sorted(cfg["horizons"])
    # checked before the model loads and samples, not when a horizon is scored
    if cfg["ngram"] > horizons[0]:
        raise ConfigError(f"ngram {cfg['ngram']} exceeds the shortest horizon {horizons[0]}")
    grammar = load_grammar(cfg["grammar"])
    check_oracle_budget(grammar, cfg["ngram"])
    if cfg["run_dir"]:
        model, _ = _load_trained(cfg["run_dir"])
        model_id = cfg["run_dir"]
    else:
        model = GrammarModel(_grammar_config(grammar.num_tokens), seed=cfg["seed"])
        model_id = "untrained"
    X = _load_prefixes(cfg, model)
    # one sample set at the longest horizon: the draws are step-major, so its
    # first h columns are what a sample at horizon h would give, and one
    # count of its windows scores every horizon
    samples = sample_model_futures(model, X, horizons[-1],
                                   num_samples_per_prefix=cfg["samples_per_prefix"],
                                   seed=cfg["seed"])
    per_horizon = ngram_kl_by_horizon(samples, grammar, cfg["ngram"], horizons)
    report = EvalReport(per_horizon=per_horizon,
                        metadata={"model": model_id, "dataset": cfg["dataset"],
                                  "seed": cfg["seed"], "ngram": cfg["ngram"]})
    out = cfg["out_dir"]
    _write_config(cfg, out)
    with open(os.path.join(out, "report.json"), "w") as f:
        f.write(report.to_json() + "\n")
    print(report.render_table())
    return 0


def _ablate_arm(grammar, dataset, cfg, mode, topk, seed):
    """One (training mode, branching) cell, trained as `train` trains from
    its defaults: returns the n-gram KL. The likelihood beam keeps as many
    rules a step as the mask does."""
    arm = dict(TRAIN_DEFAULTS, mode=mode, num_classes=grammar.num_tokens,
               topk_mask=topk, k_cap=topk, seed=seed,
               **{key: cfg[key] for key in ("iterations", "batch_size", "prefix_len", "lr0")})
    model = GrammarModel(_grammar_config(grammar.num_tokens, topk), seed=seed)
    _train(arm, dataset, model, _train_configs(arm, dataset.length))
    X = dataset.one_hot(cfg["num_prefixes"], cfg["prefix_len"])
    samples = sample_model_futures(model, X, dataset.length,
                                   num_samples_per_prefix=cfg["samples_per_prefix"],
                                   seed=seed + 7)
    return ngram_kl(samples, grammar, cfg["ngram"], dataset.length)


def cmd_ablate(cfg):
    _check_at_least_one(cfg, "ngram", "num_seeds", "num_prefixes", "samples_per_prefix")
    # checked before the first arm trains, not when it is scored
    if cfg["ngram"] > cfg["length"]:
        raise ConfigError(f"ngram {cfg['ngram']} exceeds length {cfg['length']}")
    _check_prefix_len(cfg["prefix_len"], cfg["length"])
    grammar = build_preset_grammar(cfg["preset"])
    check_oracle_budget(grammar, cfg["ngram"])
    dataset = sample_dataset(grammar, cfg["num_sequences"], cfg["length"],
                             seed=cfg["seed"])
    modes = ("adversarial", "grammar_only")
    results = {}
    for mode in modes:
        for label, topk in (("branching", 4), ("no_branching", 1)):
            values = [
                _ablate_arm(grammar, dataset, cfg, mode, topk, cfg["seed"] + s)
                for s in range(cfg["num_seeds"])
            ]
            results[f"{mode}.{label}"] = {
                "values": values, "median": float(np.median(values)),
            }
    out = cfg["out_dir"]
    _write_config(cfg, out)
    with open(os.path.join(out, "results.json"), "w") as f:
        json.dump(results, f, indent=2, sort_keys=True)
        f.write("\n")
    lines = [f"{cfg['ngram']}-gram KL (median over {cfg['num_seeds']} seeds)",
             f"{'training':<14}{'branching':>12}{'no branching':>14}"]
    for mode in modes:
        b = results[f"{mode}.branching"]["median"]
        nb = results[f"{mode}.no_branching"]["median"]
        lines.append(f"{mode:<14}{b:>12.4f}{nb:>14.4f}")
    table = "\n".join(lines)
    with open(os.path.join(out, "table.txt"), "w") as f:
        f.write(table + "\n")
    print(table)
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
}


def _epilog(command):
    lines = ["config keys and defaults:"]
    for key, value in DEFAULTS[command].items():
        lines.append(f"  {key} = {json.dumps(value)}")
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="agg", description="Adversarial generative grammar toolkit.")
    sub = parser.add_subparsers(dest="command")
    helps = {
        "synth": "sample a dataset from a ground-truth grammar preset",
        "train": "train a grammar model (adversarial or pruned-likelihood)",
        "generate": "sample futures from a trained model",
        "evaluate": "score a model's n-gram KL against an exact oracle",
        "ablate": "run the branching/training-mode ablation grid",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name], epilog=_epilog(name),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    try:
        cfg = resolve_config(args.command, args.config, args.set)
        return COMMANDS[args.command](cfg)
    except AggError as e:
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except OSError as e:
        json.dump({"error": "OSError", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
