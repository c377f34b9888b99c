"""Command-line interface: synth, train, generate, evaluate, ablate.

Each command takes --config <json> plus repeated --set key=value overrides.
The AGG_SEED environment variable overrides the configured seed. Every run
writes its fully resolved config into the artifact directory so it can be
replayed exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import autodiff as ad
from .adversarial import (Discriminator, DiscriminatorConfig, GrammarOnlyConfig,
                          TrainConfig, train_adversarial, train_grammar_only)
from .errors import AggError, ConfigError
from .grammar import GrammarModel, activity_config
from .metrics import EvalReport, ngram_kl, sample_model_futures
from .nn import load_checkpoint, save_checkpoint
from .synthdata import (build_preset_grammar, load_dataset, load_grammar,
                        sample_dataset, save_dataset, save_grammar)

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
    "preset": "activity",      # activity (the only model preset)
    "num_classes": 0,          # 0: infer from the dataset alphabet
    "topk_mask": 4,            # 0 disables the per-state rule mask
    "iterations": 5000,
    "batch_size": 32,
    "prefix_len": 4,
    "seed": 0,
    "lr0": 0.02,
    "momentum": 0.9,
    "d_steps_per_g_step": 1,
    "generator_loss_variant": "non_saturating",
    "policy": "sample_hard",
    "tau": 1.0,
    "tau_end": 0.0,            # 0: no anneal
    "d_lr_scale": 1.0,
    "d_loss_floor": 0.7,       # 0 disables discriminator throttling
    "entropy_weight": 0.1,
    "ema_decay": 0.999,        # 0 disables generator weight averaging
    "d_channels": [16, 32, 16],
    "kernel_width": 5,
    "stride": 4,
    "k_cap": 2,                # grammar_only: rules kept per step
    "max_paths": 64,           # grammar_only: enumeration beam cap
    "log_every": 100,
    "checkpoint_every": 0,     # 0: final checkpoint only
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
    "preset": "activity",      # used when run_dir is ""
    "dataset": "",             # prefixes (required)
    "grammar": "",             # ground-truth grammar JSON (required)
    "ngram": 3,
    "horizons": [12],
    "prefix_len": 4,
    "num_prefixes": 1000,
    "samples_per_prefix": 10,
    "eps": 1e-6,
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
    """Defaults <- config file <- --set overrides <- AGG_SEED."""
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
    if os.environ.get("AGG_SEED"):
        try:
            cfg["seed"] = int(os.environ["AGG_SEED"])
        except ValueError:
            raise ConfigError("AGG_SEED must be an integer")
    _check_seeds(cfg)
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


def _check_seeds(cfg):
    for key in ("seed", "grammar_seed"):
        if cfg.get(key, 0) < 0:
            raise ConfigError(f"{key} must be >= 0")


def _write_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def _grammar_config(cfg, num_classes):
    if cfg["preset"] != "activity":
        raise ConfigError(f"unknown model preset {cfg['preset']!r}")
    return activity_config(num_classes, topk_mask=cfg["topk_mask"] or None)


def _load_trained(run_dir):
    """Rebuild a trained grammar model from a train artifact directory."""
    cfg_path = os.path.join(run_dir, "config.json")
    train_cfg = _read_config(cfg_path, f"no config.json under {run_dir!r}")
    for key, default in TRAIN_DEFAULTS.items():
        if key not in train_cfg:
            raise ConfigError(f"{cfg_path} lacks the train key {key!r}")
        _check_value(key, train_cfg[key], default)
    _check_seeds(train_cfg)
    model = GrammarModel(_grammar_config(train_cfg, train_cfg["num_classes"]),
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


def cmd_train(cfg):
    if not cfg["dataset"]:
        raise ConfigError("train requires a dataset path")
    dataset = load_dataset(cfg["dataset"])
    num_classes = cfg["num_classes"] or dataset.alphabet_size
    cfg = dict(cfg, num_classes=num_classes)   # resolved config is replayable
    out = cfg["out_dir"]
    _write_config(cfg, out)
    model = GrammarModel(_grammar_config(cfg, num_classes), seed=cfg["seed"])

    def checkpoint_fn(it):
        every = cfg["checkpoint_every"]
        if every and (it + 1) % every == 0:
            save_checkpoint(os.path.join(out, f"checkpoint_{it + 1}.bin"),
                            {n: p.value for n, p in model.named_parameters().items()})

    if cfg["mode"] == "adversarial":
        disc = Discriminator(
            num_classes, model.config.d_nonterminal,
            DiscriminatorConfig(conv_channels=tuple(cfg["d_channels"]),
                                kernel_width=cfg["kernel_width"],
                                stride=cfg["stride"]),
            seed=cfg["seed"] + 1)
        tc = TrainConfig(
            iterations=cfg["iterations"], batch_size=cfg["batch_size"],
            d_steps_per_g_step=cfg["d_steps_per_g_step"],
            generator_loss_variant=cfg["generator_loss_variant"],
            prefix_len=cfg["prefix_len"], seed=cfg["seed"], lr0=cfg["lr0"],
            momentum=cfg["momentum"], policy=cfg["policy"], tau=cfg["tau"],
            tau_end=cfg["tau_end"] or None, d_lr_scale=cfg["d_lr_scale"],
            d_loss_floor=cfg["d_loss_floor"] or None,
            entropy_weight=cfg["entropy_weight"],
            ema_decay=cfg["ema_decay"] or None, log_every=cfg["log_every"])
        result = train_adversarial(dataset, model, disc, tc,
                                   checkpoint_fn=checkpoint_fn)
        _metrics_csv(os.path.join(out, "metrics.csv"), result.metrics,
                     ["iteration", "d_loss", "g_loss", "d_accuracy", "lr"])
        print(f"trained {cfg['iterations']} iterations; "
              f"holdout discriminator accuracy {result.holdout_accuracy:.3f}; "
              f"parse fallbacks {result.parse_fallback_share:.1%}")
    elif cfg["mode"] == "grammar_only":
        gc = GrammarOnlyConfig(
            iterations=cfg["iterations"], batch_size=cfg["batch_size"],
            k_cap=cfg["k_cap"], max_paths=cfg["max_paths"],
            prefix_len=cfg["prefix_len"], seed=cfg["seed"], lr0=cfg["lr0"],
            momentum=cfg["momentum"], log_every=cfg["log_every"])
        rows = train_grammar_only(dataset, model, gc)
        _metrics_csv(os.path.join(out, "metrics.csv"), rows,
                     ["iteration", "nll", "lr"])
        print(f"trained {cfg['iterations']} iterations; "
              f"final nll {rows[-1]['nll']:.4f}")
    else:
        raise ConfigError(f"unknown train mode {cfg['mode']!r}")
    save_checkpoint(os.path.join(out, "checkpoint.bin"),
                    {n: p.value for n, p in model.named_parameters().items()})
    return 0


def cmd_generate(cfg):
    if not cfg["run_dir"] or not cfg["dataset"]:
        raise ConfigError("generate requires run_dir and dataset")
    model, _ = _load_trained(cfg["run_dir"])
    dataset = load_dataset(cfg["dataset"])
    if cfg["prefix_len"] > dataset.length:
        raise ConfigError("prefix_len exceeds dataset length")
    out = cfg["out_dir"]
    _write_config(cfg, out)
    prefixes = dataset.one_hot(cfg["num_prefixes"], cfg["prefix_len"])
    k = cfg["k"]
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(len(prefixes) * k)
    with ad.no_grad():
        n0 = model.encode_start(prefixes).value
    paths, logp = model.sample_hard_paths(n0, cfg["horizon"], seeds)
    # each rule's terminal as json.dumps prints it, formatted once
    _, t_all, _ = model.rule_tables()
    terminals = [json.dumps(t) for t in t_all.tolist()]
    with open(os.path.join(out, "futures.jsonl"), "w") as f:
        for n, (path, lp) in enumerate(zip(paths.tolist(), logp.tolist())):
            f.write('{"prefix_index": %d, "sample_index": %d, "rule_indices": %s, '
                    '"log_prob": %s, "terminals": [%s]}\n'
                    % (n // k, n % k, path, json.dumps(lp),
                       ", ".join(terminals[r] for r in path)))
    print(f"wrote {len(prefixes) * k} futures to {out}")
    return 0


def cmd_evaluate(cfg):
    if not cfg["dataset"] or not cfg["grammar"]:
        raise ConfigError("evaluate requires dataset and grammar paths")
    grammar = load_grammar(cfg["grammar"])
    dataset = load_dataset(cfg["dataset"])
    if cfg["run_dir"]:
        model, _ = _load_trained(cfg["run_dir"])
        model_id = cfg["run_dir"]
    else:
        model = GrammarModel(_grammar_config(dict(cfg, topk_mask=4),
                                             grammar.num_tokens), seed=cfg["seed"])
        model_id = "untrained"
    X = dataset.one_hot(cfg["num_prefixes"], cfg["prefix_len"])
    per_horizon = {}
    for h in sorted(cfg["horizons"]):
        samples = sample_model_futures(model, X, h,
                                       num_samples_per_prefix=cfg["samples_per_prefix"],
                                       seed=cfg["seed"])
        per_horizon[h] = ngram_kl(samples, grammar, cfg["ngram"], h, eps=cfg["eps"])
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
    """One (training mode, branching) cell: returns the n-gram KL."""
    num_classes = grammar.num_tokens
    model = GrammarModel(activity_config(num_classes, topk_mask=topk), seed=seed)
    if mode == "adversarial":
        disc = Discriminator(num_classes, model.config.d_nonterminal,
                             DiscriminatorConfig(conv_channels=(16, 32, 16)),
                             seed=seed + 1)
        tc = TrainConfig(iterations=cfg["iterations"], batch_size=cfg["batch_size"],
                         prefix_len=cfg["prefix_len"], seed=seed, lr0=cfg["lr0"],
                         d_loss_floor=0.7, entropy_weight=0.1, ema_decay=0.999)
        train_adversarial(dataset, model, disc, tc)
    else:
        gc = GrammarOnlyConfig(iterations=cfg["iterations"],
                               batch_size=cfg["batch_size"],
                               prefix_len=cfg["prefix_len"], seed=seed,
                               lr0=cfg["lr0"], k_cap=min(4, max(1, topk)))
        train_grammar_only(dataset, model, gc)
    X = dataset.one_hot(cfg["num_prefixes"], cfg["prefix_len"])
    samples = sample_model_futures(model, X, dataset.length,
                                   num_samples_per_prefix=cfg["samples_per_prefix"],
                                   seed=seed + 7)
    return ngram_kl(samples, grammar, cfg["ngram"], dataset.length)


def cmd_ablate(cfg):
    grammar = build_preset_grammar(cfg["preset"])
    dataset = sample_dataset(grammar, cfg["num_sequences"], cfg["length"],
                             seed=cfg["seed"])
    arms = {"adversarial": "adversarial", "grammar_only": "grammar_only"}
    results = {}
    for mode in arms:
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
    for mode in arms:
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
