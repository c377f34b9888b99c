"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 the workload repeats whole
segments (see workloads.py) for S seconds, untraced, and the end-to-end
metrics are printed. With --trace 1 the run gives the per-layer split
instead, whatever S is: set-up runs once under the tracer, then one
untraced and two traced segments; the counts of the two traced segments
and the fingerprints of all three must agree exactly. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
A record of the run (environment, every figure, fingerprints, failures) is
written under .perfbench/ in the checkout, and the spans of a traced run
next to it.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy links a threaded OpenBLAS; the workloads are single-threaded
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("AGG_SEED", None)     # the CLI would let it override request seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description="agg benchmark")
    p.add_argument("--workload", required=True,
                   choices=("recipe-adversarial", "bimodal-likelihood", "recipe-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_segments(wl, tally, seconds):
    """Repeat whole segments until `seconds` have passed (at least one).
    A segment whose fingerprint differs from the first one fails."""
    deadline = time.perf_counter() + seconds
    ops, fingerprints = [], []
    while not fingerprints or time.perf_counter() < deadline:
        seg_ops, fingerprint = wl.run(tally)
        ops += seg_ops
        if fingerprints and fingerprint != fingerprints[0]:
            tally.fail_last("segment fingerprint differs from the first identical segment")
        fingerprints.append(fingerprint)
    return ops, fingerprints


def run_timed(wl, args, import_s):
    from checks import Tally
    from workloads import op_summary
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    tally = Tally()
    ops, fingerprints = run_segments(wl, tally, args.seconds)
    _, p90, n = op_summary(ops)
    metrics = {"setup_s": import_s + statistics.median(setups),
               "op_ms.p90": p90, "peak_rss_mb": peak_rss_mb()}
    # printed and recorded, not gated: medians swing with the share of the
    # run the shared machine spent contended (see perfbench/README.md)
    reported = {"timed_ops": (n, "count"), **wl.named_metrics(ops)}
    record = {"import_s": import_s, "setup_repeats_s": setups,
              "segments": len(fingerprints), "reported": reported,
              "fingerprint": fingerprints[0]}
    return tally, metrics, True, record


def run_traced(wl, args):
    """Traced set-up, then one untraced and two traced segments."""
    import agg
    import layers
    from checks import Tally
    from tracer import Tracer, instrument
    from workloads import op_summary
    tracer = Tracer()
    with tracer:
        instrument(tracer, agg)
        wl.setup()
    tally = Tally()
    base_ops, base_fp = wl.run(tally)
    passes = {}
    with tracer:
        instrument(tracer, agg)
        for label in ("A", "B"):
            passes[label] = wl.run(tally, label=label, tracer=tracer)
    futures = getattr(wl, "FUTURES_PER_REQUEST", {})
    counts = {label: layers.count_metrics(tracer, label, layers.op_counts(ops, futures))
              for label, (ops, _) in passes.items()}
    traced_ops = passes["A"][0] + passes["B"][0]
    metrics = layers.timed_metrics(tracer, tuple(passes),
                                   layers.op_counts(traced_ops, futures))
    metrics.update(counts["A"])
    untraced_p50 = op_summary(base_ops)[0]
    traced_p50 = op_summary(traced_ops)[0]
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    fingerprints = [base_fp] + [fp for _, fp in passes.values()]
    counts_repeat = counts["A"] == counts["B"]
    fingerprints_agree = len(set(fingerprints)) == 1
    if not counts_repeat:
        print(f"count metrics differ between traced segments: {counts}", file=sys.stderr)
    if not fingerprints_agree:
        print(f"fingerprints differ between segments: {fingerprints}", file=sys.stderr)
    spans = OUT / f"{args.workload}.seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans)
    record = {"untraced_op_ms_p50": untraced_p50, "traced_op_ms_p50": traced_p50,
              "segment_counts": counts, "counts_repeat": counts_repeat,
              "fingerprint": base_fp, "fingerprints_agree": fingerprints_agree,
              "ops_per_segment": len(base_ops), "spans": str(spans.relative_to(ROOT)),
              "num_spans": len(tracer.spans)}
    return tally, metrics, counts_repeat and fingerprints_agree, record


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "agg" / "__init__.py").is_file():
        print(f"no agg package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import agg
    import agg.cli  # noqa: F401 - imported here so set-up timing includes it
    if Path(agg.__file__).resolve().parent != SRC / "agg":
        print(f"imported agg from {agg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - T_START
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        if args.trace:
            tally, metrics, ok, record = run_traced(wl, args)
        else:
            tally, metrics, ok, record = run_timed(wl, args, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, result=result,
                  failed_ratio=tally.failed / tally.attempted if tally.attempted else 0.0,
                  failure_reasons=tally.reasons)
    path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name in units:
        print(f"  {name:<48}{metrics[name]:>14.6g} {units[name]}")
    for name, (value, unit) in record.get("reported", {}).items():
        print(f"  {name:<48}{value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<48}{record['failed_ratio']:>14.6g} "
          f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    if args.trace:
        print(f"  traced op p50 {record['traced_op_ms_p50']:.4f} ms against untraced "
              f"{record['untraced_op_ms_p50']:.4f} ms; counts repeat: "
              f"{record['counts_repeat']}; fingerprints agree: {record['fingerprints_agree']}")
    print(f"  fingerprint {record['fingerprint']}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
