#!/usr/bin/env python3
"""The repo benchmark: lecture, consult and archive traffic replayed
through the full conferencing stack.

    python3 perfbench/run.py --workload lecture|consult|archive \
        --seed N --seconds S --trace 0|1

Builds perfbench_replay (Release) from this checkout's sources into
.bench_build/ (or $CARGO_TARGET_DIR), runs it for the given wall-clock
budget and prints a report followed, as the last line, by one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of catalog.json; with --trace 1 they
are the per-layer metrics, computed from the spans of the traced run,
and the report adds a per-layer self-time table.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and then traced, on the default and the
held-out seed of catalog.json (or on --seed), for a one-command check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans as spanlib  # noqa: E402


def catalog():
    with open(os.path.join(HERE, "catalog.json")) as handle:
        return json.load(handle)


WORKLOADS = tuple(w["name"] for w in catalog()["workloads"])


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds the replay binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no mmconf sources under %s/src" % ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_replay",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_replay")


def replay(binary, workload, seed, seconds, trace, extra=()):
    """Runs one replay process; returns (exit code, parsed JSON, spans path)."""
    spans_path = None
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_path = os.path.join(build_dir(),
                                  "spans-%s-%d.tsv" % (workload, seed))
        command += ["--spans", spans_path]
    command += list(extra)
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench_replay printed nothing (exit %d)"
                           % proc.returncode)
    return proc.returncode, json.loads(lines[-1]), spans_path


def end_to_end(result, cat):
    metrics = {}
    for metric in cat["end_to_end"]:
        metrics[metric["name"]] = {"value": result["e2e"][metric["name"]],
                                   "unit": metric["unit"]}
    return metrics


def per_layer(result, spans, cat):
    """Per-layer metrics: timed-call statistics from the spans (per
    replay), work counts from the metrics registry."""
    replays = int(result["run"]["traced_replays"])
    calls = spanlib.call_stats(spans, replays)
    counts = result["counts"]
    metrics = {}
    for metric in cat["per_layer"]:
        name = metric["name"]
        call, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_ms", "us_p50", "us_p90"):
            value = calls.get(call, {}).get(stat, 0.0)
        else:
            value = counts.get(name, 0.0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def design_intent(workload, spans, calls):
    """The shape each workload was built to have, checked on its trace."""
    shares = spanlib.replay_self_shares(spans)
    layers = spanlib.layer_table(spans, 1)
    if workload == "lecture":
        top = max(shares, key=shares.get)
        return top == "fanout.push_frame", (
            "largest self-time call is %s (%.1f%%)" % (top, 100 * shares[top]))
    if workload == "consult":
        frames = calls.get("fanout.push_frame", {}).get("calls", 0)
        share = sum(v for k, v in shares.items()
                    if k.startswith(("federation.", "prefetch."))
                    or k == "fanout.settle")
        return frames == 0 and share > 0.5, (
            "%d frames composed; federation.*, prefetch.* and fanout.settle "
            "take %.1f%% of self time" % (frames, 100 * share))
    storage = layers.get("storage", {}).get("share", 0.0)
    top = max(layers, key=lambda layer: layers[layer]["share"])
    root = spanlib.roots(spans)
    encodes = sum(1 for i, s in enumerate(spans) if s.name == "compress.encode"
                  and spans[root[i]].name == spanlib.REPLAY_ROOT)
    return top == "storage" and encodes == 0, (
        "largest self-time layer is %s; storage takes %.1f%%; %d encodes in "
        "the timed loop" % (top, 100 * storage, encodes))


def report(workload, result, metrics, spans, trace):
    out = sys.stdout
    samples = result["samples"]
    print("== %s seed %d: %d replays, %d steps each, %.1f simulated s"
          % (workload, result["seed"], result["run"]["replays"],
             samples["events"], samples["sim_s"]), file=out)
    print("   samples: t2c %d, join %d, view %d, streamed objects %d"
          % (samples["t2c"], samples["join"], samples["view"],
             samples["objects_played"]), file=out)
    for problem in result["violations"] + result["failures"]:
        print("   FAILED: %s" % problem, file=out)
    if not trace:
        for name, metric in metrics.items():
            print("   %-20s %14.4f %s" % (name, metric["value"],
                                         metric["unit"]), file=out)
        counts = result["counts"]
        print("   not gated: %.4f cpu ms per simulated s, step p50 %.4f ms, "
              "p90 %.4f ms" % (counts["workload.cpu_ms_per_sim_s"],
                               counts["workload.event_ms_p50"],
                               counts["workload.event_ms_p90"]), file=out)
        return
    replays = int(result["run"]["traced_replays"])
    calls = spanlib.call_stats(spans, replays)
    table = spanlib.layer_table(spans, replays)
    print("   %-12s %10s %7s %10s %10s %10s" % (
        "layer", "self ms", "share", "calls", "p50 us", "p90 us"), file=out)
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print("   %-12s %10.2f %6.1f%% %10.1f %10.1f %10.1f" % (
            layer, row["self_ms"], 100 * row["share"], row["calls"],
            row["us_p50"], row["us_p90"]), file=out)
    print("   %-34s %10s %10s %10s %10s" % (
        "call", "self ms", "calls", "p50 us", "p90 us"), file=out)
    for name, row in sorted(calls.items(), key=lambda kv: -kv[1]["self_ms"]):
        print("   %-34s %10.2f %10.1f %10.1f %10.1f" % (
            name, row["self_ms"], row["calls"], row["us_p50"],
            row["us_p90"]), file=out)
    held, detail = design_intent(workload, spans, calls)
    print("   design intent %s: %s" % ("held" if held else "NOT MET", detail),
          file=out)
    run = result["run"]
    print("   tracing overhead: %.3f cpu ms per simulated s (traced %.3f, "
          "untraced %.3f)" % (
              run["cpu_ms_per_sim_s_traced"] - run["cpu_ms_per_sim_s_untraced"],
              run["cpu_ms_per_sim_s_traced"], run["cpu_ms_per_sim_s_untraced"]),
          file=out)


def run_one(binary, workload, seed, seconds, trace, extra=()):
    cat = catalog()
    code, result, spans_path = replay(binary, workload, seed, seconds, trace,
                                      extra)
    spans = []
    if trace:
        spans = spanlib.load(spans_path)
        metrics = per_layer(result, spans, cat)
    else:
        metrics = end_to_end(result, cat)
    report(workload, result, metrics, spans, trace)
    correct = bool(result["correct"]) and code == 0
    line = {"correct": correct, "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}
    return correct, line


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=None,
                        help="default: the catalogue's default seed; with "
                             "--all, the default and held-out seeds")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fail-step", type=int, default=None,
                        help="make step K fail (tests the failure path)")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    extra = [] if args.fail_step is None else ["--fail-step",
                                               str(args.fail_step)]
    seeds = catalog()["seeds"]
    if args.all:
        ok = True
        for seed in ([args.seed] if args.seed is not None
                     else [seeds["default"], seeds["held_out"]]):
            for trace in (0, 1):
                for workload in WORKLOADS:
                    correct, _ = run_one(binary, workload, seed,
                                         args.seconds, trace, extra)
                    ok = ok and correct
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    seed = args.seed if args.seed is not None else seeds["default"]
    try:
        correct, line = run_one(binary, args.workload, seed,
                                args.seconds, bool(args.trace), extra)
    except (RuntimeError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
