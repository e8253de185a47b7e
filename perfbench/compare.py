#!/usr/bin/env python3
"""Collect, summarise and compare sets of benchmark runs.

    compare.py collect OUT_DIR [--root DIR] [--runs 10] [--first-seed 1]
                       [--workloads W ...] [--trace 0|1] [--seconds S]
        Run the benchmark of checkout DIR (default: this one) once per
        workload and seed; save each run's stdout in OUT_DIR.

    compare.py spread RUN_DIR
        Per workload and end-to-end metric: median, quartiles and the
        interquartile spread as a share of the median, against the
        metric's bound from BENCHMARK.json.

    compare.py diff PARENT_DIR CHANGE_DIR [--json]
        Pair the parent's and the change's runs by workload and seed
        and label every workload x metric improved, worse or
        unresolved: improved when the change wins at least 9 of 10
        pairs and the medians differ by more than the parent's
        interquartile spread; worse when the same holds the other way,
        or when the change's median is worse than the parent's by more
        than the metric's bound; unresolved otherwise.

    compare.py pairs PARENT_ROOT CHANGE_ROOT OUT_DIR [--runs 10] ...
        Alternate runs of two checkouts (the side that runs first
        swaps every pair), then diff them.

Saved runs keep the benchmark's meta line (git_sha, src_digest,
build_type, nproc, workload, seed), and every diff row carries it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900  # the first run of a checkout also builds it


def metric_specs():
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for m in BENCHMARK[kind]:
            specs[m["name"]] = dict(m, kind=kind)
    return specs


def run_once(root, workload, seed, trace, seconds, out_dir):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    path = Path(out_dir) / f"{workload}-trace{trace}-seed{seed}.out"
    path.write_text(proc.stdout)
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    print(f"{path.name}: {status}", file=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])


def load_runs(run_dir):
    """{(workload, trace): {seed: (meta, result)}} of a run directory."""
    runs = {}
    for path in sorted(Path(run_dir).glob("*.out")):
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        meta = next((json.loads(l[5:]) for l in lines
                     if l.startswith("meta ")), None)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{path}: no result line, skipped", file=sys.stderr)
            continue
        if meta is None or not result.get("correct"):
            print(f"{path}: incorrect or unattributed run, skipped",
                  file=sys.stderr)
            continue
        key = (meta["workload"], meta["trace"])
        runs.setdefault(key, {})[meta["seed"]] = (meta, result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, name):
    return {seed: r["metrics"][name]["value"]
            for seed, (_, r) in runs.items() if name in r["metrics"]}


def cmd_collect(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    seconds = args.seconds or BENCHMARK["run_seconds"]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            run_once(args.root, w, seed, args.trace, seconds, out)


def cmd_spread(args):
    specs = metric_specs()
    worst = 0.0
    for (workload, trace), runs in sorted(load_runs(args.run_dir).items()):
        print(f"{workload} (trace {trace}, {len(runs)} runs)")
        for name, spec in specs.items():
            vals = list(values_of(runs, name).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            share = (q3 - q1) / abs(med) if med else 0.0
            bound = spec.get("bound")
            note = ""
            if bound is not None:
                note = f"  bound {bound:.2f}  {share / bound:5.2f}x bound"
                if name != "setup_s":
                    worst = max(worst, share / bound)
            print(f"  {name:42s} median {med:12.6g} {spec['unit']:8s} "
                  f"IQR/median {share:6.3f}{note}")
    print(f"widest end-to-end spread (setup_s aside): {worst:.2f}x its bound")


def diff_rows(parent, change):
    specs = metric_specs()
    rows = []
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        p_meta, c_meta = p_runs[seeds[0]][0], c_runs[seeds[0]][0]
        for name, spec in specs.items():
            pv, cv = values_of(p_runs, name), values_of(c_runs, name)
            common = [s for s in seeds if s in pv and s in cv]
            if not common:
                continue
            sign = 1.0 if spec["better"] == "higher" else -1.0
            wins = sum(sign * (cv[s] - pv[s]) > 0 for s in common)
            losses = sum(sign * (cv[s] - pv[s]) < 0 for s in common)
            p1, pm, p3 = quartiles([pv[s] for s in common])
            c1, cm, c3 = quartiles([cv[s] for s in common])
            gain = sign * (cm - pm)  # > 0: the change is better
            iqr = p3 - p1
            need = 0.9 * len(common)
            bound = spec.get("bound")
            beyond_bound = bound is not None and -gain > bound * abs(pm)
            if wins >= need and gain > iqr:
                label = "improved"
            elif (losses >= need and -gain > iqr) or beyond_bound:
                label = "worse"
            else:
                label = "unresolved"
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name,
                "unit": spec["unit"], "better": spec["better"],
                "bound": bound, "pairs": len(common), "wins": wins,
                "losses": losses, "parent_median": pm,
                "parent_q1": p1, "parent_q3": p3, "change_median": cm,
                "change_q1": c1, "change_q3": c3,
                "delta_share": (cm - pm) / pm if pm else 0.0,
                "label": label, "beyond_bound": beyond_bound,
                "seeds": common,
                "parent": {k: p_meta.get(k) for k in
                           ("git_sha", "src_digest", "build_type", "nproc")},
                "change": {k: c_meta.get(k) for k in
                           ("git_sha", "src_digest", "build_type", "nproc")},
            })
    return rows


def print_rows(rows, as_json):
    if as_json:
        for row in rows:
            print(json.dumps(row))
        return
    for row in rows:
        p, c = row["parent"], row["change"]
        print(f"{row['workload']:15s} {row['metric']:42s} "
              f"{row['parent_median']:11.5g} -> {row['change_median']:11.5g} "
              f"{row['unit']:8s} ({row['delta_share']:+7.2%}) "
              f"wins {row['wins']}/{row['pairs']}  {row['label']}"
              f"{' (beyond bound)' if row['beyond_bound'] else ''}"
              f"  [{p['git_sha']}/{p['src_digest']} -> "
              f"{c['git_sha']}/{c['src_digest']}, {c['build_type']}, "
              f"nproc {c['nproc']}, seeds {row['seeds'][0]}.."
              f"{row['seeds'][-1]}]")


def cmd_diff(args):
    print_rows(diff_rows(load_runs(args.parent_dir),
                         load_runs(args.change_dir)), args.json)


def cmd_pairs(args):
    out = Path(args.out_dir)
    sides = [("parent", args.parent_root), ("change", args.change_root)]
    workloads = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    seconds = args.seconds or BENCHMARK["run_seconds"]
    for n, seed in enumerate(range(args.first_seed,
                                   args.first_seed + args.runs)):
        order = sides if n % 2 == 0 else sides[::-1]
        for w in workloads:
            for side, root in order:
                (out / side).mkdir(parents=True, exist_ok=True)
                run_once(root, w, seed, args.trace, seconds, out / side)
    print_rows(diff_rows(load_runs(out / "parent"),
                         load_runs(out / "change")), args.json)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def run_options(p):
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--workloads", nargs="*")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--seconds", type=float)

    p = sub.add_parser("collect")
    p.add_argument("out_dir")
    p.add_argument("--root", default=str(HERE.parent))
    run_options(p)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("spread")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("diff")
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("pairs")
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("out_dir")
    p.add_argument("--json", action="store_true")
    run_options(p)
    p.set_defaults(func=cmd_pairs)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
