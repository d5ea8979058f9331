#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per (workload, seed), from the repository
root, and summarises each end-to-end metric the way the acceptance rule
does: the median of the runs, their quartiles from
statistics.quantiles(values, n=4), and the quartile distance as a share of
the median, against the metric's bound.

    python3 perfbench/steady.py run --seeds 1-10 --out set1.json [--workloads a,b] [--trace 0]
    python3 perfbench/steady.py compare set1.json set2.json
    python3 perfbench/steady.py table set1.json set2.json   # Markdown
    python3 perfbench/steady.py digest

A set file records what it measured: the git commit of the checkout, the
`git status --porcelain` lines at the start of the set, and `source_digest`,
a SHA-256 over the files that decide what the benchmark measures (see
MEASURED below). `digest` prints that digest for the current tree, so a
set can be matched to the code it ran.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The files whose content decides what a run measures: the benchmark's
# spec, its build files, its sources and this script. The library crates
# are covered by the git commit (and the status lines show if they differ).
MEASURED = ["BENCHMARK.json", "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/steady.py"]
MEASURED_DIRS = ["perfbench/src"]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest():
    files = list(MEASURED)
    for d in MEASURED_DIRS:
        files += sorted(str(p.relative_to(ROOT)) for p in (ROOT / d).rglob("*") if p.is_file())
    h = hashlib.sha256()
    for f in files:
        data = (ROOT / f).read_bytes()
        h.update(f"{f}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    header = json.loads(lines[-2])["header"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)
    return {"seed": seed, "wall_s": wall, "header": header, "result": result}


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return {"median": centre, "q1": q1, "q3": q3, "spread": (q3 - q1) / centre if centre else None}


def summary(runs, bench, trace):
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {}
    for workload, rs in runs.items():
        out[workload] = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in rs]
            s = summarise(values) if len(values) >= 2 else {"median": values[0]}
            s["values"] = values
            s["bound"] = bounds.get(name)
            out[workload][name] = s
    return out


def cmd_run(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    provenance = {
        "git_commit": git("rev-parse", "HEAD"),
        "git_status": (git("status", "--porcelain") or "").splitlines(),
        "source_digest": source_digest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    runs = {w: [] for w in workloads}
    # Workload by workload, as "ten runs on each workload" reads.
    for w in workloads:
        for seed in seeds_of(args.seeds):
            r = run_once(bench, w, seed, args.trace)
            runs[w].append(r)
            res = r["result"]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w:13s} seed={seed:<8d} correct={res['correct']} failed={res['failed']} "
                  f"wall={r['wall_s']:.1f}s {shown}", flush=True)
    if source_digest() != provenance["source_digest"]:
        sys.exit("the measured files changed while the set ran")
    provenance["ended_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    summ = summary(runs, bench, args.trace)
    incorrect = sum(1 for rs in runs.values() for r in rs
                    if not r["result"]["correct"] or r["result"]["failed"])
    report = {**provenance, "run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": seeds_of(args.seeds), "incorrect_runs": incorrect, "summary": summ, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print_summary(summ)
    print(f"incorrect or failed runs: {incorrect}; source digest {provenance['source_digest']}")


def print_summary(summ):
    for w, metrics in summ.items():
        for name, s in metrics.items():
            if "q1" not in s:
                continue
            bound = s["bound"]
            spread = s["spread"]
            flag = ""
            if bound is not None and spread is not None and name != "setup_s":
                flag = "OK" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            print(f"{w:13s} {name:14s} median={s['median']:<10.5g} q1={s['q1']:<10.5g} q3={s['q3']:<10.5g} "
                  f"spread={spread if spread is None else round(spread, 4)} bound={bound} {flag}")


def cmd_compare(args):
    a = json.loads(Path(args.first).read_text())["summary"]
    b = json.loads(Path(args.second).read_text())["summary"]
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    for w in a:
        for name, s in a[w].items():
            if w not in b or name not in b[w] or s.get("bound") is None:
                continue
            m1, m2 = s["median"], b[w][name]["median"]
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            verdict = "OK" if worse <= s["bound"] else "WORSE THAN BOUND"
            print(f"{w:13s} {name:14s} median1={m1:<10.5g} median2={m2:<10.5g} "
                  f"worse_by={worse:+.4f} bound={s['bound']} {verdict}")


def cmd_table(args):
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    fmt = lambda v: f"{v:.4g}"
    for name, s in (("Set 1", a), ("Set 2", b)):
        print(f"{name}: seeds {s['seeds'][0]}-{s['seeds'][-1]}, {s['run_seconds']} s per run, "
              f"{s['started_utc']} to {s['ended_utc']}, commit {s['git_commit']}, "
              f"source digest {s['source_digest']}, incorrect or failed runs: {s['incorrect_runs']}.\n")
    print("| workload | metric | bound | set 1 median [q1, q3] | spread 1 | set 2 median [q1, q3] | spread 2 | set 2 worse by |")
    print("|---|---|---|---|---|---|---|---|")
    for w, metrics in a["summary"].items():
        for name, s1 in metrics.items():
            s2 = b["summary"][w][name]
            m1, m2 = s1["median"], s2["median"]
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            print(f"| {w} | {name} | {s1['bound']} | {fmt(m1)} [{fmt(s1['q1'])}, {fmt(s1['q3'])}] | "
                  f"{s1['spread']:.3f} | {fmt(m2)} [{fmt(s2['q1'])}, {fmt(s2['q3'])}] | {s2['spread']:.3f} | "
                  f"{worse:+.3f} |")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    r.add_argument("--workloads", default="")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    t = sub.add_parser("table")
    t.add_argument("first")
    t.add_argument("second")
    sub.add_parser("digest")
    args = p.parse_args()
    if args.cmd == "digest":
        print(source_digest())
        return
    {"run": cmd_run, "compare": cmd_compare, "table": cmd_table}[args.cmd](args)


if __name__ == "__main__":
    main()
