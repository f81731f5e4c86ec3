#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py all --seed 1 --seconds 10
    python3 perfbench/run.py compare BASE.json NEW.json

Run from the repository root.  The first form builds `cdr-serve` and the
benchmark (offline, release profile, into $CARGO_TARGET_DIR or
`.bench_build`), runs one workload and passes its output through; the
last stdout line is the JSON result.  `--out FILE` also saves the result
with the host fingerprint.  `all` runs every workload untraced and traced.
`compare` checks NEW against BASE with the bounds in BENCHMARK.json and
marks the verdict advisory when the two host fingerprints differ.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["churn", "sensors", "ingest"]
# After a build that compiled anything, wait this long before measuring:
# on the shared 2-core reference host the runs right after a compile's CPU
# burst were repeatedly the slowest of their set.
SETTLE_AFTER_COMPILE_S = 60


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.abspath(".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    base = ["cargo", "build", "--offline", "--release", "--manifest-path", MANIFEST]
    compiled = False
    for extra in (["-p", "cdr-server", "--bin", "cdr-serve"], []):
        done = subprocess.run(base + extra, env=env, stdout=sys.stderr, stderr=subprocess.PIPE, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed ({' '.join(base + extra)})")
        compiled |= "Compiling " in done.stderr
    if compiled:
        print(f"run.py: settling {SETTLE_AFTER_COMPILE_S} s after compiling", file=sys.stderr)
        time.sleep(SETTLE_AFTER_COMPILE_S)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "cdr-perfbench"), os.path.join(release, "cdr-serve")


def run_one(argv, out=None):
    bench, serve = build()
    proc = subprocess.Popen([bench, *argv, "--bin", serve], stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        lines.append(line.strip())
    code = proc.wait()
    if code != 0 or not lines:
        sys.exit(code or 1)
    if out:
        fingerprint = next(
            (json.loads(l[len("fingerprint "):]) for l in lines if l.startswith("fingerprint ")), {}
        )
        with open(out, "w") as f:
            json.dump({"argv": argv, "fingerprint": fingerprint, "result": json.loads(lines[-1])}, f, indent=1)
    return code


def compare(base_path, new_path):
    spec = json.load(open("BENCHMARK.json"))
    base, new = json.load(open(base_path)), json.load(open(new_path))
    advisory = base["fingerprint"] != new["fingerprint"]
    if advisory:
        print("ADVISORY: host fingerprints differ; this comparison does not gate")
        for key in sorted(set(base["fingerprint"]) | set(new["fingerprint"])):
            a, b = base["fingerprint"].get(key), new["fingerprint"].get(key)
            if a != b:
                print(f"  {key}: {a!r} -> {b!r}")
    worse = []
    for metric in spec["end_to_end"] + spec["per_layer"]:
        name = metric["name"]
        a = base["result"]["metrics"].get(name, {}).get("value")
        b = new["result"]["metrics"].get(name, {}).get("value")
        if a is None or b is None:
            continue
        change = (b - a) / a if a else 0.0
        if metric["better"] == "higher":
            change = -change
        bound = metric.get("bound")
        flag = "WORSE" if bound is not None and change > bound else ""
        if flag:
            worse.append(name)
        print(f"  {name:<28} {a:>14.4f} -> {b:>14.4f}  {100 * change:+7.1f}% {flag}")
    if worse and not advisory:
        print("FAIL: " + ", ".join(worse))
        return 1
    print("advisory" if advisory else "PASS")
    return 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"] and len(argv) == 3:
        sys.exit(compare(argv[1], argv[2]))
    out = None
    if "--out" in argv:
        i = argv.index("--out")
        out = argv[i + 1]
        del argv[i : i + 2]
    if argv[:1] == ["all"]:
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                run_one(["--workload", workload, *argv[1:], "--trace", trace])
        return
    sys.exit(run_one(argv, out))


if __name__ == "__main__":
    main()
