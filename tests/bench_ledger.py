#!/usr/bin/env python3
"""The benchmark ledger: `BENCH_<workload>.json` at the repository root.

Each file is a JSON list of records, append-only. A record is one run
of the unchanged benchmark command

    cargo run --release --offline --manifest-path perfbench/Cargo.toml \\
        -- --workload W --seed S --seconds T

in a checkout of some revision, with

* `pr`: the change the run was taken for (an integer);
* `rev`: the checkout's commit, with `+` appended when the run was
  taken on uncommitted source atop it (a change measured before the
  commit that carries its records);
* `role`: `anchor` (a reference set at a parent revision), `parent` or
  `change` (the two sides of a change's alternated pairs);
* `seed`, `seconds`;
* `threads` (CPUs the process may run on), `cores` (physical cores)
  and `avx512ifma` (whether the CPU has the lane kernel's extension);
* `result`: the run's last stdout line, one JSON object with `correct`,
  `attempted`, `failed` and `metrics`;
* `digest`: the report digest the same stdout prints on its
  `failed_share` row (16 hex digits). Records appended before the field
  existed lack it; the files are append-only, so `--check` accepts them.

    python3 tests/bench_ledger.py run --checkout DIR --pr N --role ROLE \\
        --workload W --seed S [--seconds T]     # run once, append
    python3 tests/bench_ledger.py summary [--pr N]  # medians and IQR
    python3 tests/bench_ledger.py --check       # schema and roles; exit 1 if bad

`summary` prints, per (PR, role, workload, seed), the run count, the
distinct digests and the median [first quartile, third quartile] of
every end-to-end metric. `--check` also fails when two records of one
`rev`, workload and seed disagree on the digest: one source tree runs
one seeded market. Standard library only.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
ROLES = ("anchor", "parent", "change")
WORKLOADS = ("imagenet_market", "micro_market", "durable_market", "lossy_net_market")
END_TO_END = ("hits_per_s", "setup_s", "peak_rss_mb", "settle_latency_blocks_p90", "gas_per_hit")
FIELDS = {
    "pr": int,
    "rev": str,
    "role": str,
    "workload": str,
    "seed": int,
    "seconds": (int, float),
    "threads": int,
    "cores": int,
    "avx512ifma": bool,
    "result": dict,
}
OPTIONAL = {"digest": str}


def ledger_path(workload):
    return ROOT / ("BENCH_%s.json" % workload)


def load(workload):
    path = ledger_path(workload)
    return json.loads(path.read_text()) if path.exists() else []


def cpuinfo():
    """(physical cores, whether the CPU has avx512ifma) from /proc/cpuinfo."""
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return os.cpu_count() or 1, False
    cores, physical, flags = set(), None, ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "physical id":
            physical = value
        elif key == "core id":
            cores.add((physical, value))
        elif key == "flags" and not flags:
            flags = value
    return len(cores) or os.cpu_count() or 1, "avx512ifma" in flags.split()


def run(args):
    opts = parse(
        args, {"--checkout", "--rev", "--pr", "--role", "--workload", "--seed", "--seconds"}
    )
    if opts.get("--role") not in ROLES or opts.get("--workload") not in WORKLOADS:
        fail("run needs --role in %s and --workload in %s" % (ROLES, WORKLOADS))
    checkout = pathlib.Path(opts.get("--checkout", ROOT))
    seconds = float(opts.get("--seconds", 25))
    seconds = int(seconds) if seconds.is_integer() else seconds
    command = [
        "cargo", "run", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml",
        "--", "--workload", opts["--workload"], "--seed", opts["--seed"], "--seconds", str(seconds),
    ]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("no output from %s:\n%s" % (" ".join(command), out.stderr))
    rev = opts.get("--rev") or checkout_rev(checkout)
    cores, ifma = cpuinfo()
    record = {
        "pr": int(opts["--pr"]),
        "rev": rev,
        "role": opts["--role"],
        "workload": opts["--workload"],
        "seed": int(opts["--seed"]),
        "seconds": seconds,
        "threads": len(os.sched_getaffinity(0)),
        "cores": cores,
        "avx512ifma": ifma,
        "result": json.loads(lines[-1]),
    }
    digest = report_digest(lines)
    if digest:
        record["digest"] = digest
    records = load(opts["--workload"]) + [record]
    ledger_path(opts["--workload"]).write_text(json.dumps(records, indent=1) + "\n")
    metrics = record["result"]["metrics"]
    print(
        "%s %s seed %d: hits_per_s %s, failed %d"
        % (record["role"], record["workload"], record["seed"],
           metrics.get("hits_per_s", {}).get("value"), record["result"]["failed"])
    )
    return out.returncode


def report_digest(lines):
    """The `digest` token of the `failed_share` row, or None."""
    for line in lines:
        words = line.split()
        if "failed_share" in words and "digest" in words[:-1]:
            return words[words.index("digest") + 1]
    return None


def is_digest(value):
    return isinstance(value, str) and len(value) == 16 and all(c in "0123456789abcdef" for c in value)


def checkout_rev(checkout):
    """HEAD of the checkout, with `+` appended when the tracked source
    differs from it (a change measured before its commit)."""
    git = lambda *a: subprocess.run(["git", *a], cwd=checkout, capture_output=True, text=True)
    head = git("rev-parse", "HEAD").stdout.strip()
    if not head:
        fail("%s is not a git checkout; pass --rev" % checkout)
    dirty = git("diff", "--quiet", "HEAD", "--", "crates", "perfbench", "Cargo.toml", "Cargo.lock")
    return head + ("+" if dirty.returncode else "")


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(args):
    opts = parse(args, {"--pr"})
    groups = {}
    for workload in WORKLOADS:
        for r in load(workload):
            if "--pr" in opts and r["pr"] != int(opts["--pr"]):
                continue
            groups.setdefault((r["pr"], r["role"], workload, r["seed"]), []).append(r)
    for (pr, role, workload, seed), records in sorted(groups.items()):
        failed = sum(r["result"]["failed"] for r in records)
        digests = sorted({r["digest"] for r in records if "digest" in r}) or ["-"]
        print("PR %d %-6s %-16s seed %-3d runs %2d failed %d digest %s"
              % (pr, role, workload, seed, len(records), failed, " ".join(digests)))
        for name in END_TO_END:
            values = [r["result"]["metrics"][name]["value"] for r in records
                      if name in r["result"]["metrics"]]
            if values:
                q1, median, q3 = quartiles(values)
                print("    %-26s %.6g [%.6g, %.6g]" % (name, median, q1, q3))
    return 0


def check():
    problems = ["%s: missing" % ledger_path(w).name for w in WORKLOADS if not ledger_path(w).exists()]
    for path in sorted(ROOT.glob("BENCH_*.json")):
        workload = path.stem[len("BENCH_"):]
        if workload not in WORKLOADS:
            problems.append("%s: no such workload" % path.name)
        try:
            records = json.loads(path.read_text())
        except ValueError as e:
            problems.append("%s: not JSON (%s)" % (path.name, e))
            continue
        if not isinstance(records, list):
            problems.append("%s: not a list of records" % path.name)
            continue
        digests = {}
        for i, r in enumerate(records):
            where = "%s[%d]" % (path.name, i)
            if not isinstance(r, dict) or not set(FIELDS) <= set(r) <= set(FIELDS) | set(OPTIONAL):
                problems.append("%s: keys must be %s, optionally %s" % (where, sorted(FIELDS), sorted(OPTIONAL)))
                continue
            for key, kind in FIELDS.items():
                if not isinstance(r[key], kind) or (kind is int and isinstance(r[key], bool)):
                    problems.append("%s: %s is not %s" % (where, key, kind))
            if "digest" in r:
                if not is_digest(r["digest"]):
                    problems.append("%s: digest %r is not 16 hex digits" % (where, r["digest"]))
                key = (r["rev"], r["seed"])
                first = digests.setdefault(key, (r["digest"], where))
                if first[0] != r["digest"]:
                    problems.append("%s: digest %s at rev %s seed %d, but %s has %s"
                                    % (where, r["digest"], r["rev"], r["seed"], first[1], first[0]))
            if r["role"] not in ROLES:
                problems.append("%s: role %r not in %s" % (where, r["role"], ROLES))
            if r["workload"] != workload:
                problems.append("%s: workload %r in the wrong file" % (where, r["workload"]))
            result = r["result"]
            if not {"correct", "attempted", "failed", "metrics"} <= set(result):
                problems.append("%s: result lacks correct/attempted/failed/metrics" % where)
            elif not all(isinstance(m, dict) and "value" in m for m in result["metrics"].values()):
                problems.append("%s: a metric has no value" % where)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def parse(args, allowed):
    if len(args) % 2:
        fail("options come in pairs: %s" % args)
    opts = dict(zip(args[::2], args[1::2]))
    unknown = set(opts) - allowed
    if unknown:
        fail("unknown options %s" % sorted(unknown))
    return opts


def fail(message):
    sys.stderr.write(message + "\n")
    sys.exit(2)


def main(argv):
    if argv[1:] == ["--check"]:
        return check()
    if len(argv) >= 2 and argv[1] == "run":
        return run(argv[2:])
    if len(argv) >= 2 and argv[1] == "summary":
        return summary(argv[2:])
    fail(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
