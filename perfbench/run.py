"""gspace benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gspace is imported from its `src/`.
A closed loop with one client: each pass is a fresh interpreter running the
workload's operations one after another, and passes run one at a time until
S seconds have elapsed (at least two). Set-up is measured once per pass and
in extra set-up-only interpreters, and reported as a median. With
`--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with times rescaled to a reference host speed (see
one_pass.probe); with `--trace 1` untraced and traced passes alternate and it
carries the per-layer metrics plus the tracing overhead. The line before it
records the seed, machine facts and every pass; the same record is written
to perfbench/out/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170          # every run must end within 180 s
MIN_PASSES = 2
SETUP_PROBES = 7           # set-up-only interpreters per run, besides the passes
# A fixed string-hash seed, so that set and dict layouts repeat from pass to pass.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_facts() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in read_text("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(workload: str, seed: int, extra: list[str], timeout: float) -> dict:
    """Run one child interpreter; its last stdout line is a JSON object."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--spawn-ns", str(time.monotonic_ns()), *extra]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=CHILD_ENV) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        finally:
            if proc.poll() is None:     # timed out or interrupted: stop the child
                proc.kill()
                proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": "no JSON result line"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so spawn() stops its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gspace" / "__init__.py").is_file():
        print(f"error: no gspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    t_begin = time.monotonic()
    facts = machine_facts()
    facts["loadavg_start"] = read_text("/proc/loadavg").strip()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # A first interpreter compiles bytecode; it is not measured.
    warm = spawn(args.workload, args.seed, ["--setup-only"], RUN_LIMIT_S)
    if "error" in warm:
        print(f"error: set-up failed: {warm['error']}", file=sys.stderr)
        return 2

    modes = [False, True] if args.trace else [False]
    passes: list[dict] = []
    while True:
        elapsed = time.monotonic() - t_begin
        done = len(passes) >= MIN_PASSES and elapsed >= args.seconds
        longest = max((p.get("wall_s", 0) + 1 for p in passes), default=0)
        if done or (passes and elapsed + 1.5 * longest > RUN_LIMIT_S - 10):
            break
        traced = modes[len(passes) % len(modes)]
        extra = []
        if traced:
            extra = ["--trace", "--spans-out", str(out_dir / f"{tag}-pass{len(passes)}.npz")]
        res = spawn(args.workload, args.seed, extra, RUN_LIMIT_S - elapsed)
        res["traced"] = traced
        passes.append(res)
        if "error" in res:
            break

    setups = [p for p in passes if "setup_s" in p]
    for _ in range(SETUP_PROBES):
        if time.monotonic() - t_begin > RUN_LIMIT_S - 5:
            break
        probe = spawn(args.workload, args.seed, ["--setup-only"], 5)
        if "setup_s" in probe:
            setups.append(probe)

    plain = [p for p in passes if not p["traced"] and "error" not in p]
    traced = [p for p in passes if p["traced"] and "error" not in p]
    attempted = sum(p.get("attempted", 1) for p in passes)
    failed = sum(p.get("failed", 1) if "error" not in p else 1 for p in passes)
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)

    def med(key, rows):
        vals = [r[key] for r in rows if key in r]
        return statistics.median(vals) if vals else 0.0

    def pass_time(rows, times="op_ref_s", cli_only=False):
        """Sum over operations of each operation's median time across passes."""
        names = {n for r in rows for n in (r["cli_ops"] if cli_only else r[times])}
        return sum(med(n, [r[times] for r in rows]) for n in names)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: med(m["name"], [p["metrics"] for p in traced])
                  for m in wanted}
        base = pass_time(plain)
        values["trace.overhead_s"] = pass_time(traced) - base
        values["trace.overhead_ratio"] = values["trace.overhead_s"] / base if base else 0.0
        values["host.wall_s"] = pass_time(plain, "op_s")
        values["host.cli_s"] = pass_time(plain, "op_s", cli_only=True)
        values["host.setup_s"] = med("setup_s", setups)
        values["host.probe_ms"] = 1e3 * statistics.median(
            [x for p in plain for x in p["probes"]] or [0.0])
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_ref_s": pass_time(plain),
            "setup_s": med("setup_ref_s", setups),
            "peak_rss_mb": med("peak_rss_mb", plain),
            "cli_ref_s": pass_time(plain, cli_only=True),
            "ok_ratio": 1 - failed / attempted if attempted else 0.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    facts["loadavg_end"] = read_text("/proc/loadavg").strip()
    facts["numpy"] = next((p["numpy"] for p in passes if "numpy" in p), None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "run_s": time.monotonic() - t_begin,
        "setup_samples": [(p["setup_s"], p["setup_ref_s"]) for p in setups],
        "passes": passes,
        "closed_loop": "one client, one pass at a time, one operation at a time",
        "fail_base": f"{failed} failed of {attempted} attempted operations",
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for p in passes:
        for line in p.get("failures", [])[:10] + ([p["error"]] if "error" in p else []):
            print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "passes"}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
