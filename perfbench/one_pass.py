"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/one_pass.py --workload NAME --seed N --spawn-ns T
                                  [--trace] [--setup-only] [--pin]

`--spawn-ns` is the CLOCK_MONOTONIC time at which the parent spawned this
process, so set-up time covers interpreter start, `import gspace` (with
numpy, click and yaml) and building the workload's groupoids. The pass then
generates its seeded inputs (untimed), runs every operation once, timing
only the operation itself, and checks each output right after it returns.
With `--trace`, spans around gspace's functions give the per-layer metrics.
With `--pin`, outputs are not compared with expected.json; their digests are
returned instead (see pin.py).
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Probe time that defines the reference host speed; see probe().
PROBE_REF_S = 0.020


def probe() -> float:
    """Time a fixed pure-Python kernel: the host's current speed for interpreter work.

    The shared host this benchmark was tuned on swings in speed by up to 2x
    over seconds to minutes. Times are also reported rescaled by
    PROBE_REF_S / probe time, as if the host ran at the reference speed.
    """
    t = time.perf_counter()
    tab = tuple(range(256))
    d = {i: i * 7 for i in range(256)}
    acc = odd = 0
    for i in range(150_000):
        x = tab[i & 255]
        acc += d[x] ^ i
        if acc & 1:
            odd += x
    return time.perf_counter() - t


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import numpy
    import gspace
    import gspace.cli
    if not Path(gspace.__file__).resolve().is_relative_to(src.resolve()):
        print(f"gspace was imported from {gspace.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    groupoids = workloads.build_groupoids(args.workload)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    setup_probes = [probe() for _ in range(3)]
    setup_ref_s = setup_s * PROBE_REF_S / statistics.median(setup_probes)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    expected = json.loads((HERE / "expected.json").read_text())
    pinned = expected.get(args.workload, {})
    digests: dict = {}

    def expect(key: str, digest: dict) -> list[str]:
        digests[key] = digest
        if args.pin:
            return []
        if key not in pinned:
            return ["no pinned digest"]
        return [] if pinned[key] == digest else [f"got {digest}, pinned {pinned[key]}"]

    ops = workloads.WORKLOADS[args.workload](groupoids, args.seed, expect)

    tracer = None
    if args.trace:
        try:
            import gspace._batch  # noqa: F401  -- loaded lazily; import it to wrap it
        except ImportError:
            pass                  # reported as absent by the tracer
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(callers=[workloads])

    probes = setup_probes[-1:]      # then one after every operation
    wall = cli = 0.0
    failed = 0
    failures: list[str] = []
    op_times: dict[str, float] = {}
    for op in ops:
        span_name = (f"cli.{op.verb}" if op.verb
                     else "verify.check" if op.name.startswith("verify.") else f"op.{op.name}")
        try:
            with tracer.span(span_name) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = op.run()
                dt = time.perf_counter() - t0
        except Exception as exc:  # an op that raises is a counted failure
            failed += 1
            failures.append(f"{op.name}: raised {exc!r}")
            continue
        wall += dt
        op_times[op.name] = dt
        if op.verb:
            cli += dt
            if tracer:
                tracer.add("cli.output_bytes", len(result[1].encode()))
        problems = op.check(result)
        if problems:
            failed += 1
            failures += [f"{op.name}: {p}" for p in problems[:5]]
        del result
        if op.release:
            op.release()
        probes.append(probe())

    # The pass's host speed is the median of its probes: one operation can
    # outlast several of the host's phases, so its neighbouring probes alone
    # are a poor estimate.
    scale = PROBE_REF_S / statistics.median(probes)

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": wall,
        "cli_s": cli,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "op_s": op_times,
        "op_ref_s": {name: t * scale for name, t in op_times.items()},
        "cli_ops": [op.name for op in ops if op.verb],
        "probes": probes,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if args.pin:
        out["digests"] = digests
    if tracer:
        out["metrics"] = tracer.metrics()
        out["absent"] = tracer.absent
        out["hook_errors"] = tracer.hook_errors
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
