"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition pays
the imports, the deployment build and the key generation a user would pay,
and no repetition inherits another's caches.  It prints one JSON object as
its last line of output.

An untraced repetition reports its set-up, timed and CPU seconds in
reference seconds (``hostclock.py``), which stay steady while the shared
host's speed swings, and its wall and CPU seconds beside them.  A traced
repetition does not sample the host's speed, whose handler would run inside
the spans, and reports host seconds.

    python3 perfbench/rep.py --workload rubis_hip --seed 42 --trace 0 \
        --spawned <time.monotonic() when the parent started this process>
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import time

import hostclock

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _counters() -> dict[str, int]:
    from repro.metrics import METRICS

    return {c.name: c.value for c in METRICS.counters()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped shard
    # workers, the largest of them.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", default="process", help="scale_sharded: process|inline|mono")
    ap.add_argument("--size", type=float, default=1.0)
    ap.add_argument("--spawned", type=float, default=None,
                    help="time.monotonic() at which the parent spawned this process")
    args = ap.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    clock = None if args.trace else hostclock.HostClock()
    if clock is not None:
        clock.start()

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    import_s = time.perf_counter() - t_import

    tracer = None
    dump_dir = None
    if args.trace:
        # Forked shard workers write their trace aggregates here.
        dump_dir = str(ROOT / ".perfbench" / f"dump-{os.getpid()}")
        os.makedirs(dump_dir, exist_ok=True)
        tracer = tracing.Tracer()
        tracing.install(tracer, dump_dir=dump_dir)

    t_build = time.perf_counter()
    job = workloads.prepare(args.workload, args.seed, size=args.size, mode=args.mode)
    build_s = time.perf_counter() - t_build
    # Crypto during set-up is key generation (RSA host keys, DH keys).
    keygen_s = None
    if tracer is not None:
        keygen_s = tracing.layer_self_s(tracer.self_s)["crypto"]
    t_warm = time.perf_counter()
    job.warm_up()
    warmup_s = time.perf_counter() - t_warm

    # -- timed phase --------------------------------------------------------
    counters0 = _counters()
    if tracer is not None:
        tracer.reset()
    setup_lap = clock.lap() if clock is not None else None
    setup_wall_s = time.monotonic() - spawned
    cpu0 = _cpu_s()
    start = time.perf_counter()
    outcome = job.run()
    timed_wall_s = time.perf_counter() - start
    timed_lap = clock.lap() if clock is not None else None
    cpu_host_s = _cpu_s() - cpu0
    counters1 = _counters()
    setup_s, timed_s, cpu_s, speed = setup_wall_s, timed_wall_s, cpu_host_s, None
    if clock is not None:
        clock.stop()
        setup_wall_s -= setup_lap.sampling_s
        timed_wall_s = timed_lap.wall_s
        cpu_host_s -= timed_lap.sampling_s
        # Interpreter start, before the clock ran, at the set-up's speed.
        setup_s = setup_lap.ref_s(setup_wall_s)
        timed_s = timed_lap.ref_s()
        cpu_s = timed_lap.ref_s(cpu_host_s)
        speed = {"setup": setup_lap.speed, "timed": timed_lap.speed}

    record: dict = {
        "workload": args.workload, "seed": args.seed,
        "mode": args.mode if args.workload == "scale_sharded" else None,
        "trace": args.trace, "size": args.size,
        "setup_s": setup_s, "import_s": import_s, "build_s": build_s,
        "keygen_s": keygen_s, "warmup_s": warmup_s, "timed_s": timed_s, "cpu_s": cpu_s,
        "setup_wall_s": setup_wall_s, "timed_wall_s": timed_wall_s,
        "cpu_host_s": cpu_host_s, "host_speed": speed,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": outcome.attempted, "completed": outcome.completed,
        "failed": outcome.failed, "digest": outcome.digest,
        "errors": outcome.errors, "result": outcome.result, "facts": outcome.facts,
        "counters": counters1,
        "counter_deltas": {k: v - counters0.get(k, 0) for k, v in counters1.items()},
    }
    sharded = job.sharded
    if sharded is not None:
        record["sync"] = {
            "windows": sharded.windows,
            "envelopes_routed": sharded.envelopes_routed,
            "window_wall_s": sharded.window_wall_s,
        }
    if tracer is not None:
        tracing.uninstall()
        parts = [tracer.export(timed_wall_s)] + tracing.read_worker_dumps(dump_dir)
        record["traced"] = tracing.merge(parts)
        record["traced"]["processes"] = len(parts)
        os.rmdir(dump_dir)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
