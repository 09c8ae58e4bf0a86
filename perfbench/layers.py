"""Per-layer metrics from one traced repetition.

:func:`per_layer` turns a traced repetition record (see ``rep.py``) into the
named per-layer metrics ``BENCHMARK.json`` lists.  Counts come from the
simulator's ``METRICS`` counters over the timed phase (plus the deltas
forked shard workers ship back) or, where no counter exists, from traced
calls; times are span self times.  A layer that does no work reads zero.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracing import LAYERS, layer_self_s

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("sim.events", "count"), ("sim.self_s", "s"), ("sim.us_per_event", "us"),
    ("link.packets", "count"), ("link.self_s", "s"), ("link.us_per_packet", "us"),
    ("link.queue_drops", "count"),
    ("node.packets", "count"), ("node.self_s", "s"), ("node.us_per_packet", "us"),
    ("tcp.segments", "count"), ("tcp.connects", "count"), ("tcp.retransmits", "count"),
    ("tcp.self_s", "s"), ("tcp.fluid_byte_frac", "ratio"),
    ("hip.esp_packets", "count"), ("hip.bex", "count"), ("hip.self_s", "s"),
    ("hip.us_per_esp_packet", "us"), ("hip.esp_drops", "count"),
    ("crypto.aes_blocks", "count"), ("crypto.hmac_ops", "count"),
    ("crypto.asym_ops", "count"), ("crypto.self_s", "s"),
    ("tls.records", "count"), ("tls.self_s", "s"), ("tls.us_per_record", "us"),
    ("apps.requests", "count"), ("apps.upstream_dials", "count"),
    ("apps.pool_reuse_frac", "ratio"), ("apps.self_s", "s"),
    ("shard.windows", "count"), ("shard.envelopes_per_window", "ratio"),
    ("shard.critical_path_s", "s"), ("shard.barrier_s", "s"), ("shard.codec_s", "s"),
    ("shard.worker_cpu_s", "s"), ("shard.imbalance", "ratio"),
    ("shard.vs_inline", "ratio"), ("shard.vs_mono", "ratio"),
    ("shard.self_s", "s"), ("shard.counters_diverging", "count"),
    ("setup.import_s", "s"), ("setup.build_s", "s"), ("setup.keygen_s", "s"),
    ("setup.warmup_s", "s"),
    ("trace.overhead", "ratio"), ("trace.wall_s", "s"),
)


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def ops_per_s(rep: dict) -> float:
    return rep["completed"] / rep["timed_wall_s"]


def diverging_counters(inline: dict, process: dict) -> list[str]:
    """Counters whose totals differ between an inline and a process run."""
    a, b = inline["counters"], process["counters"]
    return sorted(k for k in set(a) | set(b) if a.get(k, 0) != b.get(k, 0))


def shard_metrics(traced: dict, sync: dict) -> dict[str, float]:
    """The ``shard.*`` timings of a traced sharded run."""
    lanes = [traced["advance_s"][name] for name in sorted(traced["advance_s"])]
    windows = min(len(lane) for lane in lanes)
    critical = sum(max(lane[w] for lane in lanes) for w in range(windows))
    mean_busy = statistics.fmean(sum(lane) for lane in lanes)
    return {
        "shard.windows": sync["windows"],
        "shard.envelopes_per_window": _per(sync["envelopes_routed"], sync["windows"]),
        "shard.critical_path_s": critical,
        "shard.barrier_s": sync["window_wall_s"] - critical,
        "shard.codec_s": traced["self_s"].get("shard.codec", 0.0),
        "shard.worker_cpu_s": max(traced["shard_cpu_s"].values()),
        "shard.imbalance": _per(critical, mean_busy),
    }


def per_layer(traced_rep: dict, untraced: dict, inline: dict | None = None,
              mono: dict | None = None) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a traced repetition and the
    untraced repetitions of the same seed (``inline``/``mono``: the
    sharded workload's twins, absent elsewhere)."""
    traced = traced_rep["traced"]
    counts = Counter(traced_rep["counter_deltas"])
    counts.update(traced["counters"])  # forked workers' share
    calls = traced["calls"]
    self_s = layer_self_s(traced["self_s"])

    esp_packets = counts["esp.packets_protected"] + counts["esp.packets_verified"]
    records = calls.get("tls.handler", 0) + calls.get("tls.shim_consumed", 0)
    reuses, dials = counts["proxy.pool_reuses"], counts["proxy.upstream_dials"]
    facts = traced_rep["facts"]
    out = {
        "sim.events": counts["sim.steps"],
        "link.packets": counts["link.tx_packets"],
        "link.queue_drops": counts["link.queue_drops"],
        "node.packets": calls.get("node.receive", 0),
        "tcp.segments": counts["tcp.segments_sent"],
        "tcp.connects": counts["tcp.connects"],
        "tcp.retransmits": counts["tcp.segments_retransmitted"],
        "tcp.fluid_byte_frac": _per(facts.get("fluid_bytes", 0), facts.get("media_bytes", 0)),
        "hip.esp_packets": esp_packets,
        "hip.bex": counts["hip.bex_completed"],
        "hip.esp_drops": counts["hip.esp_drops"],
        "crypto.aes_blocks": counts["crypto.aes_blocks"],
        "crypto.hmac_ops": counts["crypto.hmac_ops"],
        "crypto.asym_ops": calls.get("crypto.asym", 0),
        "tls.records": records,
        "apps.requests": counts["proxy.requests"],
        "apps.upstream_dials": dials,
        "apps.pool_reuse_frac": _per(reuses, reuses + dials),
        "setup.import_s": traced_rep["import_s"],
        "setup.build_s": traced_rep["build_s"],
        "setup.keygen_s": traced_rep["keygen_s"],
        "setup.warmup_s": traced_rep["warmup_s"],
        "trace.overhead": _per(ops_per_s(untraced), ops_per_s(traced_rep)),
        "trace.wall_s": traced["wall_s"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out["sim.us_per_event"] = _per(self_s["sim"], out["sim.events"], 1e6)
    out["link.us_per_packet"] = _per(self_s["link"], out["link.packets"], 1e6)
    out["node.us_per_packet"] = _per(self_s["node"], out["node.packets"], 1e6)
    out["hip.us_per_esp_packet"] = _per(self_s["hip"], esp_packets, 1e6)
    out["tls.us_per_record"] = _per(self_s["tls"], records, 1e6)
    for name, _unit in PER_LAYER:
        if name.startswith("shard.") and name != "shard.self_s":
            out[name] = 0.0
    if "sync" in traced_rep:
        out.update(shard_metrics(traced, traced_rep["sync"]))
    if inline is not None and mono is not None:
        out["shard.vs_inline"] = _per(ops_per_s(untraced), ops_per_s(inline))
        out["shard.vs_mono"] = _per(ops_per_s(untraced), ops_per_s(mono))
        out["shard.counters_diverging"] = len(diverging_counters(inline, untraced))
    return {name: out[name] for name, _unit in PER_LAYER}
