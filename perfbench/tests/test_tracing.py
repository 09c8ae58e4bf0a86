"""Self-time arithmetic of the tracer and the per-layer derivations."""

import json
import pathlib

import pytest

import layers
import run
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_spans_split_into_self_times():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        tracer.span("tcp.api", leaf, (), {})
        clock.now += 1.0

    def outer():
        clock.now += 3.0
        tracer.span("node.send", middle, (), {})
        tracer.span("crypto.hmac", leaf, (), {})

    tracer.span("link.send", outer, (), {})  # 3 + (2+1+1) + 1 = 8 s
    clock.now += 0.5
    tracer.span("crypto.hmac", leaf, (), {})  # a second top-level span

    assert tracer.self_s == pytest.approx(
        {"link.send": 3.0, "node.send": 3.0, "tcp.api": 1.0, "crypto.hmac": 2.0})
    assert tracer.calls == {"link.send": 1, "node.send": 1, "tcp.api": 1,
                            "crypto.hmac": 2}
    assert tracer.covered == pytest.approx(9.0)

    part = tracer.export(wall_s=12.0)  # 3 s of the run were outside spans
    assert part["self_s"]["sim.loop"] == pytest.approx(3.0)
    per_layer = tracing.layer_self_s(part["self_s"])
    assert per_layer["sim"] == pytest.approx(3.0)
    assert per_layer["link"] == pytest.approx(3.0)
    assert per_layer["crypto"] == pytest.approx(2.0)
    assert set(per_layer) == set(tracing.LAYERS)
    # Layer self times plus sim.self_s account for the traced wall time.
    assert sum(per_layer.values()) == pytest.approx(12.0)


def test_span_closes_when_the_callee_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 2.0
        raise ValueError("x")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            tracer.span("hip.verify", boom, (), {})

    tracer.span("node.receive", outer, (), {})
    assert tracer.self_s == pytest.approx({"node.receive": 1.0, "hip.verify": 2.0})
    assert tracer.covered == pytest.approx(3.0)


def test_merge_adds_processes():
    coordinator = {"wall_s": 5.0, "self_s": {"shard.window": 4.0, "sim.loop": 1.0},
                   "calls": {"shard.window": 3}, "advance_s": {}, "shard_cpu_s": {}}
    worker = {"wall_s": 2.0, "self_s": {"sim.advance": 0.5, "link.send": 1.5},
              "calls": {"link.send": 7}, "advance_s": {"z0": [1.0, 1.0]},
              "shard_cpu_s": {"z0": 1.9}, "counters": {"sim.steps": 11}}
    merged = tracing.merge([coordinator, worker])
    assert merged["wall_s"] == 7.0
    assert sum(merged["self_s"].values()) == pytest.approx(merged["wall_s"])
    assert merged["counters"] == {"sim.steps": 11}
    assert merged["advance_s"] == {"z0": [1.0, 1.0]}


def test_shard_metrics_critical_path_and_imbalance():
    traced = {"advance_s": {"z0": [1.0, 3.0, 1.0], "z1": [2.0, 1.0, 1.0]},
              "self_s": {"shard.codec": 0.25}, "shard_cpu_s": {"z0": 5.5, "z1": 4.5}}
    sync = {"windows": 3, "envelopes_routed": 6, "window_wall_s": 7.0}
    got = layers.shard_metrics(traced, sync)
    assert got["shard.critical_path_s"] == 6.0  # 2 + 3 + 1
    assert got["shard.barrier_s"] == 1.0
    assert got["shard.imbalance"] == pytest.approx(6.0 / 4.5)
    assert got["shard.envelopes_per_window"] == 2.0
    assert got["shard.codec_s"] == 0.25
    assert got["shard.worker_cpu_s"] == 5.5


@pytest.mark.parametrize("module,layer", [
    ("repro.sim.engine", "sim"), ("repro.sim.events", "sim"),
    ("repro.sim.shard", "shard"), ("repro.net.link", "link"),
    ("repro.net.tcp", "tcp"), ("repro.net.node", "node"),
    ("repro.net.routing", "node"), ("repro.cloud.hypervisor", "node"),
    ("repro.hip.esp", "hip"), ("repro.crypto.aes", "crypto"),
    ("repro.tls.vpn", "tls"), ("repro.apps.proxy", "apps"),
    ("repro.scenarios.rubis_scale", "apps"), ("workloads", "apps"), (None, "apps"),
])
def test_layer_of_module(module, layer):
    assert tracing.layer_of_module(module) == layer


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def _fake_record(digest: str) -> dict:
    return {"workload": "bulk_ipv4", "seed": 7, "mode": None, "trace": 0,
            "setup_s": 0.5, "timed_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 30.0,
            "setup_wall_s": 0.5, "timed_wall_s": 2.0, "cpu_host_s": 2.0,
            "host_speed": {"setup": 1.0, "timed": 1.0},
            "attempted": 20, "completed": 20, "failed": 0, "digest": digest,
            "errors": [], "result": {}, "facts": {},
            "load_before": (0.0, 0.0, 0.0), "load_after": (0.0, 0.0, 0.0)}


def test_failed_check_counts_every_op_as_failed(monkeypatch):
    # The second repetition of the seed disagrees on the digest.
    digests = iter(["a" * 64, "b" * 64, "a" * 64])
    monkeypatch.setattr(run, "_rep", lambda *a, **kw: _fake_record(next(digests)))
    metrics, records, errors = run.run_workload("bulk_ipv4", 7, 1.0, 0, {})
    assert len(records) == 2  # the seed's input, twice
    assert errors and "disagree" in errors[0]
    assert metrics["ok_op_frac"] == {"value": 0.0, "unit": "ratio"}


def test_end_to_end_rates_are_totals_over_repetitions():
    records = [_fake_record("a" * 64) for _ in range(3)]
    for record, timed, setup in zip(records, (1.0, 2.0, 7.0), (0.5, 0.9, 0.4)):
        record["timed_s"] = record["cpu_s"] = timed
        record["setup_s"] = setup
    got = run.end_to_end(records)
    assert got["ops_per_s"] == 6.0  # 60 ops in 10 s
    assert got["cpu_ms_per_op"] == pytest.approx(1e4 / 60)
    assert got["setup_s"] == 0.5
    assert got["ok_op_frac"] == 1.0


def test_scale_runs_time_four_inputs_and_repeat_the_first(monkeypatch):
    seeds = []

    def fake_rep(env, deadline, workload, seed, **kw):
        seeds.append(seed)
        return _fake_record("a" * 64) | {"seed": seed, "workload": workload}

    monkeypatch.setattr(run, "_rep", fake_rep)
    _metrics, _records, errors = run.run_workload("scale_sharded", 7, 1.0, 0, {})
    assert errors == []
    inputs = run.input_seeds("scale_sharded", 7)
    assert inputs[0] == 7 and len(set(inputs)) == 4
    assert inputs == run.input_seeds("scale_sharded", 7)  # fixed by the seed
    assert seeds == inputs + inputs[:1]
    assert run.input_seeds("rubis_hip", 7) == [7]
