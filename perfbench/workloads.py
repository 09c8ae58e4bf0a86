"""The benchmark's workloads: fixed simulated inputs, run to completion.

Each workload is built from a seed by :func:`prepare` (the set-up phase:
deployment, key generation, shard-worker fork) and returns a :class:`Job`.
:meth:`Job.warm_up` runs the untimed start of the simulation, if the
workload has one, and :meth:`Job.run` is the timed phase.  ``size``
scales the timed simulated duration or transfer; the benchmark always runs
``size=1``, tests run shorter inputs.

An *op* is what a user of the simulated system gets done:

* ``rubis_hip`` / ``rubis_ssl`` -- one HTTP request completed by a
  simulated client (Figure 2's closed loop, 50 clients, 3 web VMs);
* ``bulk_ipv4`` -- 10**6 bytes of iperf goodput (Figure 3, IPv4 mode);
* ``scale_sharded`` -- one RUBiS session, API or media (the multi-zone
  scale scenario, sharded by zone).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.apps.iperf import run_iperf
from repro.apps.workload import ClosedLoopClients
from repro.cloud.iaas import PublicCloud
from repro.cloud.tenant import SpreadPlacement, Tenant
from repro.metrics import METRICS
from repro.net.tcp import TcpStack
from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud
from repro.scenarios.rubis_scale import (
    ScaleParams,
    build_scale_monolithic,
    scale_builders,
)
from repro.sim import Simulator
from repro.sim.shard import ShardedSimulation

WORKLOADS = ("rubis_hip", "rubis_ssl", "bulk_ipv4", "scale_sharded")

RUBIS_CLIENTS = 50
RUBIS_TIMEOUT_S = 2.0
#: Untimed start of a rubis_* run: the HIP base exchanges or SSL-VPN
#: handshakes and the clients' first wave of requests.  Requests started in
#: it are not counted, as in run_fig2_point's warm-up.
RUBIS_WARMUP_S = 0.6
#: Timed simulated seconds of steady closed-loop load, about 300 requests
#: (5 to 8 s of host time on a 2-core Xeon).
RUBIS_SIM_S = 1.5

#: The transfer is 19 to 21 whole ops (MB), picked by the seed.
BULK_MB = (19, 21)
BULK_OP_BYTES = 1_000_000

#: About 1,400 sessions; shorter runs vary by 10 % in session count from
#: seed to seed.
SCALE_SIM_S = 4.5
SCALE_MODES = ("process", "inline", "mono")

#: Counters that must read zero after every run.
ZERO_COUNTERS = ("esp.auth_failures", "esp.replay_drops", "sim.process_crashes",
                 "hip.esp_drops")


def scale_params() -> ScaleParams:
    return ScaleParams(n_zones=2, n_clients=8, n_filler_vms=40, n_racks=2,
                       hosts_per_rack=2, media_prob=0.05, n_fleets=2)


@dataclass
class Outcome:
    """What one timed phase produced, and whether it was right."""

    attempted: float
    completed: float
    failed: float
    #: SHA-256 over the simulated results; identical for identical seeds.
    digest: str
    #: The simulated results the digest covers (printed with each run).
    result: dict
    #: Failed correctness checks, empty when the run is correct.
    errors: list[str] = field(default_factory=list)
    #: Facts the checks and the per-layer report read (per-zone digest,
    #: media and fluid bytes).
    facts: dict = field(default_factory=dict)


@dataclass
class Job:
    """A built deployment, ready for its timed phase."""

    run: Callable[[], Outcome]
    #: The untimed start of the simulation, run before the timed phase.
    warm_up: Callable[[], None] = lambda: None
    #: The coordinator of a sharded run, whose sync counts the report reads.
    sharded: ShardedSimulation | None = None


def digest_of(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_counters(errors: list[str]) -> None:
    counters = {c.name: c.value for c in METRICS.counters()}
    for name in ZERO_COUNTERS:
        if counters.get(name, 0):
            errors.append(f"{name} = {counters[name]}, expected 0")


def _check_ops(outcome: Outcome) -> Outcome:
    if outcome.attempted != outcome.completed + outcome.failed:
        outcome.errors.append(
            f"attempted {outcome.attempted} != completed {outcome.completed} "
            f"+ failed {outcome.failed}"
        )
    check_counters(outcome.errors)
    return outcome


# --------------------------------------------------------------- rubis_* --

def _prepare_rubis(security: str, seed: int, size: float) -> Job:
    dep = build_rubis_cloud(seed=seed, security=security, cache_enabled=False)
    clients = ClosedLoopClients(
        dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
        n_clients=RUBIS_CLIENTS, rng=dep.rngs.stream("workload"),
        timeout=RUBIS_TIMEOUT_S, warmup=RUBIS_WARMUP_S,
    )
    sim = dep.sim
    done = sim.process(clients.run(RUBIS_SIM_S * size), name="bench-clients")

    def warm_up() -> None:
        sim.run(until=RUBIS_WARMUP_S)

    def run() -> Outcome:
        wl = sim.run(until=done)
        sim.close()
        # The Figure-2 cell as run_fig2_point reports it.
        result = {
            "security": security, "clients": RUBIS_CLIENTS,
            "throughput": wl.throughput, "mean_latency": wl.mean_latency(),
            "successes": wl.successes, "failures": wl.failures,
        }
        return _check_ops(Outcome(
            attempted=len(wl.samples), completed=wl.successes, failed=wl.failures,
            digest=digest_of(result), result=result,
        ))

    return Job(run=run, warm_up=warm_up)


# -------------------------------------------------------------- bulk_ipv4 --

def bulk_bytes(seed: int, size: float) -> int:
    megabytes = random.Random(f"bulk_ipv4:{seed}").randint(*BULK_MB)
    return max(1, round(megabytes * size)) * BULK_OP_BYTES


def _prepare_bulk(seed: int, size: float) -> Job:
    # Figure 3's IPv4 mode: two micros on different hosts, so the path
    # crosses the rack network; the transfer is a VirtualPayload.
    sim = Simulator()
    cloud = PublicCloud(sim)
    cloud.placement = SpreadPlacement()
    tenant = Tenant("bench")
    vm_a = cloud.launch(tenant, "t1.micro", name="iperf-a")
    vm_b = cloud.launch(tenant, "t1.micro", name="iperf-b")
    tcp_a, tcp_b = TcpStack(vm_a), TcpStack(vm_b)
    n_bytes = bulk_bytes(seed, size)

    def run() -> Outcome:
        proc = sim.process(
            run_iperf(tcp_b, tcp_a, vm_b.primary_address, n_bytes=n_bytes),
            name="bench-iperf",
        )
        iperf = sim.run(until=proc)
        sim.close()
        result = {
            "bytes_requested": n_bytes, "bytes_received": iperf.bytes_received,
            "duration": iperf.duration, "first_byte_at": iperf.first_byte_at,
        }
        outcome = Outcome(
            attempted=n_bytes / BULK_OP_BYTES,
            completed=iperf.bytes_received / BULK_OP_BYTES,
            failed=(n_bytes - iperf.bytes_received) / BULK_OP_BYTES,
            digest=digest_of(result), result=result,
        )
        if iperf.bytes_received != n_bytes:
            outcome.errors.append(
                f"received {iperf.bytes_received} bytes of {n_bytes} requested"
            )
        return _check_ops(outcome)

    return Job(run=run)


# ---------------------------------------------------------- scale_sharded --

def _zone_totals(per_zone: dict[str, dict]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for stats in per_zone.values():
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _prepare_scale(seed: int, size: float, mode: str) -> Job:
    params = scale_params()
    until = SCALE_SIM_S * size
    sharded = None
    if mode == "mono":
        sim, zones = build_scale_monolithic(seed, params)
    else:
        sharded = ShardedSimulation(
            scale_builders(params), seed, parallel=(mode == "process")
        )

    def run() -> Outcome:
        if mode == "mono":
            sim.run(until=until)
            per_zone = {f"z{z.index}": z.stats.as_dict() for z in zones}
            sim.close()
            boundary = None
        else:
            per_zone = sharded.run(until)
            boundary = sharded.boundary_digest
        totals = _zone_totals(per_zone)
        # The boundary digest is the sharded runs' own referee; the per-zone
        # stats must match across process, inline and monolithic runs.
        result = {"boundary_digest": boundary, "zones": per_zone}
        facts = {"zones_digest": digest_of(per_zone),
                 "media_bytes": totals["media_bytes"],
                 "fluid_bytes": totals["fluid_bytes"]}
        return _check_ops(Outcome(
            attempted=totals["sessions"] + totals["errors"],
            completed=totals["sessions"], failed=totals["errors"],
            digest=digest_of(result), result=result, facts=facts,
        ))

    return Job(run=run, sharded=sharded)


def prepare(name: str, seed: int, size: float = 1.0, mode: str = "process") -> Job:
    """Build workload ``name`` for ``seed``; the returned job is untimed so far."""
    if name == "rubis_hip":
        return _prepare_rubis("hip", seed, size)
    if name == "rubis_ssl":
        return _prepare_rubis("ssl", seed, size)
    if name == "bulk_ipv4":
        return _prepare_bulk(seed, size)
    if name == "scale_sharded":
        if mode not in SCALE_MODES:
            raise ValueError(f"unknown scale mode {mode!r}")
        return _prepare_scale(seed, size, mode)
    raise ValueError(f"unknown workload {name!r}")
