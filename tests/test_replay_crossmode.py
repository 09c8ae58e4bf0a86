"""Cross-mode replay equivalence: fast path vs reference engine.

The engine/dataplane fast path (callback-lane timers, cached lookups, fused
packet construction) must be *observationally invisible*: the flight-recorder
event stream of a scenario run on the fast path must digest identically to
the same scenario on the retained reference path (generator processes,
per-packet delivery processes, uncached lookups).  These tests are the
referee for every fast-path optimization — if one reorders, drops, or
duplicates a traced event, the digests split.
"""

import functools

import pytest

import repro.sim.engine as engine
from repro.analysis.replay import assert_replay_deterministic, record_run


@pytest.fixture
def each_mode():
    """Yield a runner that records a scenario once per engine mode."""
    saved = engine.DEFAULT_FAST_PATH

    def run_both(scenario):
        runs = {}
        for fast in (False, True):
            engine.DEFAULT_FAST_PATH = fast
            runs[fast] = record_run(scenario, keep_events=False)
        return runs

    try:
        yield run_both
    finally:
        engine.DEFAULT_FAST_PATH = saved


def iperf_scenario():
    from repro.apps.iperf import run_iperf
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim.engine import Simulator

    sim = Simulator()
    node_a, node_b = lan_pair(sim)
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)

    def main():
        result = yield from run_iperf(tcp_b, tcp_a, node_b.addresses()[0], 2_000_000)
        assert result.bytes_received == 2_000_000

    sim.process(main())
    sim.run()
    sim.close()


def lossy_iperf_scenario():
    """Bulk transfer over a 1%-loss 50 ms-RTT link: exercises the whole
    NewReno+SACK machine (dup-ACK classification, fast recovery, partial
    ACKs, selective retransmission, RTO fallback) in both engine modes."""
    from repro.apps.iperf import run_iperf
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim import RngStreams
    from repro.sim.engine import Simulator

    sim = Simulator()
    rngs = RngStreams(2024)
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=20e6, delay_s=0.025,
        loss_rate=0.01, loss_rng=rngs.stream("loss"),
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)

    def main():
        result = yield from run_iperf(tcp_b, tcp_a, node_b.addresses()[0], 500_000)
        assert result.bytes_received == 500_000

    sim.process(main())
    sim.run(until=120)
    sim.close()


def paced_ecn_scenario():
    """Paced sender through an ECN-marking bottleneck: the pacing timers and
    CE/ECE/CWR echo must behave identically in both engine modes."""
    from repro.net.packet import VirtualPayload
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim.engine import Simulator

    sim = Simulator()
    node_a, node_b = lan_pair(
        sim, bandwidth_bps=10e6, delay_s=0.005, ecn_threshold=8,
    )
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)

    def server():
        listener = tcp_b.listen(5001)
        conn = yield listener.accept()
        total = 0
        while total < 300_000:
            chunk = yield conn.recv()
            total += len(chunk)

    def client():
        conn = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], 5001, pacing=True)
        )
        conn.write(VirtualPayload(300_000))

    sim.process(server())
    sim.process(client())
    sim.run(until=60)
    sim.close()


def fluid_bulk_scenario():
    """Bulk transfer through the fluid fast-forward, including a forced
    mid-flight disturbance (competing flow) and re-entry: the probe,
    enter, exit and re-enter events — and every segment around them —
    must trace identically in both engine modes."""
    from repro.net.packet import VirtualPayload
    from repro.net.tcp import TcpStack
    from repro.net.topology import lan_pair
    from repro.sim.engine import Simulator

    n_bytes = 2_000_000
    sim = Simulator()
    node_a, node_b = lan_pair(sim, delay_s=0.02)
    tcp_a, tcp_b = TcpStack(node_a), TcpStack(node_b)
    listener = tcp_b.listen(5001, fluid=True)

    def server():
        conn = yield listener.accept()
        yield conn.rx.get()
        conn.write(VirtualPayload(n_bytes, tag="bulk"))
        while True:
            chunk = yield conn.rx.get()
            if not chunk:
                break
        conn.close()
        assert conn.fluid_enters >= 2  # disturbed once, re-entered

    def client():
        conn = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], 5001, recv_window=65536)
        )
        conn.write(b"go")
        got = 0
        while got < n_bytes:
            chunk = yield conn.rx.get()
            got += len(chunk)
        conn.close()
        while True:
            chunk = yield conn.rx.get()
            if not chunk:
                break

    def competing():
        yield sim.timeout(0.6)
        side = tcp_b.listen(5002)

        def sink():
            conn2 = yield side.accept()
            yield conn2.rx.get()

        sim.process(sink())
        conn2 = yield sim.process(
            tcp_a.open_connection(node_b.addresses()[0], 5002)
        )
        conn2.write(b"disturbance")

    sim.process(server())
    sim.process(client())
    sim.process(competing())
    sim.run(until=60)
    sim.close()


def rubis_scenario(security="basic"):
    from repro.apps.workload import ClosedLoopClients
    from repro.scenarios.rubis_cloud import FRONTEND_PORT, build_rubis_cloud

    dep = build_rubis_cloud(seed=7, security=security, n_web=1, extra_tenants=0)
    clients = ClosedLoopClients(
        dep.client_node, dep.client_tcp, dep.frontend_addr, FRONTEND_PORT,
        n_clients=2, rng=dep.rngs.stream("replay-smoke"),
        timeout=2.0, warmup=0.2,
    )
    proc = dep.sim.process(clients.run(1.0))
    dep.sim.run(until=proc)
    dep.sim.close()


def test_iperf_trace_digest_equal_across_modes(each_mode):
    runs = each_mode(iperf_scenario)
    assert runs[False].n_events == runs[True].n_events
    assert runs[False].digest == runs[True].digest
    assert runs[False].n_events > 1000  # the tap really saw the transfer


@pytest.mark.smoke
def test_rubis_trace_digest_equal_across_modes(each_mode):
    runs = each_mode(rubis_scenario)
    assert runs[False].n_events == runs[True].n_events
    assert runs[False].digest == runs[True].digest
    assert runs[False].n_events > 1000


#: Golden fast-mode (event count, digest) of ``rubis_scenario`` over HIP
#: BEET-ESP and over the SSL-VPN.  Cross-mode equality alone cannot catch a
#: shared-path change (the ESP and VPN workers run identically in both
#: engine modes), so these pin the traced stream itself: a rewrite of the
#: tunnel dataplane must leave every traced event as it was.
PINNED_RUBIS_DIGESTS = {
    "hip": (10185, "175d98ae0602634fde4cf6fd3ec4ff2c9394c74345cfe89542af8f6194a22f4a"),
    "ssl": (7998, "3cd7acec7a8db9621a687b4430e5023f079f5106c50ffb519e94ec64e5a79f71"),
}


@pytest.mark.parametrize("security", sorted(PINNED_RUBIS_DIGESTS))
def test_rubis_tunnel_trace_digest_pinned(each_mode, security):
    runs = each_mode(functools.partial(rubis_scenario, security))
    assert runs[False].n_events == runs[True].n_events
    assert runs[False].digest == runs[True].digest
    assert (runs[True].n_events, runs[True].digest) == PINNED_RUBIS_DIGESTS[security]


def test_lossy_link_trace_digest_equal_across_modes(each_mode):
    """NewReno+SACK recovery under 1% loss is engine-mode independent."""
    runs = each_mode(lossy_iperf_scenario)
    assert runs[False].n_events == runs[True].n_events
    assert runs[False].digest == runs[True].digest
    assert runs[False].n_events > 1000


def test_paced_ecn_trace_digest_equal_across_modes(each_mode):
    """Pacing timers + ECN echo digest identically in both modes."""
    runs = each_mode(paced_ecn_scenario)
    assert runs[False].n_events == runs[True].n_events
    assert runs[False].digest == runs[True].digest
    assert runs[False].n_events > 500  # marks, reductions and tx all traced


def test_fluid_trace_digest_equal_across_modes(each_mode):
    """Fluid enter/exit/re-enter (probe, jump, disturbance) digests
    identically on the fast path and the reference engine."""
    runs = each_mode(fluid_bulk_scenario)
    assert runs[False].n_events == runs[True].n_events
    assert runs[False].digest == runs[True].digest
    assert runs[False].n_events > 500


def test_iperf_fast_mode_replay_deterministic():
    """Fast mode is also self-deterministic: two runs, identical stream."""
    saved = engine.DEFAULT_FAST_PATH
    engine.DEFAULT_FAST_PATH = True
    try:
        report = assert_replay_deterministic(iperf_scenario)
        assert report.runs[0].n_events > 1000
    finally:
        engine.DEFAULT_FAST_PATH = saved
