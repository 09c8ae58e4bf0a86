"""Golden replay digests: the dataplane's traced event stream, pinned.

Each scenario below runs under the flight recorder and its event stream is
digested.  The (event count, digest) pairs were recorded when the simulator
still carried two engines — the callback-lane fast path and a reference
engine of generator processes, per-packet delivery processes and uncached
lookups — and both produced the identical stream.  The reference engine is
gone; these pins keep its verdict.  They are the referee for every dataplane
optimization: one that reorders, drops or duplicates a traced event splits
a digest.
"""

import functools

import pytest

from repro.analysis.replay import assert_replay_deterministic, record_run


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
    ACKs, selective retransmission, RTO fallback)."""
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
    CE/ECE/CWR echo."""
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
    enter, exit and re-enter events — and every segment around them."""
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


#: Golden (event count, digest) of each scenario, recorded where the fast
#: path and the reference engine both ran and agreed.  The ``*_across_modes``
#: test names below keep that provenance: each asserts the one dataplane
#: still reproduces the stream both engine modes agreed on.
PINNED_DIGESTS = {
    "iperf": (4194, "22c92f69a5f4247272319e3221e1e3a6fc3b2c56be3cf2ee2c92952aa2b80a37"),
    "rubis_basic": (8924, "b65a0ee86d1e9c3fc855960f5fdad4c137505416c7181a8c9708e344490fc8fc"),
    "lossy": (1558, "b2527bb182006b72ffa6c66493369ec7049c3b49617850400133cecea6393048"),
    "paced_ecn": (709, "607e5f18aa2b07c5eb5bf4c4483c36448c059c9994a35fe747f6a0afbf2bcb66"),
    "fluid": (864, "a53119ee6a70cca33ca1e18512bab18d52c41e3f6d836cc161d65eec86901d08"),
}


def assert_pinned(scenario, name):
    run = record_run(scenario, keep_events=False)
    assert (run.n_events, run.digest) == PINNED_DIGESTS[name]


def test_iperf_trace_digest_equal_across_modes():
    assert_pinned(iperf_scenario, "iperf")


@pytest.mark.smoke
def test_rubis_trace_digest_equal_across_modes():
    assert_pinned(rubis_scenario, "rubis_basic")


#: Golden (event count, digest) of ``rubis_scenario`` over HIP BEET-ESP and
#: over the SSL-VPN: a rewrite of the tunnel dataplane must leave every
#: traced event as it was.
PINNED_RUBIS_DIGESTS = {
    "hip": (10185, "175d98ae0602634fde4cf6fd3ec4ff2c9394c74345cfe89542af8f6194a22f4a"),
    "ssl": (7998, "3cd7acec7a8db9621a687b4430e5023f079f5106c50ffb519e94ec64e5a79f71"),
}


@pytest.mark.parametrize("security", sorted(PINNED_RUBIS_DIGESTS))
def test_rubis_tunnel_trace_digest_pinned(security):
    run = record_run(functools.partial(rubis_scenario, security), keep_events=False)
    assert (run.n_events, run.digest) == PINNED_RUBIS_DIGESTS[security]


def test_lossy_link_trace_digest_equal_across_modes():
    """NewReno+SACK recovery under 1% loss traces as pinned."""
    assert_pinned(lossy_iperf_scenario, "lossy")


def test_paced_ecn_trace_digest_equal_across_modes():
    """Pacing timers + ECN echo (marks, reductions, tx) trace as pinned."""
    assert_pinned(paced_ecn_scenario, "paced_ecn")


def test_fluid_trace_digest_equal_across_modes():
    """Fluid enter/exit/re-enter (probe, jump, disturbance) traces as
    pinned."""
    assert_pinned(fluid_bulk_scenario, "fluid")


def test_iperf_fast_mode_replay_deterministic():
    """The dataplane is also self-deterministic: two runs, identical stream."""
    report = assert_replay_deterministic(iperf_scenario)
    assert report.runs[0].n_events > 1000
