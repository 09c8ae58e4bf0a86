"""ECN congestion signals survive ESP / SSL-VPN encapsulation (RFC 6040).

A RED-style marking link sets the CE bit on the *outer* tunnel packet; the
decapsulating daemon must copy it to the rebuilt inner packet so the
tunneled TCP flow echoes ECE and reduces cwnd.  Without the copy, a
tunneled NewReno flow is blind to marking bottlenecks and only reacts to
tail drops.
"""

import random

from repro.crypto.rsa import RsaKeyPair
from repro.hip.daemon import HipDaemon
from repro.net.addresses import IPAddress, ipv4
from repro.net.icmp import IcmpStack, ping
from repro.net.link import WIRE_TAPS
from repro.net.packet import VirtualPayload
from repro.net.tcp import TcpStack
from repro.net.topology import lan_pair
from repro.tls.vpn import VPN_SUBNET, SslVpnDaemon

N_BYTES = 400_000
PORT = 8080

# A 10 Mbit/s bottleneck with an early marking threshold: the bulk flow's
# window overruns the queue and collects CE marks well before tail drop.
LINK_KW = dict(bandwidth_bps=10e6, delay_s=0.005, ecn_threshold=8)


def _run_bulk(sim, tcp_sender, tcp_receiver, dst_addr):
    """The receiver dials ``dst_addr`` and the accepting side pushes
    N_BYTES back; returns sender-side conn and delivered byte count."""
    out = {"conn": None, "received": 0}
    listener = tcp_sender.listen(PORT)

    def sender():
        conn = yield listener.accept()
        out["conn"] = conn
        conn.write(VirtualPayload(N_BYTES, tag="bulk"))

    def receiver():
        conn = yield sim.process(tcp_receiver.open_connection(dst_addr, PORT))
        while out["received"] < N_BYTES:
            chunk = yield conn.rx.get()
            if not chunk:
                break
            out["received"] += len(chunk)

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=60)
    return out


def test_ce_mark_crosses_esp_tunnel(sim, session_identities):
    a, b = lan_pair(sim, "a", "b", **LINK_KW)
    da = HipDaemon(a, session_identities["a"], rng=random.Random(11))
    db = HipDaemon(b, session_identities["b"], rng=random.Random(22))
    da.add_peer(db.hit, [ipv4("10.0.0.2")])
    db.add_peer(da.hit, [ipv4("10.0.0.1")])
    ta, tb = TcpStack(a), TcpStack(b)
    # Receiver a dials b's LSI: the bulk data rides ESP b -> a through the
    # marking bottleneck, so CE lands on outer ESP packets only.
    out = _run_bulk(sim, tb, ta, da.lsi_for_peer(db.hit))
    assert out["received"] == N_BYTES
    assert out["conn"].ecn_reductions >= 1


def test_esp_wire_packets_do_not_share_meta(sim, session_identities):
    """A link marks CE by writing ``packet.meta`` in place, so each ESP wire
    packet needs a meta dict of its own: one dict shared between packets
    would spread a single mark to every packet holding it."""
    a, b = lan_pair(sim, "a", "b")
    da = HipDaemon(a, session_identities["a"], rng=random.Random(11))
    db = HipDaemon(b, session_identities["b"], rng=random.Random(22))
    da.add_peer(db.hit, [ipv4("10.0.0.2")])
    db.add_peer(da.hit, [ipv4("10.0.0.1")])
    icmp_a, _ = IcmpStack(a), IcmpStack(b)
    wire = []

    def tap(packet):
        if packet.headers and getattr(packet.headers[0], "proto", None) == "esp":
            wire.append(packet)

    WIRE_TAPS.append(tap)
    try:
        for dst in (db.hit, da.lsi_for_peer(db.hit)):
            proc = sim.process(ping(icmp_a, dst, count=2, interval=0.01, timeout=5.0))
            assert all(r is not None for r in sim.run(until=proc))
    finally:
        WIRE_TAPS.remove(tap)
    assert len(wire) == 8  # 2 echoes + 2 replies, over the HIT and the LSI
    assert len({id(p.meta) for p in wire}) == len(wire)
    assert {p.meta["addr_kind"] for p in wire} == {"hit", "lsi"}


def test_ce_mark_crosses_vpn_tunnel(sim):
    gen = random.Random(31)
    key_a, key_b = RsaKeyPair.generate(512, gen), RsaKeyPair.generate(512, gen)
    a, b = lan_pair(sim, "a", "b", **LINK_KW)

    def vpn_addr(n):
        return IPAddress(4, VPN_SUBNET.network.value + n)

    va = SslVpnDaemon(a, vpn_addr(10), key_a, rng=random.Random(1))
    vb = SslVpnDaemon(b, vpn_addr(11), key_b, rng=random.Random(2))
    va.add_peer(vpn_addr(11), ipv4("10.0.0.2"), key_b.public)
    vb.add_peer(vpn_addr(10), ipv4("10.0.0.1"), key_a.public)
    ta, tb = TcpStack(a), TcpStack(b)
    out = _run_bulk(sim, tb, ta, vpn_addr(11))
    assert out["received"] == N_BYTES
    assert out["conn"].ecn_reductions >= 1


def test_plain_flow_on_marking_link_also_reduces(sim):
    # Control: the same bottleneck without a tunnel marks the TCP packets
    # directly — the tunnel tests above must match this behaviour.
    a, b = lan_pair(sim, "a", "b", **LINK_KW)
    ta, tb = TcpStack(a), TcpStack(b)
    out = _run_bulk(sim, tb, ta, ipv4("10.0.0.2"))
    assert out["received"] == N_BYTES
    assert out["conn"].ecn_reductions >= 1
