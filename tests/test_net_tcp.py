"""TCP behaviour tests: handshake, transfer, loss recovery, flow control."""

import pytest

from repro.net.addresses import ipv4
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet, UDPHeader, VirtualPayload
from repro.net.tcp import DEFAULT_MSS, TcpError, TcpStack
from repro.net.topology import lan_pair
from repro.sim import RngStreams, Simulator

A, B = ipv4("10.0.0.1"), ipv4("10.0.0.2")


@pytest.fixture
def stacks(sim):
    a, b = lan_pair(sim, "a", "b")
    return sim, TcpStack(a), TcpStack(b)


def echo_server(sim, tcp, port=80, nbytes=5):
    def server():
        listener = tcp.listen(port)
        conn = yield listener.accept()
        data = yield from conn.recv_bytes(nbytes)
        conn.write(bytes(reversed(bytes(data))))
        conn.close()

    return sim.process(server())


class TestHandshakeAndData:
    def test_three_way_handshake_and_echo(self, stacks):
        sim, ta, tb = stacks
        echo_server(sim, tb)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            assert conn.state == "ESTABLISHED"
            conn.write(b"hello")
            reply = yield from conn.recv_bytes(5)
            return reply

        proc = sim.process(client())
        assert sim.run(until=proc) == b"olleh"

    def test_connect_refused_gets_rst(self, stacks):
        sim, ta, tb = stacks

        def client():
            conn = ta.connect(B, 9999)  # nothing listening
            with pytest.raises(TcpError):
                yield conn.established
            return conn.state

        proc = sim.process(client())
        assert sim.run(until=proc) == "CLOSED"

    @pytest.mark.parametrize(
        "headers", [(), (UDPHeader(1, 80),)], ids=["header-less", "udp-in-tcp-slot"]
    )
    def test_forged_packet_with_malformed_header_dropped(self, stacks, headers):
        """A forged ``tcp`` packet with no TCP header is counted and dropped;
        the stack survives to serve the next real connection."""
        sim, ta, tb = stacks
        echo_server(sim, tb)
        ta.node.send_ip(B, "tcp", Packet(headers=headers))
        sim.run(until=sim.now + 1)
        assert tb.rx_dropped == 1
        assert tb.rx_unmatched == 0

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(b"hello")
            reply = yield from conn.recv_bytes(5)
            return reply

        proc = sim.process(client())
        assert sim.run(until=proc) == b"olleh"

    def test_large_real_transfer_integrity(self, stacks):
        sim, ta, tb = stacks
        blob = bytes(range(256)) * 40  # 10240 bytes, spans many segments
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(len(blob))

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(blob)
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run(until=5)
        assert got["data"] == blob

    def test_many_small_writes_preserve_order(self, stacks):
        sim, ta, tb = stacks
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(300)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            for i in range(100):
                conn.write(bytes([i % 256]) * 3)

        sim.process(server())
        sim.process(client())
        sim.run(until=5)
        expected = b"".join(bytes([i % 256]) * 3 for i in range(100))
        assert got["data"] == expected

    def test_mixed_real_and_virtual_stream(self, stacks):
        sim, ta, tb = stacks
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            head = yield from conn.recv_bytes(4)
            body = yield from conn.recv_bytes(10_000)
            tail = yield from conn.recv_bytes(4)
            got.update(head=head, body=body, tail=tail)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(b"HEAD")
            conn.write(VirtualPayload(10_000))
            conn.write(b"TAIL")

        sim.process(server())
        sim.process(client())
        sim.run(until=10)
        assert got["head"] == b"HEAD"
        assert isinstance(got["body"], VirtualPayload) and len(got["body"]) == 10_000
        assert got["tail"] == b"TAIL"

    def test_bidirectional_simultaneous_transfer(self, stacks):
        sim, ta, tb = stacks
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            conn.write(b"S" * 4000)
            got["at_b"] = yield from conn.recv_bytes(4000)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(b"C" * 4000)
            got["at_a"] = yield from conn.recv_bytes(4000)

        sim.process(server())
        sim.process(client())
        sim.run(until=10)
        assert got["at_b"] == b"C" * 4000
        assert got["at_a"] == b"S" * 4000

    def test_fin_teardown_both_ways(self, stacks):
        sim, ta, tb = stacks
        states = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            eof = yield conn.recv()
            assert eof == b""
            conn.close()
            yield conn.closed
            states["server"] = conn.state

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.close()
            yield conn.closed
            states["client"] = conn.state

        sim.process(server())
        sim.process(client())
        sim.run(until=10)
        assert states == {"server": "CLOSED", "client": "CLOSED"}

    def test_abort_resets_peer(self, stacks):
        sim, ta, tb = stacks
        result = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            result["err"] = yield conn.closed

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            yield sim.timeout(0.01)
            conn.abort()

        sim.process(server())
        sim.process(client())
        sim.run(until=5)
        assert isinstance(result["err"], TcpError)

    def test_delack_timer_cancelled_on_teardown(self, stacks):
        """Regression: a pending delayed-ACK TimerHandle must not survive
        teardown (it kept the closed connection live on the heap and fired
        into it after close)."""
        sim, ta, tb = stacks
        holder = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            holder["conn"] = conn
            yield conn.closed

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(b"x")  # a lone segment arms the receiver's delack
            yield sim.timeout(0.01)  # < DELACK_TIMEOUT: still pending
            conn.abort()  # RST tears the peer down with the timer armed
            yield sim.timeout(0.01)

        sim.process(server())
        proc = sim.process(client())
        sim.run(until=proc)
        sconn = holder["conn"]
        assert sconn.state == "CLOSED"
        handle = sconn._delack_handle
        assert handle is None or not handle.active
        assert not sconn._delack_timer_armed

    def test_write_after_close_rejected(self, stacks):
        sim, ta, tb = stacks
        echo_server(sim, tb)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.close()
            with pytest.raises(TcpError):
                conn.write(b"late")
            return True

        proc = sim.process(client())
        assert sim.run(until=proc) is True

    def test_duplicate_listen_rejected(self, stacks):
        _sim, _ta, tb = stacks
        tb.listen(80)
        with pytest.raises(OSError):
            tb.listen(80)

    def test_concurrent_connections_demuxed(self, stacks):
        sim, ta, tb = stacks
        got = []

        def server():
            listener = tb.listen(80)
            while True:
                conn = yield listener.accept()
                sim.process(serve_one(conn))

        def serve_one(conn):
            data = yield from conn.recv_bytes(2)
            got.append(bytes(data))
            conn.write(data)

        def client(tag):
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(tag)
            reply = yield from conn.recv_bytes(2)
            assert reply == tag

        sim.process(server())
        for i in range(5):
            sim.process(client(b"%02d" % i))
        sim.run(until=5)
        assert sorted(got) == [b"%02d" % i for i in range(5)]


class TestLossRecovery:
    def _lossy_pair(self, sim, loss_rate):
        rng = RngStreams(17).stream("loss")
        a = Node(sim, "a")
        b = Node(sim, "b")
        link = Link(sim, bandwidth_bps=50e6, delay_s=2e-3,
                    loss_rate=loss_rate, loss_rng=rng)
        ia = a.add_interface("eth0", A)
        ib = b.add_interface("eth0", B)
        link.connect(ia, ib)
        from repro.net.addresses import prefix

        a.routes.add(prefix("10.0.0.0/24"), ia)
        b.routes.add(prefix("10.0.0.0/24"), ib)
        return TcpStack(a), TcpStack(b)

    def test_transfer_completes_despite_loss(self, sim):
        ta, tb = self._lossy_pair(sim, loss_rate=0.03)
        blob_len = 200_000
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(blob_len)
            got["retx_seen"] = True

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(VirtualPayload(blob_len))
            got["conn"] = conn

        sim.process(server())
        sim.process(client())
        sim.run(until=120)
        assert len(got["data"]) == blob_len
        assert got["conn"].segments_retransmitted > 0

    def test_real_bytes_survive_loss(self, sim):
        ta, tb = self._lossy_pair(sim, loss_rate=0.05)
        blob = bytes(i % 251 for i in range(30_000))
        got = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            got["data"] = yield from conn.recv_bytes(len(blob))

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(blob)

        sim.process(server())
        sim.process(client())
        sim.run(until=120)
        assert got["data"] == blob  # bit-exact despite drops and retransmits

    def test_rto_backoff_eventually_gives_up(self, sim):
        """100% loss after SYN: the connection must fail, not hang forever."""
        ta, tb = self._lossy_pair(sim, loss_rate=0.999999)

        def client():
            conn = ta.connect(B, 80)
            with pytest.raises(TcpError):
                yield conn.established
            return True

        proc = sim.process(client())
        assert sim.run(until=proc) is True


class TestCongestionAndFlow:
    def test_throughput_tracks_bottleneck_bandwidth(self, sim):
        a, b = lan_pair(sim, "a", "b", bandwidth_bps=20e6, delay_s=1e-3)
        ta, tb = TcpStack(a), TcpStack(b)
        out = {}
        nbytes = 3_000_000

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            t0 = None
            total = 0
            while total < nbytes:
                chunk = yield conn.recv()
                if t0 is None:
                    t0 = sim.now
                total += len(chunk)
            out["mbps"] = total * 8 / (sim.now - t0) / 1e6

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(VirtualPayload(nbytes))

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        assert 14 < out["mbps"] <= 20.2

    def test_receiver_window_limits_throughput(self, sim):
        # High bandwidth, noticeable RTT: window/RTT should bind.
        a, b = lan_pair(sim, "a", "b", bandwidth_bps=1e9, delay_s=5e-3)
        ta, tb = TcpStack(a), TcpStack(b)
        window = 20_000  # bytes; RTT ~10.2 ms -> ~15.7 Mbit/s ceiling
        out = {}

        def server():
            listener = tb.listen(80, recv_window=window)
            conn = yield listener.accept()
            t0 = None
            total = 0
            while total < 2_000_000:
                chunk = yield conn.recv()
                if t0 is None:
                    t0 = sim.now
                total += len(chunk)
            out["mbps"] = total * 8 / (sim.now - t0) / 1e6

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conn.write(VirtualPayload(2_000_000))

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        expected_ceiling = window * 8 / 0.0102 / 1e6
        assert out["mbps"] < expected_ceiling * 1.1
        assert out["mbps"] > expected_ceiling * 0.5

    def test_slow_start_grows_cwnd(self, stacks):
        sim, ta, tb = stacks

        def sink():
            listener = tb.listen(80)
            conn = yield listener.accept()
            while True:
                chunk = yield conn.recv()
                if isinstance(chunk, bytes) and not chunk:
                    return

        sim.process(sink())

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            start_cwnd = conn.cwnd
            conn.write(VirtualPayload(100_000))
            yield sim.timeout(1.0)
            return start_cwnd, conn.cwnd

        proc = sim.process(client())
        start, end = sim.run(until=proc)
        assert end > start * 4

    def test_mss_respected(self, stacks):
        sim, ta, tb = stacks
        sizes = []

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            total = 0
            while total < 50_000:
                chunk = yield conn.recv()
                sizes.append(len(chunk))
                total += len(chunk)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80, mss=500))
            conn.write(VirtualPayload(50_000))

        sim.process(server())
        sim.process(client())
        sim.run(until=30)
        assert max(sizes) <= 500


class TestRegressionBugfixes:
    """Failing-before/passing-after tests for the Reno-era latent bugs."""

    def test_bidirectional_transfer_no_spurious_retransmits(self, stacks):
        """The peer's data segments repeat ``ack == snd_una`` while our own
        data is in flight; the old dup-ACK classification counted them and
        fired spurious fast retransmits on a loss-free link."""
        sim, ta, tb = stacks
        conns = {}

        def server():
            listener = tb.listen(80)
            conn = yield listener.accept()
            conns["b"] = conn
            conn.write(VirtualPayload(500_000))
            yield from conn.recv_bytes(500_000)

        def client():
            conn = yield sim.process(ta.open_connection(B, 80))
            conns["a"] = conn
            conn.write(VirtualPayload(500_000))
            yield from conn.recv_bytes(500_000)

        sim.process(server())
        sim.process(client())
        sim.run(until=60)
        for conn in conns.values():
            assert conn.segments_retransmitted == 0
            assert conn.fast_recoveries == 0

    def test_ephemeral_wrap_skips_port_in_use(self, stacks):
        sim, ta, tb = stacks
        tb.listen(80)
        first = ta.connect(B, 80)
        sim.run(until=1)
        assert first.state == "ESTABLISHED"
        # Force the allocator to wrap straight onto the live port.
        ta._next_ephemeral = first.local_port
        second = ta.connect(B, 80)
        assert second.local_port != first.local_port
        # The original connection's demux entry must be intact.
        key = ta._key(first.local_port, B, 80)
        assert ta._connections[key] is first

    def test_ephemeral_exhaustion_raises(self, stacks):
        _sim, ta, _tb = stacks
        ta._local_ports = {p: 1 for p in range(33000, 65536)}
        with pytest.raises(TcpError, match="exhausted"):
            ta._alloc_ephemeral()

    def test_port_released_after_close(self, stacks):
        sim, ta, tb = stacks

        def server():
            listener = tb.listen(80)
            sconn = yield listener.accept()
            sconn.close()

        sim.process(server())
        conn = ta.connect(B, 80)
        sim.run(until=1)
        port = conn.local_port
        assert ta._local_ports.get(port) == 1
        conn.close()
        sim.run(until=5)
        assert conn.state == "CLOSED"
        assert port not in ta._local_ports

    def _rst_probe(self, sim, flags, seq=0, ack=0, payload=b""):
        """Send a crafted segment at a closed port; return the RST reply."""
        from repro.net.addresses import prefix
        from repro.net.packet import Packet, TCPHeader

        a = Node(sim, "a")
        b = Node(sim, "b")
        link = Link(sim, bandwidth_bps=1e9, delay_s=1e-3)
        ia = a.add_interface("eth0", A)
        ib = b.add_interface("eth0", B)
        link.connect(ia, ib)
        a.routes.add(prefix("10.0.0.0/24"), ia)
        b.routes.add(prefix("10.0.0.0/24"), ib)
        TcpStack(a)  # closed-port stack that must emit the RST
        replies = []
        b.register_protocol(
            "tcp", lambda n, p, i: replies.append(p.find(TCPHeader))
        )
        hdr = TCPHeader(src_port=5555, dst_port=9999, seq=seq, ack=ack,
                        flags=frozenset(flags))
        b.send_ip(A, "tcp", Packet(headers=(hdr,), payload=payload), src=B)
        sim.run(until=1)
        assert len(replies) == 1
        return replies[0]

    def test_rst_to_ack_segment_uses_its_ack_as_seq(self, sim):
        rst = self._rst_probe(sim, {"ACK"}, seq=42, ack=777)
        assert rst.flags == frozenset({"RST"})
        assert rst.seq == 777  # RFC 793: seq taken from the offending ACK
        assert rst.ack == 0

    def test_rst_to_ackless_segment_acks_it_from_seq_zero(self, sim):
        """Old code used tcp.ack (garbage 0) as the RST seq even when the
        segment carried no ACK; RFC 793 wants seq=0, ack=seq+len, ACK set."""
        rst = self._rst_probe(sim, set(), seq=100, payload=b"hello")
        assert rst.flags == frozenset({"RST", "ACK"})
        assert rst.seq == 0
        assert rst.ack == 105  # seq + payload length

    def test_rst_to_ackless_fin_counts_the_fin(self, sim):
        rst = self._rst_probe(sim, {"FIN"}, seq=200)
        assert rst.flags == frozenset({"RST", "ACK"})
        assert rst.ack == 201  # FIN occupies one sequence number

    def _established_receiver(self, stacks):
        sim, ta, tb = stacks
        tb.listen(80)
        conn = ta.connect(B, 80)
        sim.run(until=1)
        assert conn.state == "ESTABLISHED"
        return sim, conn

    def _inject(self, conn, seq, payload, fin=False):
        from repro.net.packet import TCPHeader

        flags = frozenset({"ACK", "FIN"}) if fin else frozenset({"ACK"})
        hdr = TCPHeader(src_port=80, dst_port=conn.local_port,
                        seq=seq, ack=conn.snd_nxt, flags=flags)
        conn._on_segment(hdr, payload)

    def test_partial_overlap_trimmed_to_rcv_nxt(self, stacks):
        """A segment straddling rcv_nxt must contribute only its new bytes;
        the old code re-delivered the overlap, double-counting the stream."""
        sim, conn = self._established_receiver(stacks)
        self._inject(conn, 1, b"A" * 100)    # rcv_nxt -> 101
        self._inject(conn, 51, b"B" * 100)   # bytes 51-100 already delivered
        assert conn.rcv_nxt == 151
        assert conn.bytes_received == 150    # not 200

        def drain():
            data = yield from conn.recv_bytes(150)
            return bytes(data)

        proc = sim.process(drain())
        assert sim.run(until=proc) == b"A" * 100 + b"B" * 50

    def test_fully_stale_segment_reacked_not_redelivered(self, stacks):
        _sim, conn = self._established_receiver(stacks)
        self._inject(conn, 1, b"A" * 100)
        before = conn.bytes_received
        self._inject(conn, 1, b"A" * 100)  # exact duplicate
        self._inject(conn, 21, b"A" * 50)  # fully within delivered data
        assert conn.bytes_received == before
        assert conn.rcv_nxt == 101

    def test_overlapping_ooo_block_trimmed_on_pull(self, stacks):
        sim, conn = self._established_receiver(stacks)
        self._inject(conn, 1, b"A" * 100)    # in order: rcv_nxt -> 101
        self._inject(conn, 201, b"C" * 100)  # gap: buffered out of order
        self._inject(conn, 101, b"B" * 150)  # fills gap, overlaps C by 50
        assert conn.rcv_nxt == 301
        assert conn.bytes_received == 300
        assert not conn.ooo

        def drain():
            data = yield from conn.recv_bytes(300)
            return bytes(data)

        proc = sim.process(drain())
        assert sim.run(until=proc) == b"A" * 100 + b"B" * 150 + b"C" * 50

    def test_stale_ooo_block_dropped_on_pull(self, stacks):
        _sim, conn = self._established_receiver(stacks)
        self._inject(conn, 151, b"X" * 50)   # ooo block 151-201
        self._inject(conn, 1, b"A" * 250)    # covers it entirely
        assert conn.rcv_nxt == 251
        assert conn.bytes_received == 250    # stale block contributed nothing
        assert not conn.ooo
