"""Per-layer span tracing, installed from outside the simulator.

Nothing under ``src/`` knows about this module.  :func:`install` patches the
simulator's public functions and registration points at class or module
level, so every call into a layer runs inside a *span*: a timed region
tagged with the layer that owns the called code.  A span's **self time** is
its duration minus the time its child spans cover; summing self times per
layer attributes every traced second to exactly one layer.

Spans are aggregated in memory (a self time and a call count per
boundary): a traced RUBiS run makes millions of spans, far too many to log.

Only one :class:`Tracer` can be installed per process.  Shard workers are
forked after installation, so each inherits the patches and a copy of the
tracer; :func:`install` makes them write their aggregates to
``dump_dir`` when the shard finishes, where the coordinator picks them up.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

#: Layer names, in report order.  ``sim`` is the engine: its self time also
#: absorbs whatever the timed phase spent outside every span.
LAYERS = ("sim", "link", "node", "tcp", "hip", "crypto", "tls", "apps", "shard")

_NET_LAYERS = {"link": "link", "tcp": "tcp"}
_PKG_LAYERS = {"hip": "hip", "crypto": "crypto", "tls": "tls", "apps": "apps",
               "cloud": "node", "scenarios": "apps"}


def layer_of_module(module: str | None) -> str:
    """The layer that owns code defined in ``module``.

    ``repro.net.link`` and ``repro.net.tcp`` are layers of their own; the
    rest of ``repro.net`` (node, routing, packet, addresses, udp, icmp) and
    the cloud plumbing (hypervisors, VMs) are ``node``.  Scenario code and
    anything outside ``repro`` (the benchmark's own workload code) are
    application code.
    """
    if not module or not module.startswith("repro."):
        return "apps"
    parts = module.split(".")
    pkg = parts[1]
    if pkg == "sim":
        return "shard" if len(parts) > 2 and parts[2] == "shard" else "sim"
    if pkg == "net":
        return _NET_LAYERS.get(parts[2] if len(parts) > 2 else "", "node")
    return _PKG_LAYERS.get(pkg, "sim")


def owner_module(fn: Any) -> str | None:
    """Module that defines the code behind callable ``fn``."""
    fn = getattr(fn, "__func__", fn)  # bound method -> function
    fn = getattr(fn, "func", fn)  # functools.partial -> function
    module = getattr(fn, "__module__", None)
    if module is None:
        module = type(fn).__module__
    return module


class Tracer:
    """In-memory span aggregates: self time and calls per boundary."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[float] = []  # child time covered, per open span
        self.reset()

    def reset(self) -> None:
        """Drop every aggregate (call only with no span open)."""
        #: Self time and calls per boundary key.  A key is ``<layer>.<what>``,
        #: so per-layer self time is the sum over the layer's keys.
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Summed duration of outermost spans: by construction equal to the
        #: sum of all keys' self times.
        self.covered = 0.0
        #: Per shard: each window's ``Shard.advance`` wall time, in order.
        self.advance_s: dict[str, list[float]] = {}
        #: Per shard: process CPU seconds spent advancing (a forked worker
        #: replaces it with its whole process CPU time at finish).
        self.shard_cpu_s: dict[str, float] = {}

    def count(self, key: str) -> None:
        self.calls[key] = self.calls.get(key, 0) + 1

    def span(self, key: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span at boundary ``key``."""
        calls = self.calls
        calls[key] = calls.get(key, 0) + 1
        stack = self._stack
        stack.append(0.0)
        clock = self.clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            self_s = self.self_s
            self_s[key] = self_s.get(key, 0.0) + duration - stack.pop()
            if stack:
                stack[-1] += duration
            else:
                self.covered += duration

    def wrap(self, fn: Callable, key: str) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            return span(key, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced._perfbench_span = True
        return traced

    def export(self, wall_s: float) -> dict:
        """JSON-ready aggregates of one process whose traced region lasted
        ``wall_s``.  Time outside every span is the engine's own loop, so it
        is charged to ``sim.loop``."""
        self_s = dict(self.self_s)
        self_s["sim.loop"] = self_s.get("sim.loop", 0.0) + wall_s - self.covered
        return {
            "wall_s": wall_s,
            "self_s": self_s,
            "calls": dict(self.calls),
            "advance_s": {k: list(v) for k, v in self.advance_s.items()},
            "shard_cpu_s": dict(self.shard_cpu_s),
        }


def merge(parts: list[dict]) -> dict:
    """Sum the exports of several processes (coordinator plus workers)."""
    out = {"wall_s": 0.0, "self_s": {}, "calls": {},
           "advance_s": {}, "shard_cpu_s": {}, "counters": {}}
    for part in parts:
        out["wall_s"] += part["wall_s"]
        for group in ("self_s", "calls", "counters"):
            for key, value in part.get(group, {}).items():
                out[group][key] = out[group].get(key, 0) + value
        out["advance_s"].update(part["advance_s"])
        out["shard_cpu_s"].update(part["shard_cpu_s"])
    return out


# ------------------------------------------------------------ installation --

_INSTALLED: list[tuple[Any, str, Any]] = []  # (owner, attribute, original)


def _patch(owner: Any, name: str, replacement: Any) -> None:
    _INSTALLED.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                       else getattr(owner, name)))
    setattr(owner, name, replacement)


def uninstall() -> None:
    """Restore every patched attribute (newest first)."""
    while _INSTALLED:
        owner, name, original = _INSTALLED.pop()
        setattr(owner, name, original)


def layer_self_s(self_s: dict[str, float]) -> dict[str, float]:
    """Per-layer self time from per-key self time (every layer present)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for key, value in self_s.items():
        out[key.partition(".")[0]] += value
    return out


def _wrap_method(tracer: Tracer, cls: type, name: str, key: str) -> None:
    _patch(cls, name, tracer.wrap(getattr(cls, name), key))


def _wrap_classmethod(tracer: Tracer, cls: type, name: str, key: str) -> None:
    func = cls.__dict__[name].__func__
    _patch(cls, name, classmethod(tracer.wrap(func, key)))


def _wrap_global(tracer: Tracer, module: Any, name: str, key: str) -> None:
    _patch(module, name, tracer.wrap(getattr(module, name), key))


def install(tracer: Tracer, dump_dir: str | None = None) -> None:
    """Patch every layer boundary to report to ``tracer``.

    Must run before the deployment is built: handlers are wrapped when they
    register, and hot objects bind their callbacks at construction.
    """
    if _INSTALLED:
        raise RuntimeError("a tracer is already installed")
    import repro.crypto.dh as dh
    import repro.crypto.hmac_kdf as hmac_kdf
    import repro.crypto.rsa as rsa
    import repro.hip.daemon as hip_daemon
    import repro.hip.esp as esp
    import repro.hip.identity as identity
    import repro.hip.rendezvous as rendezvous
    import repro.sim.shard as shard
    import repro.tls.connection as tls_connection
    import repro.tls.vpn as vpn
    from repro.metrics import METRICS
    from repro.net.link import LinkEndpoint
    from repro.net.node import Node
    from repro.net.tcp import TcpConnection, TcpStack
    from repro.sim.engine import TimerHandle
    from repro.sim.events import Process

    span = tracer.span
    process_keys: dict[Any, str] = {}  # generator code -> span key

    # -- engine dispatch: callback lane ------------------------------------
    # Every raw timer, whether scheduled through Simulator.call_later /
    # call_at or built directly by link and TCP code, is a TimerHandle.
    handle_init = TimerHandle.__init__

    def timer_init(self, sim, fn, arg):
        if not getattr(fn, "_perfbench_span", False):
            layer = layer_of_module(owner_module(fn))
            fn = tracer.wrap(fn, f"{layer}.timer")
        handle_init(self, sim, fn, arg)

    _patch(TimerHandle, "__init__", timer_init)

    # -- engine dispatch: processes ----------------------------------------
    # A process step belongs to the module that defines its generator.
    def process_key(proc) -> str:
        code = proc.generator.gi_code
        key = process_keys.get(code)
        if key is None:
            frame = proc.generator.gi_frame
            module = frame.f_globals.get("__name__") if frame is not None else None
            key = process_keys[code] = f"{layer_of_module(module)}.process"
        return key

    for name in ("_boot", "_resume", "_deliver_interrupt"):
        original = getattr(Process, name)

        def resume(self, *args, _original=original):
            return span(process_key(self), _original, (self, *args), {})

        resume._perfbench_span = True
        _patch(Process, name, resume)

    # -- handlers and shims, wrapped as they register -----------------------
    register_protocol = Node.register_protocol
    add_output_shim = Node.add_output_shim

    def traced_register(self, proto, handler):
        layer = layer_of_module(owner_module(handler))
        register_protocol(self, proto, tracer.wrap(handler, f"{layer}.handler"))

    def traced_add_shim(self, shim):
        layer = layer_of_module(owner_module(shim))
        key = f"{layer}.shim"
        consumed = f"{layer}.shim_consumed"

        def traced_shim(node, packet):
            result = span(key, shim, (node, packet), {})
            if result is None:
                tracer.count(consumed)
            return result

        add_output_shim(self, traced_shim)

    _patch(Node, "register_protocol", traced_register)
    _patch(Node, "add_output_shim", traced_add_shim)

    # -- entry points -------------------------------------------------------
    # Node._on_receive is the inbound boundary: the link fast path inlines
    # Interface.receive into its delivery callback and calls it directly.
    for name in ("_on_receive", "send_ip", "send_ip_fast"):
        _wrap_method(tracer, Node, name,
                     "node.receive" if name == "_on_receive" else "node.send")
    _wrap_method(tracer, LinkEndpoint, "send", "link.send")
    for name in ("write", "close", "abort"):
        _wrap_method(tracer, TcpConnection, name, "tcp.api")
    _wrap_method(tracer, TcpStack, "connect", "tcp.api")
    _wrap_method(tracer, esp.SecurityAssociation, "protect", "hip.protect")
    _wrap_method(tracer, esp.SecurityAssociation, "verify", "hip.verify")

    # -- crypto, at its use sites ------------------------------------------
    for name in ("sign", "decrypt"):
        _wrap_method(tracer, rsa.RsaKeyPair, name, "crypto.asym")
    for name in ("verify", "encrypt"):
        _wrap_method(tracer, rsa.RsaPublicKey, name, "crypto.asym")
    _wrap_method(tracer, dh.DHKeyPair, "shared_secret", "crypto.asym")
    _wrap_classmethod(tracer, rsa.RsaKeyPair, "generate", "crypto.keygen")
    _wrap_classmethod(tracer, dh.DHKeyPair, "generate", "crypto.keygen")
    _wrap_method(tracer, hmac_kdf.HmacKey, "__init__", "crypto.hmac_key")
    _wrap_method(tracer, hmac_kdf.HmacKey, "digest", "crypto.hmac")
    for module, names in (
        (esp, ("cbc_encrypt", "cbc_decrypt")),
        (tls_connection, ("cbc_encrypt", "cbc_decrypt", "tls_prf", "sha256")),
        (vpn, ("tls_prf",)),
        (hip_daemon, ("hip_keymat", "solve_puzzle", "verify_solution")),
        (identity, ("sha1", "ecdsa_verify")),
        (rendezvous, ("hmac_digest",)),
    ):
        for name in names:
            _wrap_global(tracer, module, name, f"crypto.{name}")

    # -- shard coordinator and workers -------------------------------------
    for name in ("encode_envelopes", "decode_envelopes"):
        _wrap_global(tracer, shard, name, "shard.codec")
    _wrap_method(tracer, shard.ShardedSimulation, "_sync_window", "shard.window")

    advance = shard.Shard.advance
    finish = shard.Shard.finish
    worker_cpu0: dict[str, float] = {}
    worker_counters0: dict[str, int] = {}
    parent_pid = os.getpid()

    def traced_advance(self, window_end):
        if self.name not in tracer.advance_s:
            # First window in this process: a forked worker starts its
            # aggregates from zero (it inherited the parent's at fork).
            if os.getpid() != parent_pid and not worker_cpu0:
                tracer.reset()
                worker_counters0.update((c.name, c.value) for c in METRICS.counters())
            tracer.advance_s[self.name] = []
            tracer.shard_cpu_s[self.name] = 0.0
            worker_cpu0[self.name] = time.process_time()
        cpu = time.process_time()
        start = tracer.clock()
        try:
            # The engine loop a window runs is sim work; the per-window
            # duration feeds the critical-path and imbalance metrics.
            return span("sim.advance", advance, (self, window_end), {})
        finally:
            tracer.advance_s[self.name].append(tracer.clock() - start)
            tracer.shard_cpu_s[self.name] += time.process_time() - cpu

    def traced_finish(self):
        result = finish(self)
        if os.getpid() != parent_pid and dump_dir is not None:
            # The worker's counters die with it: ship this process's deltas.
            tracer.shard_cpu_s[self.name] = time.process_time() - worker_cpu0[self.name]
            part = tracer.export(tracer.covered)
            part["counters"] = {
                c.name: c.value - worker_counters0.get(c.name, 0)
                for c in METRICS.counters()
            }
            path = os.path.join(dump_dir, f"worker-{self.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(part, fh)
        return result

    _patch(shard.Shard, "advance", traced_advance)
    _patch(shard.Shard, "finish", traced_finish)


def read_worker_dumps(dump_dir: str) -> list[dict]:
    """Consume the aggregates forked shard workers wrote, in shard order."""
    parts = []
    for name in sorted(os.listdir(dump_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(dump_dir, name)
            with open(path, encoding="utf-8") as fh:
                parts.append(json.load(fh))
            os.unlink(path)
    return parts
