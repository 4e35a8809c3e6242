"""Outside-in span tracer for the per-layer stage budget.

The program under test has no stage hooks yet (a later issue adds
them), so this module times the layers from the benchmark's side: it
replaces the layers' callables with timing shims — a class-level patch
for methods, and for module-level functions a rebind of every
``repro.*`` module global that *is* the function, so ``from x import f``
call sites are covered too.

Each shim records one span: label, start, end, parent span, and the
*cause* — the span that started the work (one inbound datagram, one
``DocClient.resolve``, one simulator event). A label's self time is its
spans' duration minus the part their child spans cover. Aggregates
(calls, total, self) are kept for the whole traced run; raw spans only
up to ``RAW_SPAN_CAP``, and are written out by ``dump()``.

Targets are resolved by name and are all optional: a refactor that
renames one makes it show up in ``Tracer.missing`` (reported as
``trace.targets_missing``) and its time falls into the caller's self
time or the residual — it does not break the benchmark.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (label, "module:attr" or "module:Class.attr", kind). Kinds: ``span``
#: times the call; ``root`` also starts a new cause; ``count`` only
#: counts calls (for callables too cheap to time honestly); ``events`` /
#: ``events_many`` time the simulator's scheduling call and route the
#: scheduled callbacks through ``Tracer._fire``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("live.transport.recv", "repro.live.transport:LiveUdpTransport._drain_ready", "span"),
    ("live.transport.recv", "repro.live.transport:LiveUdpTransport.datagram_received", "root"),
    ("live.transport.send", "repro.live.transport:LiveUdpTransport.sendto", "span"),
    ("coap.message.encode", "repro.coap.message:CoapMessage.encode", "span"),
    ("coap.message.decode", "repro.coap.message:CoapMessage.decode", "span"),
    ("coap.endpoint", "repro.coap.endpoint:CoapClient.request", "span"),
    ("coap.endpoint", "repro.coap.endpoint:CoapClient._on_datagram", "span"),
    ("coap.endpoint", "repro.coap.endpoint:CoapClient._on_timeout", "span"),
    ("coap.endpoint", "repro.coap.endpoint:CoapServer._on_datagram", "span"),
    ("coap.endpoint", "repro.coap.endpoint:CoapServer._reply", "span"),
    ("coap.endpoint", "repro.coap.endpoint:CoapServer._send_separate", "span"),
    ("coap.endpoint.timeouts", "repro.coap.reliability:TransmissionState.register_timeout", "count"),
    ("doc.server", "repro.doc.server:DocServer._handle_plain", "span"),
    ("doc.server", "repro.doc.server:DocServer._handle_oscore", "span"),
    ("doc.server", "repro.doc.server:DocServer._handle_deterministic", "span"),
    ("doc.client", "repro.doc.client:DocClient.resolve", "root"),
    ("doc.client", "repro.doc.client:DocClient._decode_response", "span"),
    ("doc.client", "repro.doc.client:DocClient._build_result", "span"),
    ("dns.message.encode", "repro.dns.message:Message.encode", "span"),
    ("dns.message.decode", "repro.dns.message:Message.decode", "span"),
    ("dns.resolver", "repro.dns.resolver:RecursiveResolver.resolve", "span"),
    ("cache.lookup", "repro.cache.store:KeyedCache.lookup", "span"),
    ("cache.store", "repro.cache.store:KeyedCache.store", "span"),
    ("cache.evictions", "repro.cache.store:KeyedCache._evict_one", "count"),
    ("oscore.protect", "repro.oscore.protect:protect_request", "span"),
    ("oscore.protect", "repro.oscore.protect:protect_response", "span"),
    ("oscore.unprotect", "repro.oscore.protect:unprotect_request", "span"),
    ("oscore.unprotect", "repro.oscore.protect:unprotect_response", "span"),
    ("dtls.record.seal", "repro.dtls.record:RecordLayer.seal", "span"),
    ("dtls.record.open", "repro.dtls.record:RecordLayer.open", "span"),
    ("dtls.handshake", "repro.dtls.handshake:ClientHandshake.*", "span"),
    ("dtls.handshake", "repro.dtls.handshake:ServerHandshake.*", "span"),
    ("crypto.ccm.encrypt", "repro.crypto.ccm:AESCCM.encrypt", "span"),
    ("crypto.ccm.decrypt", "repro.crypto.ccm:AESCCM.decrypt", "span"),
    ("cborlib", "repro.cborlib.encoder:dumps", "span"),
    ("cborlib", "repro.cborlib.decoder:loads", "span"),
    ("lowpan.to_frames", "repro.lowpan.adaptation:LowpanAdaptation.packet_to_frames", "span"),
    ("lowpan.to_packet", "repro.lowpan.adaptation:LowpanAdaptation.frame_to_packet", "span"),
    ("sim.core.run", "repro.sim.core:Simulator.run", "span"),
    ("sim.core.schedule", "repro.sim.core:Simulator.schedule", "events"),
    ("sim.core.schedule", "repro.sim.core:Simulator.schedule_at", "span"),
    ("sim.core.schedule", "repro.sim.core:Simulator.schedule_many", "events_many"),
    ("sim.core.cancels", "repro.sim.core:Event.cancel", "count"),
    ("fleet.service.calibrate", "repro.fleet.service:calibrate", "span"),
    ("fleet.arrivals", "repro.fleet.arrivals:generate_arrivals", "span"),
    ("fleet.engine", "repro.fleet.engine:run_fleet", "span"),
    ("fleet.report", "repro.fleet.report:report_from_fleet", "span"),
    ("api.run", "repro.api.runner:run", "span"),
)

#: Raw spans are kept for the start of the traced run only (about the
#: first 2 000 live queries at ~15 spans each); aggregates cover all of it.
RAW_SPAN_CAP = 50_000


class Tracer:
    """Span aggregates and raw spans of one traced run."""

    def __init__(self) -> None:
        #: label -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: label -> calls, for ``count`` targets and fired sim events
        self.counts: Dict[str, int] = {}
        #: raw spans: (id, parent id, cause id, label, start, end)
        self.spans: List[tuple] = []
        #: targets that could not be resolved
        self.missing: List[str] = []
        #: summed duration of spans that had no parent
        self.top_level_s = 0.0
        self._stack: List[list] = []
        self._raw = True
        self._next_id = 0
        self._cause = 0

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Patch every resolvable target (once per process)."""
        for label, path, kind in TARGETS:
            module_name, _, attr = path.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(path)
                continue
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                self.missing.append(path)
                continue
            if member == "*":
                # The handshake state machines: every public step.
                members = [
                    name for name in vars(owner)
                    if name == "start" or name.startswith("on_")
                ]
            else:
                members = [member]
            for name in members:
                if not self._patch(owner, name, label, kind):
                    self.missing.append(f"{module_name}:{owner_name}.{name}")

    def _patch(self, owner, name: str, label: str, kind: str) -> bool:
        raw = vars(owner).get(name)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            shim = type(raw)(self._shim(label, raw.__func__, kind))
        elif callable(raw):
            shim = self._shim(label, raw, kind)
        else:
            return False
        setattr(owner, name, shim)
        if not isinstance(owner, type):
            # A module-level function: rebind the importers' copies.
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, shim)
        return True

    def _shim(self, label: str, func: Callable, kind: str) -> Callable:
        if kind == "count":
            counts = self.counts
            counts.setdefault(label, 0)

            def counted(*args, **kwargs):
                counts[label] += 1
                return func(*args, **kwargs)

            return counted
        if kind in ("events", "events_many"):
            # Simulator.schedule / schedule_many: time the heap push,
            # and route each callback through _fire so a fired event is
            # counted and becomes the cause of the spans it runs.
            timed = self._shim(label, func, "span")
            fire = self._fire

            def schedule(sim, delay, callback, *args):
                return timed(sim, delay, fire, callback, *args)

            def schedule_many(sim, entries):
                return timed(sim, (
                    (at, fire, (callback, *args))
                    for at, callback, args in entries
                ))

            return schedule if kind == "events" else schedule_many

        agg = self.agg.setdefault(label, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        root = kind == "root"

        def shim(*args, **kwargs):
            self._next_id = span_id = self._next_id + 1
            parent = stack[-1] if stack else None
            if root or parent is None:
                self._cause = span_id
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if parent is None:
                    self.top_level_s += duration
                else:
                    parent[0] += duration
                if self._raw:
                    spans.append((
                        span_id, parent[1] if parent else 0, self._cause,
                        label, start, end,
                    ))
                    if len(spans) >= RAW_SPAN_CAP:
                        self._raw = False

        return shim

    def _fire(self, callback: Callable, *args) -> None:
        self._next_id = self._cause = self._next_id + 1
        self.counts["sim.core.events"] = self.counts.get("sim.core.events", 0) + 1
        callback(*args)

    # -- reading -----------------------------------------------------------

    def calls(self, label: str) -> int:
        if label in self.agg:
            return int(self.agg[label][0])
        return self.counts.get(label, 0)

    def self_s(self, label: str) -> float:
        return self.agg[label][2] if label in self.agg else 0.0

    def total_self_s(self) -> float:
        return sum(entry[2] for entry in self.agg.values())

    def dump(self, path: str, header: Optional[dict] = None) -> None:
        """Write the raw spans as JSON lines (first line: *header*)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header or {}}) + "\n")
            for span_id, parent, cause, label, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "cause": cause,
                    "label": label, "start": start, "end": end,
                }) + "\n")
