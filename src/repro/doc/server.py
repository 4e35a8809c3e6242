"""The DoC server: DNS over CoAP resource endpoint (Section 4).

Maps CoAP requests to DNS resolution:

* FETCH/POST carry the DNS query (wire format or CBOR, per
  Content-Format) in the request body;
* GET carries it base64url-encoded in the ``dns`` URI query variable;
* responses carry the DNS response with Max-Age set to the minimum
  record TTL, an ETag over the payload, and — under the EOL-TTLs
  scheme — all TTLs rewritten to 0;
* a request bearing a still-valid ETag is answered with 2.03 Valid
  (cache revalidation), encoding the fresh TTL in Max-Age only.

With an OSCORE context the server answers protected requests
end-to-end, including the Echo round that initialises replay windows
(Figure 6 "session setup").
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache import EvictionPolicy, KeyedCache
from repro.coap.codes import Code
from repro.coap.endpoint import CoapServer
from repro.coap.message import CoapMessage, MessageType
from repro.coap.options import ContentFormat, OptionNumber, decode_uint, encode_uint
from repro.coap.reliability import ReliabilityParams
from repro.coap.uri import base64url_decode
from repro.dns import Message, RecursiveResolver
from repro.dns.resolver import RD_QUERY_FLAGS
from repro.oscore import OscoreError, SecurityContext, protect_response
from repro.oscore.cacheable import open_deterministic_request
from repro.oscore.protect import (
    encode_plaintext,
    open_request,
    request_from_plaintext,
    seal_response,
)
from repro.sim.clock import Clock

from . import cbor_format
from .caching import CachingScheme, compute_etag, prepare_response

DOC_RESOURCE = "/dns"


class DocServer:
    """A DNS-over-CoAP server bound to a CoAP server endpoint.

    With ``fastpath_capacity`` > 0 a response cache sits in front of
    the resolver. It is keyed on, and answers in, the bytes of a CoAP
    body, ``code || options || 0xFF payload``: on the plain route the
    request datagram without its type, MID and token, on the OSCORE
    route the decrypted plaintext (RFC 8613 §5.3 lays it out the same
    way). A hit replays the stored reply body with only Max-Age
    re-encoded from the entry's remaining lifetime; on the plain route
    :class:`~repro.coap.endpoint.CoapServer` answers it without
    decoding or encoding a message, and it never reaches the resolver.
    Only 2.05 and 2.03 replies with a non-zero Max-Age are stored, and
    block-wise requests are neither stored nor replayed. Capacity 0
    (every simulated run) leaves the cache out, so simulation results,
    which observe resolver-cache statistics, do not depend on it.
    """

    def __init__(
        self,
        sim: Clock,
        socket,
        resolver: RecursiveResolver,
        scheme: CachingScheme = CachingScheme.EOL_TTLS,
        resource: str = DOC_RESOURCE,
        oscore_context: Optional[SecurityContext] = None,
        deterministic_context: Optional[SecurityContext] = None,
        params: ReliabilityParams = ReliabilityParams(),
        fastpath_capacity: int = 0,
    ) -> None:
        self.sim = sim
        self.resolver = resolver
        self.scheme = scheme
        self.oscore_context = oscore_context
        self.deterministic_context = deterministic_context
        #: Reply templates by request body: (code, the options before
        #: Max-Age, Max-Age's delta nibble, 0xFF payload or b"").
        self._fastpath: Optional[KeyedCache] = (
            KeyedCache(fastpath_capacity, policy=EvictionPolicy.LRU)
            if fastpath_capacity > 0
            else None
        )
        self._route = "/" + resource.strip("/")
        self.coap = CoapServer(sim, socket, params)
        self.coap.add_resource(
            resource, self._handle_plain,
            fast_path=self if self._fastpath is not None else None,
        )
        if oscore_context is not None or deterministic_context is not None:
            self.coap.default_handler = self._handle_oscore
        #: kids that have completed the Echo exchange.
        self._echo_done: Dict[bytes, bool] = {}
        self._echo_values: Dict[bytes, bytes] = {}
        self.queries_handled = 0
        self.validations_sent = 0
        self.fastpath_hits = 0
        self.fastpath_misses = 0

    # -- fast path --------------------------------------------------------------

    def answer(self, body: bytes) -> Optional[Tuple[int, int, bytes]]:
        """The stored reply to *body*, or ``None``: ``(code, max_age,
        rest)``, the reply body being ``code || rest`` with Max-Age
        re-encoded from the entry's remaining lifetime."""
        now = self.sim.now
        entry, _ = self._fastpath.lookup(body, now)
        if entry is None:
            return None
        self.fastpath_hits += 1
        self.queries_handled += 1
        code, head, delta, tail = entry.value
        if code == Code.VALID:
            self.validations_sent += 1
        # entry.remaining(now) and encode_uint, spelled out: a fresh
        # entry has a non-negative whole number of seconds left.
        max_age = int(entry.lifetime - (now - entry.stored_at))
        value = max_age.to_bytes((max_age.bit_length() + 7) >> 3, "big")
        return code, max_age, head + bytes((delta | len(value),)) + value + tail

    def learn(
        self, body: bytes, response: CoapMessage, wire: bytes, options_at: int
    ) -> None:
        """Store the reply to *body* if it may be replayed: a 2.05 or
        2.03 with a non-zero Max-Age. *wire* holds the reply's options
        and payload from *options_at* on; the template is cut from it,
        so nothing is encoded twice."""
        if response.code not in (Code.CONTENT, Code.VALID):
            return
        # Max-Age is the last option of every reply _process builds,
        # and its number and length each fit the option's first byte.
        max_age = response.options[-1][1]
        if not max_age:
            return
        tail_at = len(wire) - (len(response.payload) + 1 if response.payload else 0)
        max_age_at = tail_at - 1 - len(max_age)
        template = (
            int(response.code), wire[options_at:max_age_at],
            wire[max_age_at] & 0xF0, wire[tail_at:],
        )
        self._fastpath.store(body, template, float(decode_uint(max_age)), self.sim.now)

    # -- plain CoAP -------------------------------------------------------------

    def _handle_plain(self, request: CoapMessage, respond, metadata: dict) -> None:
        response = self._process(request)
        metadata["response_kind"] = "response"
        respond(response)

    # -- OSCORE -----------------------------------------------------------------

    def _handle_oscore(self, outer: CoapMessage, respond, metadata: dict) -> None:
        # Cacheable OSCORE (deterministic) requests arrive with an
        # outer FETCH; regular OSCORE requests with an outer POST.
        if outer.code == Code.FETCH and self.deterministic_context is not None:
            self._handle_deterministic(outer, respond, metadata)
            return
        context = self.oscore_context
        if context is None:
            respond(outer.make_response(Code.BAD_REQUEST))
            return
        try:
            plaintext, binding = open_request(context, outer)
            inner = None
            if context.echo_required and not self._echo_done.get(binding.kid):
                inner = request_from_plaintext(outer, plaintext)
        except OscoreError:
            respond(outer.make_response(Code.BAD_REQUEST))
            return

        if inner is not None:
            echo_value = inner.option(OptionNumber.ECHO)
            expected = self._echo_values.get(binding.kid)
            if echo_value is not None and echo_value == expected:
                self._echo_done[binding.kid] = True
            else:
                challenge = bytes(
                    self.sim.rng.randrange(256) for _ in range(8)
                )
                self._echo_values[binding.kid] = challenge
                reject = inner.make_response(Code.UNAUTHORIZED).with_option(
                    OptionNumber.ECHO, challenge
                )
                respond(protect_response(context, reject, binding))
                return

        try:
            _, reply = self._reply_plaintext(outer, plaintext, inner)
        except OscoreError:
            respond(outer.make_response(Code.BAD_REQUEST))
            return
        metadata["response_kind"] = "response"
        respond(seal_response(
            context, reply, binding, _piggybacked(outer), outer.mid, outer.token,
        ))

    def _handle_deterministic(
        self, outer: CoapMessage, respond, metadata: dict
    ) -> None:
        """Serve a cacheable-OSCORE request (no Echo: deterministic
        requests carry no replay window to initialise)."""
        context = self.deterministic_context
        assert context is not None
        try:
            inner, plaintext, binding = open_deterministic_request(context, outer)
        except OscoreError:
            respond(outer.make_response(Code.BAD_REQUEST))
            return
        max_age, reply = self._reply_plaintext(outer, plaintext, inner)
        outer_options = () if max_age is None else (
            (OptionNumber.MAX_AGE, encode_uint(max_age)),
        )
        metadata["response_kind"] = "response"
        respond(seal_response(
            context, reply, binding, _piggybacked(outer), outer.mid, outer.token,
            outer_code=Code.CONTENT, outer_options=outer_options,
        ))

    def _reply_plaintext(
        self, outer: CoapMessage, plaintext: bytes, inner: Optional[CoapMessage]
    ) -> Tuple[Optional[int], bytes]:
        """``(max_age, reply plaintext)`` for the request whose
        plaintext is *plaintext*, from the fast path or the resolver.
        *inner* is the request parsed, if that is done already; a
        plaintext that parses as no request raises
        :class:`~repro.oscore.OscoreError`."""
        if self._fastpath is not None:
            hot = self.answer(plaintext)
            if hot is not None:
                code, max_age, rest = hot
                return max_age, bytes((code,)) + rest
        if inner is None:
            inner = request_from_plaintext(outer, plaintext)
        response = self._process(inner)
        reply = encode_plaintext(response.code, response.options, response.payload)
        # Only a body the plain route would hand the resolver too may
        # be stored: the two routes share one cache.
        if self._fastpath is not None and inner.uri_path == self._route:
            self.learn(plaintext, response, reply, 1)
        return response.max_age, reply

    # -- common processing ---------------------------------------------------------

    def _extract_query(self, request: CoapMessage) -> Tuple[Message, int]:
        """Returns (dns_query, response_content_format)."""
        if request.code == Code.GET:
            for query_item in request.uri_queries:
                key, _, value = query_item.partition("=")
                if key == "dns":
                    wire = base64url_decode(value)
                    return Message.decode(wire), int(ContentFormat.DNS_MESSAGE)
            raise ValueError("GET without dns query variable")
        content_format = request.content_format
        if content_format == ContentFormat.DNS_CBOR:
            question = cbor_format.decode_query(request.payload)
            query = Message(0, RD_QUERY_FLAGS, (question,))
            return query, int(ContentFormat.DNS_CBOR)
        return Message.decode(request.payload), int(ContentFormat.DNS_MESSAGE)

    def _process(self, request: CoapMessage) -> CoapMessage:
        """Resolve one request the fast path did not answer (a miss,
        when the fast path is on).

        Replies are built in one call with their options in number
        order: ETag 4, Content-Format 12, and Max-Age 14, the last.
        """
        if self._fastpath is not None:
            self.fastpath_misses += 1
        if request.code not in (Code.FETCH, Code.GET, Code.POST):
            return request.make_response(Code.METHOD_NOT_ALLOWED)
        try:
            query, response_format = self._extract_query(request)
        except ValueError:
            return request.make_response(Code.BAD_REQUEST)

        self.queries_handled += 1
        dns_response = self.resolver.resolve(query, self.sim.now)

        if response_format == int(ContentFormat.DNS_CBOR):
            min_ttl = dns_response.min_ttl()
            max_age = min_ttl if min_ttl is not None else 0
            payload = cbor_format.encode_response(
                dns_response,
                ttl=0 if self.scheme is CachingScheme.EOL_TTLS else None,
            )
            etag = compute_etag(payload)
        else:
            prepared = prepare_response(dns_response, self.scheme)
            payload, max_age, etag = (
                prepared.payload, prepared.max_age, prepared.etag
            )

        etag_option = (OptionNumber.ETAG, etag)
        max_age_option = (OptionNumber.MAX_AGE, encode_uint(max_age))
        # Cache validation: if the client (or proxy) presented the ETag
        # of the current representation, confirm with 2.03 Valid.
        if etag in request.etags:
            self.validations_sent += 1
            return request.make_response(
                Code.VALID, options=(etag_option, max_age_option)
            )
        return request.make_response(
            Code.CONTENT,
            payload=payload,
            options=(
                etag_option,
                (OptionNumber.CONTENT_FORMAT, encode_uint(response_format)),
                max_age_option,
            ),
        )


def _piggybacked(request: CoapMessage) -> MessageType:
    """The type of a reply piggybacked on *request*: ACK for CON."""
    return MessageType.ACK if request.mtype == MessageType.CON else MessageType.NON
