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
from repro.coap.options import (
    ContentFormat,
    OptionError,
    OptionNumber,
    decode_uint,
    encode_uint,
)
from repro.coap.reliability import ReliabilityParams
from repro.coap.uri import base64url_decode
from repro.dns import Message, RecursiveResolver
from repro.dns.resolver import RD_QUERY_FLAGS
from repro.oscore import OscoreError, SecurityContext, protect_response
from repro.oscore.cacheable import open_deterministic_request
from repro.oscore.protect import (
    _parse_plaintext,
    encode_plaintext,
    open_request,
    request_from_plaintext,
    seal_response,
)
from repro.sim.clock import Clock

from . import cbor_format
from .caching import CachingScheme, compute_etag, prepare_response

DOC_RESOURCE = "/dns"


#: What the request reader reads of a body, as plain ints (comparing
#: against the enum members costs a lookup each).
_URI_PATH = int(OptionNumber.URI_PATH)
_ETAG = int(OptionNumber.ETAG)
_CONTENT_FORMAT = int(OptionNumber.CONTENT_FORMAT)
_URI_QUERY = int(OptionNumber.URI_QUERY)
#: Options whose requests the plain route leaves to the message path:
#: block-wise transfers, and the outer message of an OSCORE request.
_MESSAGE_PATH_OPTIONS = frozenset(
    (int(OptionNumber.BLOCK1), int(OptionNumber.BLOCK2), int(OptionNumber.OSCORE))
)
_REQUEST_CODES = frozenset(code for code in Code if code.is_request)
_DOC_METHODS = frozenset((Code.FETCH, Code.GET, Code.POST))


class DocServer:
    """A DNS-over-CoAP server bound to a CoAP server endpoint.

    Every request is read from its body, ``code || options || 0xFF
    payload``: on the plain route the request datagram without its
    type, MID and token, which :class:`~repro.coap.endpoint.CoapServer`
    offers to :meth:`answer` before decoding anything; on the OSCORE
    route the decrypted plaintext (RFC 8613 §5.3 lays it out the same
    way). :meth:`answer` writes the reply body in bytes, so neither a
    hit nor a miss decodes or encodes a CoAP message. The plain route
    leaves only what is not a DoC request for the DoC resource to the
    message path: another Uri-Path, a block-wise request (answered by
    :meth:`_handle_plain` from its reassembled body), an OSCORE request's
    outer message, and a body that does not parse.

    With ``fastpath_capacity`` > 0 a response cache, keyed on the
    request body, sits in front of the resolver. A hit replays the
    stored reply body with only Max-Age re-encoded from the entry's
    remaining lifetime, and never reaches the resolver. Only 2.05 and
    2.03 replies with a non-zero Max-Age to a request for the DoC
    resource are stored, and block-wise requests are neither stored nor
    replayed. Capacity 0 (every simulated run) leaves the cache out, so
    simulation results, which observe resolver-cache statistics, do not
    depend on it.
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
        self.coap.add_resource(resource, self._handle_plain)
        self.coap.fast_path = self
        if oscore_context is not None or deterministic_context is not None:
            self.coap.default_handler = self._handle_oscore
        #: kids that have completed the Echo exchange.
        self._echo_done: Dict[bytes, bool] = {}
        self._echo_values: Dict[bytes, bytes] = {}
        self.queries_handled = 0
        self.validations_sent = 0
        self.fastpath_hits = 0
        self.fastpath_misses = 0

    # -- the request reader ---------------------------------------------------

    def answer(
        self, body: bytes, routed: bool = False
    ) -> Optional[Tuple[int, Optional[int], bytes]]:
        """The reply to the request body *body*: ``(code, max_age,
        rest)``, the reply body being ``code || rest``, or ``None``.

        A cache hit is replayed with Max-Age re-encoded from the entry's
        remaining lifetime; anything else is read by :meth:`_read`.
        *routed* says the caller has routed the request already (the
        OSCORE route): see :meth:`_read`.
        """
        cache = self._fastpath
        if cache is not None:
            now = self.sim.now
            entry, _ = cache.lookup(body, now)
            if entry is not None:
                self.fastpath_hits += 1
                self.queries_handled += 1
                code, head, delta, tail = entry.value
                if code == Code.VALID:
                    self.validations_sent += 1
                # entry.remaining(now) and encode_uint, spelled out: a
                # fresh entry has a non-negative whole number of seconds left.
                max_age = int(entry.lifetime - (now - entry.stored_at))
                value = max_age.to_bytes((max_age.bit_length() + 7) >> 3, "big")
                return code, max_age, head + bytes((delta | len(value),)) + value + tail
        return self._read(body, routed, cache is not None)

    def _read(
        self, body: bytes, routed: bool, store: bool
    ) -> Optional[Tuple[int, Optional[int], bytes]]:
        """Resolve the request body *body* and write its reply, as
        :meth:`answer` returns it; ``None`` for a body that is no
        request, and, unless *routed*, for a request for another
        Uri-Path or one carrying Block1, Block2 or the OSCORE option.

        The options are walked once. FETCH and POST carry the query in
        the payload (DNS wire format, or CBOR per Content-Format), GET
        base64url-encoded in the ``dns`` Uri-Query variable; another
        method gets 4.05 and a query that does not parse 4.00, neither
        with options. A resolved query gets ETag, Content-Format (the
        query's) and Max-Age (the minimum record TTL), or 2.03 Valid
        with ETag and Max-Age when the request presented that ETag. With
        *store*, such a reply with a non-zero Max-Age to a request for
        the DoC resource is kept in the cache under *body*.
        """
        try:
            code, options, payload = _parse_plaintext(body)
        except (OscoreError, OptionError):
            return None
        if code not in _REQUEST_CODES:
            return None
        path, etags, queries, content_format = [], [], [], None
        for number, value in options:
            if number == _URI_PATH:
                path.append(value)
            elif number == _ETAG:
                etags.append(value)
            elif number == _CONTENT_FORMAT:
                if content_format is None:
                    content_format = decode_uint(value)
            elif number == _URI_QUERY:
                queries.append(value)
            elif number in _MESSAGE_PATH_OPTIONS and not routed:
                return None
        # Decoding the joined segments decodes each (a "/" ends any
        # malformed sequence), as CoapMessage.uri_path does.
        on_route = (b"/" + b"/".join(path)).decode("utf-8", "replace") == self._route
        if not (on_route or routed):
            return None
        if self._fastpath is not None:
            self.fastpath_misses += 1
        if code not in _DOC_METHODS:
            return Code.METHOD_NOT_ALLOWED, None, b""
        try:
            if code == Code.GET:
                for item in queries:
                    key, _, value = item.decode("utf-8", "replace").partition("=")
                    if key == "dns":
                        query = Message.decode(base64url_decode(value))
                        break
                else:
                    raise ValueError("GET without dns query variable")
                content_format = ContentFormat.DNS_MESSAGE
            elif content_format == ContentFormat.DNS_CBOR:
                question = cbor_format.decode_query(payload)
                query = Message(0, RD_QUERY_FLAGS, (question,))
            else:
                query = Message.decode(payload)
                content_format = ContentFormat.DNS_MESSAGE
        except ValueError:
            return Code.BAD_REQUEST, None, b""

        self.queries_handled += 1
        now = self.sim.now
        dns_response = self.resolver.resolve(query, now)
        if content_format == ContentFormat.DNS_CBOR:
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

        # The options in number order: ETag 4, Content-Format 12 and
        # Max-Age 14, each number and length fitting its first byte.
        etag_option = bytes((0x40 | len(etag),)) + etag
        if etag in etags:
            # Cache validation: the client (or proxy) presented the ETag
            # of the current representation; confirm with 2.03 Valid.
            self.validations_sent += 1
            template = (int(Code.VALID), etag_option, 0xA0, b"")
        else:
            value = encode_uint(content_format)
            template = (
                int(Code.CONTENT),
                etag_option + bytes((0x80 | len(value),)) + value,
                0x20,
                b"\xff" + payload if payload else b"",
            )
        if store and max_age and on_route:
            self._fastpath.store(body, template, float(max_age), now)
        code, head, delta, tail = template
        value = encode_uint(max_age)
        return code, max_age, head + bytes((delta | len(value),)) + value + tail

    # -- plain CoAP -------------------------------------------------------------

    def _handle_plain(self, request: CoapMessage, respond, metadata: dict) -> None:
        """Answer a block-wise request for the DoC resource, which
        :meth:`_read` leaves to the message path, from the body of the
        request as reassembled; it is neither stored nor replayed."""
        code, _, rest = self._read(
            encode_plaintext(request.code, request.options, request.payload),
            True, False,
        )
        code, options, payload = _parse_plaintext(bytes((code,)) + rest)
        metadata["response_kind"] = "response"
        respond(request.make_response(code, payload=payload, options=options))

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
            _, reply = self._reply_plaintext(plaintext)
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
            _, plaintext, binding = open_deterministic_request(context, outer)
        except OscoreError:
            respond(outer.make_response(Code.BAD_REQUEST))
            return
        max_age, reply = self._reply_plaintext(plaintext)
        outer_options = () if max_age is None else (
            (OptionNumber.MAX_AGE, encode_uint(max_age)),
        )
        metadata["response_kind"] = "response"
        respond(seal_response(
            context, reply, binding, _piggybacked(outer), outer.mid, outer.token,
            outer_code=Code.CONTENT, outer_options=outer_options,
        ))

    def _reply_plaintext(self, plaintext: bytes) -> Tuple[Optional[int], bytes]:
        """``(max_age, reply plaintext)`` for the request whose
        plaintext is *plaintext*, whatever its Uri-Path; a plaintext
        that parses as no request raises
        :class:`~repro.oscore.OscoreError`."""
        reply = self.answer(plaintext, routed=True)
        if reply is None:
            raise OscoreError("inner message is not a request")
        code, max_age, rest = reply
        return max_age, bytes((code,)) + rest


def _piggybacked(request: CoapMessage) -> MessageType:
    """The type of a reply piggybacked on *request*: ACK for CON."""
    return MessageType.ACK if request.mtype == MessageType.CON else MessageType.NON
