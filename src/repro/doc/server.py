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

With OSCORE contexts the server answers protected requests
end-to-end, including the Echo round that initialises replay windows
(Figure 6 "session setup").
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.cache import EvictionPolicy, KeyedCache
from repro.coap.codes import Code
from repro.coap.endpoint import CoapServer
from repro.coap.message import CoapMessage
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
from repro.oscore import OscoreError, OscoreOptionValue, SecurityContext
from repro.oscore.cacheable import open_deterministic_request
from repro.oscore.context import RecipientContexts
from repro.oscore.protect import (
    _parse_plaintext,
    encode_plaintext,
    open_ciphertext,
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
_OSCORE = int(OptionNumber.OSCORE)
_ECHO = int(OptionNumber.ECHO)
#: Options whose requests the plain route leaves to the message path:
#: block-wise transfers.
_MESSAGE_PATH_OPTIONS = frozenset((int(OptionNumber.BLOCK1), int(OptionNumber.BLOCK2)))
#: The second byte of a body whose first option is OSCORE (9), as a
#: one-byte slice.
_OSCORE_FIRST = frozenset(bytes((0x90 | length,)) for length in range(16))
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
    hit nor a miss decodes or encodes a CoAP message. A body whose first
    option is OSCORE goes to the OSCORE reader, :meth:`_open`, which
    opens it, answers the plaintext and seals the reply, in bytes too.
    The plain route leaves only what is not a DoC request for the DoC
    resource to the message path: another Uri-Path, a block-wise request
    (answered by :meth:`_handle_plain` from its reassembled body), an
    OSCORE request whose outer message carries more than the OSCORE
    option or is cacheable OSCORE's (:meth:`_handle_oscore`), and a body
    that does not parse.

    *oscore_context* is the server's :class:`SecurityContext`, or a table
    of them by the kid of the requests each opens (anything with
    ``get(kid)``, such as :class:`~repro.oscore.context.RecipientContexts`):
    each client Sender ID has its own replay window.

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
        oscore_context: Union[SecurityContext, RecipientContexts, None] = None,
        deterministic_context: Optional[SecurityContext] = None,
        params: ReliabilityParams = ReliabilityParams(),
        fastpath_capacity: int = 0,
    ) -> None:
        self.sim = sim
        self.resolver = resolver
        self.scheme = scheme
        #: Recipient contexts by kid.
        self._contexts = (
            {oscore_context.recipient_id: oscore_context}
            if isinstance(oscore_context, SecurityContext)
            else oscore_context
        )
        self.deterministic_context = deterministic_context
        #: Whether the server has an OSCORE context of either kind.
        self._secured = oscore_context is not None or deterministic_context is not None
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
        if self._secured:
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

        On the plain route of a server with an OSCORE context, a body
        whose first option is OSCORE goes to :meth:`_open`. A cache hit
        is replayed with Max-Age re-encoded from the entry's remaining
        lifetime; anything else is read by :meth:`_read`. *routed* says
        the caller has routed the request already (the OSCORE route):
        see :meth:`_read`.
        """
        if not routed and body[1:2] in _OSCORE_FIRST and self._secured:
            return self._open(body)
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
        Uri-Path or one carrying Block1 or Block2. Unless *routed*, a
        request for the DoC resource carrying the OSCORE option gets 4.02
        at a server with no OSCORE context, the option being a critical
        one the server does not know (RFC 7252 §5.4.1); at a server with
        one, it is a request :meth:`_open` left to the message path.

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
        oscore = False
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
            elif number == _OSCORE and not routed:
                oscore = True
            elif number in _MESSAGE_PATH_OPTIONS and not routed:
                return None
        # Decoding the joined segments decodes each (a "/" ends any
        # malformed sequence), as CoapMessage.uri_path does.
        on_route = (b"/" + b"/".join(path)).decode("utf-8", "replace") == self._route
        if not (on_route or routed):
            return None
        if oscore:
            return None if self._secured else (Code.BAD_OPTION, None, b"")
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

    # -- the message path --------------------------------------------------------

    def _handle_plain(self, request: CoapMessage, respond, metadata: dict) -> None:
        """Answer a block-wise request for the DoC resource, which
        :meth:`_read` leaves to the message path, from the body of the
        request as reassembled; it is neither stored nor replayed."""
        self._respond(request, respond, metadata, self._read(
            encode_plaintext(request.code, request.options, request.payload),
            True, False,
        ))

    def _handle_oscore(self, outer: CoapMessage, respond, metadata: dict) -> None:
        """Answer a request that reaches the OSCORE route only on the
        message path: cacheable OSCORE's outer FETCH, and an outer
        message the OSCORE reader left (a Block1 upload, reassembled, or
        one carrying Class-U options or Block2). The reader gets its
        body with the OSCORE option alone; without exactly one, 4.00."""
        # Cacheable OSCORE (deterministic) requests arrive with an
        # outer FETCH; regular OSCORE requests with an outer POST.
        if outer.code == Code.FETCH and self.deterministic_context is not None:
            self._handle_deterministic(outer, respond, metadata)
            return
        options = [option for option in outer.options if option[0] == _OSCORE]
        self._respond(outer, respond, metadata, self._open(
            encode_plaintext(outer.code, options, outer.payload)
        ) or (Code.BAD_REQUEST, None, b""))

    @staticmethod
    def _respond(request: CoapMessage, respond, metadata: dict, reply) -> None:
        """Respond to *request* with *reply*, as :meth:`answer` returns
        one."""
        code, _, rest = reply
        code, options, payload = _parse_plaintext(bytes((code,)) + rest)
        metadata["response_kind"] = "response"
        respond(request.make_response(code, payload=payload, options=options))

    # -- OSCORE -----------------------------------------------------------------

    def _open(self, body: bytes) -> Optional[Tuple[int, Optional[int], bytes]]:
        """The OSCORE reader: the reply to the request body *body*, which
        carries the OSCORE option, as :meth:`answer` returns it.

        A body that is ``code || OSCORE option || 0xFF ciphertext`` is
        opened with the recipient context its kid picks: the replay
        window is checked, the ciphertext decrypted, and the Partial IV
        accepted once the tag verifies. Its plaintext is answered by
        :meth:`answer` and the reply, ``code || rest``, sealed under the
        request's nonce and AAD into ``2.04, 0x90 || 0xFF ciphertext``.
        While the kid has not completed the Echo exchange its context
        asks for, a request without the Echo value last issued to it is
        answered a protected 4.01 with a new one (RFC 9175).

        A request that fails to open or is no request gets 4.00 in the
        clear, and so does one at a server with only a cacheable-OSCORE
        context. ``None`` leaves the rest to the message path: cacheable
        OSCORE's outer FETCH, an outer message with more options, and a
        body that does not parse.
        """
        contexts = self._contexts
        try:
            code, options, ciphertext = _parse_plaintext(body)
        except (OscoreError, OptionError):
            return None
        if len(options) != 1 or (
            code == Code.FETCH and self.deterministic_context is not None
        ):
            return None
        try:
            value = OscoreOptionValue.decode(options[0][1])
            kid = value.kid
            context = None if contexts is None or kid is None else contexts.get(kid)
            if context is None:
                raise OscoreError(f"no context for kid {kid!r}")
            plaintext, nonce, aad = open_ciphertext(
                context, value.partial_iv, ciphertext
            )
            reply = None
            if context.echo_required and not self._echo_done.get(kid):
                # RFC 9175 §2: only the Echo value last issued to the kid
                # completes its exchange; anything else gets a new one.
                code, options, _ = _parse_plaintext(plaintext)
                if not code.is_request:
                    raise OscoreError("inner message is not a request")
                echo = next((v for number, v in options if number == _ECHO), None)
                if echo is not None and echo == self._echo_values.get(kid):
                    self._echo_done[kid] = True
                else:
                    challenge = bytes(self.sim.rng.randrange(256) for _ in range(8))
                    self._echo_values[kid] = challenge
                    # 4.01 with the Echo option (252: delta 13 + 239, length 8).
                    reply = Code.UNAUTHORIZED, None, b"\xd8\xef" + challenge
            if reply is None:
                reply = self.answer(plaintext, routed=True)
            if reply is None:
                raise OscoreError("inner message is not a request")
        except (OscoreError, OptionError):
            return Code.BAD_REQUEST, None, b""
        code, _, rest = reply
        ciphertext = context.sender_aead().encrypt(nonce, bytes((code,)) + rest, aad)
        return Code.CHANGED, None, b"\x90\xff" + ciphertext

    def _handle_deterministic(
        self, outer: CoapMessage, respond, metadata: dict
    ) -> None:
        """Serve a cacheable-OSCORE request (no Echo: deterministic
        requests carry no replay window to initialise)."""
        context = self.deterministic_context
        assert context is not None
        try:
            _, plaintext, binding = open_deterministic_request(context, outer)
            reply = self.answer(plaintext, routed=True)
            if reply is None:
                raise OscoreError("inner message is not a request")
        except OscoreError:
            respond(outer.make_response(Code.BAD_REQUEST))
            return
        code, max_age, rest = reply
        outer_options = () if max_age is None else (
            (OptionNumber.MAX_AGE, encode_uint(max_age)),
        )
        metadata["response_kind"] = "response"
        respond(outer.make_response(
            Code.CONTENT,
            payload=seal_response(context, bytes((code,)) + rest, binding),
            options=outer_options + ((OptionNumber.OSCORE, b""),),
        ))
