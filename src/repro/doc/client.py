"""The DoC client: resolve names over CoAP (Section 4).

Supports the full design space the paper evaluates:

* methods FETCH (preferred), GET (base64url in the URI), POST;
* plain CoAP, CoAP over DTLS (pass a DTLS adapter as the socket), and
  OSCORE object security (pass an ``oscore_context``);
* an optional client-side CoAP cache with ETag revalidation and an
  optional client-side DNS cache (the caching levels of Section 6.1);
* TTL restoration from Max-Age per the configured caching scheme;
* block-wise transfer with a fixed block size (Appendix D);
* the OSCORE Echo round-trip on first contact with a guarded server;
* optionally the compressed CBOR format of Section 7.

The FETCH/POST query of a client without CoAP cache or block size
takes the bytes path: it is written from a per-client prefix and the
name's memoised wire form, and a reply body seen before completes it
from the CoapClient's reply memo, building no CoAP or DNS message. With
OSCORE (not cacheable, no Max-Age check) the same bytes are the
plaintext: they are sealed into the body of the outer POST, and the
reply is opened from its bytes and looked up in the memo by its
plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.coap.cache import CoapCache
from repro.coap.codes import Code
from repro.coap.endpoint import CoapClient
from repro.coap.message import CoapMessage, MessageType
from repro.coap.options import (
    ContentFormat,
    OptionError,
    OptionNumber,
    encode_options,
    encode_uint,
)
from repro.coap.reliability import ReliabilityParams
from repro.coap.uri import UriTemplate, base64url_encode
from repro.dns import DNSCache, Message, Question, RecordType
from repro.dns.resolver import RD_QUERY_FLAGS, ResolutionResult, StubResolver
from repro.oscore import (
    OscoreError,
    SecurityContext,
    protect_request,
    unprotect_response,
)
from repro.oscore.cacheable import protect_cacheable_request
from repro.oscore.protect import response_from_plaintext, seal_request
from repro.sim.clock import Clock

from . import cbor_format
from .caching import CachingScheme, restore_ttls

DEFAULT_TEMPLATE = "/dns{?dns}"

#: A DoC query's DNS header: ID 0 for a deterministic cache key
#: (Section 4.2), RD, one question.
_QUERY_HEADER = bytes((0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0))
_QUERY_METADATA = {"kind": "query", "response_kind": "response"}


class DocError(Exception):
    """Raised for DoC protocol failures."""


@dataclass
class DocResult:
    """Outcome of one DoC resolution."""

    question: Question
    addresses: List[str]
    response: Message
    resolution_time: float
    from_cache: bool = False


class DocClient:
    """A DNS-over-CoAP stub resolver."""

    def __init__(
        self,
        sim: Clock,
        socket,
        server: Tuple[str, int],
        method: Code = Code.FETCH,
        scheme: CachingScheme = CachingScheme.EOL_TTLS,
        content_format: ContentFormat = ContentFormat.DNS_MESSAGE,
        coap_cache: Optional[CoapCache] = None,
        dns_cache: Optional[DNSCache] = None,
        block_size: Optional[int] = None,
        oscore_context: Optional[SecurityContext] = None,
        cacheable_oscore: bool = False,
        verify_max_age: bool = False,
        uri_template: str = DEFAULT_TEMPLATE,
        params: ReliabilityParams = ReliabilityParams(),
    ) -> None:
        if method not in (Code.FETCH, Code.GET, Code.POST):
            raise DocError(f"unsupported DoC method {method!r}")
        if method == Code.GET and oscore_context is not None:
            # Matches the paper's implementation: "for OSCORE we use only
            # FETCH since our implementation does not support GET due to
            # its complexity" (Section 5.1).
            raise DocError("GET is not supported with OSCORE")
        self.sim = sim
        self.server = server
        self.method = method
        self.scheme = scheme
        self.content_format = content_format
        self.oscore_context = oscore_context
        self.cacheable_oscore = cacheable_oscore
        self.verify_max_age = verify_max_age
        if cacheable_oscore and oscore_context is None:
            raise DocError("cacheable_oscore requires an OSCORE context")
        self.template = UriTemplate(uri_template)
        #: The options every FETCH/POST request carries: the template's
        #: path (GET expands it per query), Content-Format and Accept.
        self._request_options = (
            *(
                (OptionNumber.URI_PATH, segment.encode())
                for segment in uri_template.partition("{")[0].split("/")
                if segment
            ),
            (OptionNumber.CONTENT_FORMAT, encode_uint(int(content_format))),
            (OptionNumber.ACCEPT, encode_uint(int(content_format))),
        )
        #: The bytes path: a FETCH/POST query in the DNS message format,
        #: from a client with no CoAP cache and no block size, is a CoAP
        #: body built on this prefix (code, options, 0xFF and the DNS
        #: header): sent as it is, or with OSCORE sealed into an outer
        #: POST. Its replies are read through the CoapClient's reply
        #: memo. ``None`` for every other client, OSCORE with caching or
        #: the Max-Age check among them, which builds a CoapMessage per
        #: query. (A CBOR reply is not memoised: decoding it needs the
        #: question it elides.)
        self._body_prefix: Optional[bytes] = None
        if (
            method != Code.GET
            and (oscore_context is None or not (cacheable_oscore or verify_max_age))
            and coap_cache is None and block_size is None
            and content_format == ContentFormat.DNS_MESSAGE
        ):
            self._body_prefix = (
                bytes((int(method),)) + encode_options(self._request_options)
                + b"\xff" + _QUERY_HEADER
            )
        self.stub = StubResolver(dns_cache)
        self.coap = CoapClient(
            sim, socket, params=params, cache=coap_cache, block_size=block_size
        )
        self.resolutions_started = 0
        self.resolutions_completed = 0
        self.resolutions_failed = 0

    # -- public API ---------------------------------------------------------------

    def resolve(
        self,
        name: str,
        rtype: int = RecordType.AAAA,
        on_result: Callable[[Optional[DocResult], Optional[Exception]], None] = lambda *_: None,
    ) -> None:
        """Resolve *name*; ``on_result(result, error)`` fires exactly once."""
        self.resolutions_started += 1
        question = Question(name, rtype)
        started = self.sim.now

        cached = self.stub.cached_response(question, self.sim.now)
        if cached is not None:
            result = self._build_result(question, cached, started, from_cache=True)
            self.resolutions_completed += 1
            self.sim.schedule(0.0, on_result, result, None)
            return

        request = self._build_request(question)
        self._send(request, question, started, on_result, echo_retry_left=1)

    def cancel_timers(self) -> None:
        """Disarm every in-flight query's retransmission timer, for a
        client whose socket is closing."""
        self.coap.cancel_timers()

    # -- request construction --------------------------------------------------------

    def _encode_query(self, question: Question) -> bytes:
        if self.content_format == ContentFormat.DNS_CBOR:
            return cbor_format.encode_query(question)
        # DNS ID 0 for a deterministic cache key (Section 4.2).
        return Message(0, RD_QUERY_FLAGS, (question,)).encode()

    def _build_request(self, question: Question, message: bool = False):
        """The request for *question*: its CoAP body as bytes on the
        bytes path, unless *message* (the Echo retry, which adds an
        option), else a :class:`CoapMessage`."""
        if self._body_prefix is not None and not message:
            body = bytearray(self._body_prefix)
            question.encode_into(body, None)  # the name's memoised wire form
            return bytes(body)
        if self.method == Code.GET:
            wire = self._encode_query(question)
            segments, queries = self.template.split_expanded(
                dns=base64url_encode(wire)
            )
            message = CoapMessage.request(Code.GET)
            for segment in segments:
                message = message.with_option(
                    OptionNumber.URI_PATH, segment.encode()
                )
            for query_item in queries:
                message = message.with_option(
                    OptionNumber.URI_QUERY, query_item.encode()
                )
            return message

        return CoapMessage(
            MessageType.CON, self.method, 0, b"", self._request_options,
            self._encode_query(question),
        )

    # -- exchange ------------------------------------------------------------------

    def _send(
        self,
        request,
        question: Question,
        started: float,
        on_result,
        echo_retry_left: int,
        echo_value: Optional[bytes] = None,
    ) -> None:
        """Send *request*, a :class:`CoapMessage` or a bytes-path body,
        and see its reply through to ``on_result``."""
        binding = open_body = None
        opened = [None]  # the reply plaintext open_body opened last
        outgoing = request
        if echo_value is not None:  # the Echo retry: a message on either path
            outgoing = self._build_request(question, message=True)
            outgoing = outgoing.with_option(OptionNumber.ECHO, echo_value)
        if self.oscore_context is not None:
            if isinstance(outgoing, bytes):
                outgoing, binding, open_reply = seal_request(
                    self.oscore_context, outgoing
                )

                def open_body(body: bytes) -> Optional[bytes]:
                    opened[0] = open_reply(body)
                    return opened[0]
            elif self.cacheable_oscore:
                outgoing, binding = protect_cacheable_request(
                    self.oscore_context, outgoing
                )
            else:
                outgoing, binding = protect_request(
                    self.oscore_context, outgoing
                )

        def on_response(coap_response: Optional[CoapMessage], error) -> Optional[Message]:
            if error is not None:
                self.resolutions_failed += 1
                on_result(None, error)
                return
            assert coap_response is not None
            outer_max_age = coap_response.max_age
            if binding is not None:
                try:
                    # A reply the bytes path opened is not decrypted twice.
                    coap_response = response_from_plaintext(
                        coap_response, opened[0]
                    ) if opened[0] is not None else unprotect_response(
                        self.oscore_context, coap_response, binding
                    )
                except (OscoreError, OptionError) as exc:
                    # (OptionError: inner options that do not parse)
                    self.resolutions_failed += 1
                    on_result(None, exc)
                    return
                # 4.01 + Echo: repeat the request with the Echo value.
                if coap_response.code == Code.UNAUTHORIZED and echo_retry_left > 0:
                    challenge = coap_response.option(OptionNumber.ECHO)
                    if challenge is not None:
                        self._send(
                            request, question, started, on_result,
                            echo_retry_left - 1, echo_value=challenge,
                        )
                        return
            if not coap_response.code.is_success:
                self.resolutions_failed += 1
                on_result(
                    None,
                    DocError(f"DoC error response {coap_response.code.dotted}"),
                )
                return
            max_age = outer_max_age
            if binding is not None:
                inner_max_age = coap_response.max_age
                if inner_max_age is not None:
                    max_age = inner_max_age
                    if self.cacheable_oscore and outer_max_age is not None:
                        # Cacheable OSCORE: proxies legitimately age the
                        # outer Max-Age; the inner one is the (protected)
                        # original. Never trust the outer value to
                        # *extend* lifetimes.
                        max_age = min(outer_max_age, inner_max_age)
            if self.verify_max_age and binding is not None:
                from .integrity import MaxAgeIntegrityError, check_max_age_consistency

                try:
                    if self.scheme is CachingScheme.EOL_TTLS:
                        max_age = check_max_age_consistency(
                            self.scheme, outer_max_age, inner_max_age
                        ) if outer_max_age is not None else inner_max_age
                    else:
                        decoded = self._decode_response(
                            coap_response.payload, question, None
                        )
                        max_age = check_max_age_consistency(
                            self.scheme, outer_max_age or inner_max_age,
                            inner_max_age, decoded,
                        )
                except (MaxAgeIntegrityError, ValueError) as exc:
                    # (a DNS payload that does not decode, as in _finish)
                    self.resolutions_failed += 1
                    on_result(None, exc)
                    return
            return self._finish(
                question, coap_response.payload, max_age, started, on_result
            )

        def on_memo(response: Message) -> None:
            # A reply to the bytes path that the CoapClient remembers:
            # on_response made *response* of the same reply body (or
            # OSCORE plaintext) before.
            self._complete(question, response, started, on_result)

        self.coap.request(
            outgoing, self.server[0], self.server[1], on_response,
            metadata=_QUERY_METADATA, on_memo=on_memo, open_body=open_body,
        )

    def _finish(
        self, question: Question, payload: bytes, max_age: Optional[int],
        started: float, on_result,
    ) -> Optional[Message]:
        """Complete a resolution with the DNS response in *payload*;
        returns that response with its TTLs restored, or ``None`` when
        the resolution failed instead."""
        try:
            response = self._decode_response(payload, question, max_age)
        except ValueError as exc:
            self.resolutions_failed += 1
            on_result(None, exc)
            return None
        if not self._complete(question, response, started, on_result):
            return None
        return response

    def _complete(
        self, question: Question, response: Message, started: float, on_result
    ) -> bool:
        """Hand *response* to the stub resolver and ``on_result``: the
        answer, or the error when it does not answer *question*."""
        try:
            result = self._build_result(question, response, started)
        except ValueError as exc:
            self.resolutions_failed += 1
            on_result(None, exc)
            return False
        self.resolutions_completed += 1
        on_result(result, None)
        return True

    def _decode_response(
        self, payload: bytes, question: Question, max_age: Optional[int]
    ) -> Message:
        if self.content_format == ContentFormat.DNS_CBOR:
            response = cbor_format.decode_response(payload, question)
        else:
            response = Message.decode(payload)
        return restore_ttls(response, max_age, self.scheme)

    def _build_result(
        self,
        question: Question,
        response: Message,
        started: float,
        from_cache: bool = False,
    ) -> DocResult:
        resolution: ResolutionResult = self.stub.handle_response(
            question, response, self.sim.now
        )
        return DocResult(
            question=question,
            addresses=resolution.addresses,
            response=response,
            resolution_time=self.sim.now - started,
            from_cache=from_cache,
        )
