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

from repro.cache import EvictionPolicy, KeyedCache, LookupState
from repro.coap.codes import Code
from repro.coap.endpoint import CoapServer
from repro.coap.message import CoapMessage
from repro.coap.options import ContentFormat, OptionNumber, encode_uint
from repro.coap.reliability import ReliabilityParams
from repro.coap.uri import base64url_decode
from repro.dns import Message, RecursiveResolver
from repro.dns.resolver import RD_QUERY_FLAGS
from repro.oscore import (
    OscoreError,
    SecurityContext,
    protect_response,
    unprotect_request,
)
from repro.oscore.cacheable import (
    protect_cacheable_response,
    unprotect_deterministic_request,
)
from repro.sim.clock import Clock

from . import cbor_format
from .caching import CachingScheme, compute_etag, prepare_response
from .loadbalance import sort_answers

DOC_RESOURCE = "/dns"


class DocServer:
    """A DNS-over-CoAP server bound to a CoAP server endpoint."""

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
        upstream_delay: float = 0.0,
        sort_records: bool = False,
        fastpath_capacity: int = 0,
    ) -> None:
        self.sim = sim
        self.resolver = resolver
        self.scheme = scheme
        self.oscore_context = oscore_context
        self.deterministic_context = deterministic_context
        self.upstream_delay = upstream_delay
        self.sort_records = sort_records
        self.coap = CoapServer(sim, socket, params)
        self.coap.add_resource(resource, self._handle_plain)
        if oscore_context is not None or deterministic_context is not None:
            self.coap.default_handler = self._handle_oscore
        #: kids that have completed the Echo exchange.
        self._echo_done: Dict[bytes, bool] = {}
        self._echo_values: Dict[bytes, bytes] = {}
        self.queries_handled = 0
        self.validations_sent = 0
        # Fast-path response cache: canonical request identity →
        # prebuilt response template; only MID/token/Max-Age differ
        # between hits. Opt-in (capacity 0 disables) so simulation
        # results — which observe resolver-cache statistics — stay
        # bit-identical unless a scenario asks for it.
        self._fastpath: Optional[KeyedCache] = (
            KeyedCache(fastpath_capacity, policy=EvictionPolicy.LRU)
            if fastpath_capacity > 0
            else None
        )
        self.fastpath_hits = 0
        self.fastpath_misses = 0

    # -- plain CoAP -------------------------------------------------------------

    def _handle_plain(self, request: CoapMessage, respond, metadata: dict) -> None:
        response = self._process(request)
        metadata["response_kind"] = "response"
        if self.upstream_delay > 0:
            self.sim.schedule(self.upstream_delay, respond, response)
        else:
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
            inner, binding = unprotect_request(context, outer)
        except OscoreError:
            respond(outer.make_response(Code.BAD_REQUEST))
            return

        if context.echo_required and not self._echo_done.get(binding.kid):
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

        inner_response = self._process(inner)
        protected = protect_response(context, inner_response, binding)
        metadata["response_kind"] = "response"
        if self.upstream_delay > 0:
            self.sim.schedule(self.upstream_delay, respond, protected)
        else:
            respond(protected)

    def _handle_deterministic(
        self, outer: CoapMessage, respond, metadata: dict
    ) -> None:
        """Serve a cacheable-OSCORE request (no Echo: deterministic
        requests carry no replay window to initialise)."""
        context = self.deterministic_context
        assert context is not None
        try:
            inner, binding = unprotect_deterministic_request(context, outer)
        except OscoreError:
            respond(outer.make_response(Code.BAD_REQUEST))
            return
        inner_response = self._process(inner)
        protected = protect_cacheable_response(
            context, inner_response, binding,
            outer_max_age=inner_response.max_age,
        )
        metadata["response_kind"] = "response"
        if self.upstream_delay > 0:
            self.sim.schedule(self.upstream_delay, respond, protected)
        else:
            respond(protected)

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
        """Resolve one request, via the fast path when it is cache-hot.

        The fast path keys on the canonical request identity — method,
        options (including any validation ETags), and payload — and
        replays a prebuilt response template with only MID, token, and
        Max-Age patched in: a hot query never touches the resolver and
        never re-prepares its payload.
        """
        cache = self._fastpath
        if cache is None:
            return self._resolve(request)
        now = self.sim.now
        key = (int(request.code), request.options, request.payload)
        entry, state = cache.lookup(key, now)
        if state is LookupState.HIT:
            self.fastpath_hits += 1
            self.queries_handled += 1
            code, options, payload = entry.value
            if code is Code.VALID:
                self.validations_sent += 1
            # Max-Age is the last option of every reply ``_resolve`` builds.
            max_age = (OptionNumber.MAX_AGE, encode_uint(entry.remaining(now)))
            return request.make_response(
                code, payload=payload, options=(*options[:-1], max_age)
            )
        self.fastpath_misses += 1
        response = self._resolve(request)
        max_age = response.max_age
        if response.code in (Code.CONTENT, Code.VALID) and max_age:
            cache.store(
                key,
                (response.code, response.options, response.payload),
                float(max_age),
                now,
            )
        return response

    def _resolve(self, request: CoapMessage) -> CoapMessage:
        if request.code not in (Code.FETCH, Code.GET, Code.POST):
            return request.make_response(Code.METHOD_NOT_ALLOWED)
        try:
            query, response_format = self._extract_query(request)
        except ValueError:
            return request.make_response(Code.BAD_REQUEST)

        self.queries_handled += 1
        dns_response = self.resolver.resolve(query, self.sim.now)
        if self.sort_records:
            dns_response = sort_answers(dns_response)

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

        # Replies are built in one call with their options in number
        # order (ETag 4, Content-Format 12, Max-Age 14, the last).
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
