"""CoAP endpoints: the message layer and request/response layer.

:class:`CoapClient` and :class:`CoapServer` implement RFC 7252's two
sub-layers over any datagram transport (a simulated UDP socket or a
DTLS session adapter):

* message layer — CON/ACK/RST exchange, deduplication, and the
  exponential back-off retransmission of §4.2 (the source of the gray
  regions in the paper's Figure 11);
* request/response layer — token matching, piggybacked and separate
  responses, and block-wise transfers (RFC 7959) in both directions.

The client can be given a :class:`repro.coap.cache.CoapCache` to act as
the paper's "CoAP client cache" configuration, including ETag
revalidation of stale entries.

Both roles have a bytes path beside the message one. The server offers
every request body to its :class:`FastPath`, which answers what it can
in bytes; the client sends a request given as its body, and completes a
reply whose body it has seen before from a memo of what its caller made
of that body. Neither decodes or encodes a :class:`CoapMessage` there.

Server state expires by position, not by timer. The deduplication table
and the block-wise state of both directions keep every entry for the
same :data:`EXCHANGE_LIFETIME`, so insertion order *is* expiry order:
storing an entry first drops the expired ones from the front of its
table, and no per-reply timer is armed on either substrate. An expired
entry may therefore sit in its table until the next one is stored, and
is never served: every lookup compares its time against the clock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.sim.clock import Clock, Timer

from .blockwise import Block, BlockAssembler, BlockError, block_for
from .cache import CoapCache
from .codes import Code
from .message import CoapMessage, CoapMessageError, MessageType
from .options import OptionError, OptionNumber
from .reliability import ReliabilityParams, TransmissionState

#: How long the server remembers an exchange: the reply kept for
#: deduplication and the block-wise state of both directions.
EXCHANGE_LIFETIME = 247.0

#: How many reply bodies a client keeps with the value its body
#: requests made of them (see :meth:`CoapClient.request`). A Max-Age
#: counting down makes a new body every second, so only the last few
#: seconds of a small name set are worth keeping.
REPLY_MEMO_CAPACITY = 64


def _remember(table: OrderedDict, key, value, now: float) -> None:
    """Store *value* under *key* for :data:`EXCHANGE_LIFETIME`.

    Every entry lives equally long and a stored key always moves to the
    end, so insertion order is expiry order: what has expired sits at
    the front and is dropped here, before the next entry goes in.
    """
    while table and next(iter(table.values()))[0] <= now:
        table.popitem(last=False)
    table.pop(key, None)
    table[key] = (now + EXCHANGE_LIFETIME, value)


def _recall(table: OrderedDict, key, now: float):
    """The value :func:`_remember` stored under *key*, or ``None`` when
    there is none or its time has passed (it may still sit in *table*)."""
    entry = table.get(key)
    if entry is None or entry[0] <= now:
        return None
    return entry[1]


class CoapTimeoutError(Exception):
    """Raised (delivered via errback) when retransmissions are exhausted."""


@dataclass
class ClientEvent:
    """One client-side transmission/cache event (Figure 11 input)."""

    time: float
    kind: str          # "transmission" | "retransmission" | "cache_hit" | "validation"
    token: bytes
    mid: int


class _Exchange:
    """State of one outstanding request.

    ``wire`` holds the bytes last sent, and a retransmission resends
    them as they are. ``request`` is the message they encode; it is
    ``None`` for a request issued as a body (see
    :meth:`CoapClient.request`) unless a block-wise reply needed it.
    The class attributes are the defaults an exchange overrides only
    when it gets that far.
    """

    request: Optional[CoapMessage] = None
    transmission: Optional[TransmissionState] = None
    timer: Optional[Timer] = None
    acknowledged = False
    block1_body: Optional[bytes] = None
    block1_number = 0
    block2_assembler: Optional[BlockAssembler] = None
    first_block_response: Optional[CoapMessage] = None
    done = False

    def __init__(
        self,
        token: bytes,
        dst: Tuple[str, int],
        on_response: Callable[[Optional[CoapMessage], Optional[Exception]], object],
        metadata: dict,
        on_memo: Optional[Callable[[object], None]] = None,
        open_body: Optional[Callable[[bytes], Optional[bytes]]] = None,
    ) -> None:
        self.token = token
        self.dst = dst
        self.on_response = on_response
        self.on_memo = on_memo
        self.open_body = open_body
        self.metadata = metadata

    def carry(self, message: CoapMessage) -> None:
        """Make *message* the request this exchange (re)transmits."""
        self.request = message
        self.mid = message.mid
        self.wire = message.encode()


class CoapClient:
    """The client role: request/response with reliability and block-wise.

    Parameters
    ----------
    sim:
        The runtime :class:`~repro.sim.clock.Clock` (timers and RNG) —
        a :class:`~repro.sim.core.Simulator` for simulated runs or an
        :class:`~repro.live.clock.AsyncioClock` for real sockets.
    socket:
        Object with ``sendto(payload, dst_addr, dst_port, metadata)``
        and an ``on_datagram`` callback attribute.
    cache:
        Optional CoAP response cache (the paper's client CoAP cache).
    block_size:
        When set, force block-wise transfer with this block size for
        request bodies (Block1) and ask for it in responses (Block2).
    """

    def __init__(
        self,
        sim: Clock,
        socket,
        params: ReliabilityParams = ReliabilityParams(),
        cache: Optional[CoapCache] = None,
        block_size: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.socket = socket
        self.params = params
        self.cache = cache
        self.block_size = block_size
        #: The transmission/cache timeline, one record per transmission
        #: for as long as the client lives: off until a reader (Fig. 11,
        #: through ``ScenarioRunner.run``) sets a list here.
        self.events: Optional[List[ClientEvent]] = None
        self._exchanges: Dict[bytes, _Exchange] = {}
        #: Reply bodies and the values body requests made of them, at
        #: most REPLY_MEMO_CAPACITY, the oldest dropped first.
        self._replies: Dict[bytes, object] = {}
        self._next_mid = sim.rng.randrange(0x10000)
        self._next_token = sim.rng.randrange(1 << 32)
        socket.on_datagram = self._on_datagram

    # -- public API -----------------------------------------------------------

    def request(
        self,
        message,
        dst_addr: str,
        dst_port: int,
        on_response: Callable[[Optional[CoapMessage], Optional[Exception]], object],
        metadata: Optional[dict] = None,
        on_memo: Optional[Callable[[object], None]] = None,
        open_body: Optional[Callable[[bytes], Optional[bytes]]] = None,
    ) -> bytes:
        """Issue *message*; ``on_response(response, error)`` fires once,
        or for a body request ``on_memo`` may fire in its place.

        *message* is a :class:`CoapMessage`, or the body of a CON
        request as bytes, ``code || options || 0xFF payload``, for a
        client with no cache and no block size: the header and token
        are written in front of it. A reply to a body request is read
        from its bytes first. When ``on_response`` returned a value
        for a reply that came in one datagram, the value is kept under
        the reply's body, ``code || options || 0xFF payload``; a later
        reply with that body to a body request goes to
        ``on_memo(value)`` instead and is decoded no further. So the
        body requests of one client must all make the same value of
        the same reply body. With *open_body*, the memo key is what
        ``open_body(reply body)`` returns instead (an OSCORE request's
        opened reply), and a reply it returns ``None`` for is decoded and
        not kept. A message request ignores *on_memo* and *open_body*.

        Returns the token assigned to the exchange. Responses served
        from the local cache short-circuit the network entirely.
        """
        metadata = dict(metadata or {})
        token = self._claim_token()
        dst = (dst_addr, dst_port)
        if isinstance(message, bytes):
            exchange = _Exchange(token, dst, on_response, metadata, on_memo, open_body)
            mid = exchange.mid = self._claim_mid()
            # Version 1, CON, a 4-byte token; then the code.
            exchange.wire = (
                bytes((0x44, message[0], mid >> 8, mid & 0xFF)) + token + message[1:]
            )
        else:
            message = self._prepare(message, token)
            if self.cache is not None and self._try_cache(
                message, dst_addr, dst_port, on_response, metadata
            ):
                return token
            exchange = _Exchange(token, dst, on_response, metadata)
            exchange.request = message
            if self.block_size is not None and len(message.payload) > self.block_size:
                exchange.block1_body = message.payload
                message = self._block1_request(exchange, 0)
            exchange.carry(message)
        self._exchanges[token] = exchange
        self._transmit(exchange, first=True)
        return token

    def cancel_timers(self) -> None:
        """Disarm every outstanding exchange's retransmission timer,
        for a client whose socket is closing; nothing more is sent and
        the exchanges stay unanswered."""
        for exchange in self._exchanges.values():
            self._stop_timer(exchange)

    # -- cache integration ------------------------------------------------------

    def _try_cache(
        self,
        message: CoapMessage,
        dst_addr: str,
        dst_port: int,
        on_response,
        metadata: dict,
    ) -> bool:
        assert self.cache is not None
        fresh, entry = self.cache.lookup(message, self.sim.now)
        if fresh is not None:
            self._record("cache_hit", message.token, message.mid)
            self.sim.schedule(0.0, on_response, fresh, None)
            return True
        if entry is not None and entry.etag is not None:
            # Stale entry: revalidate with the ETag.
            message = message.with_option(OptionNumber.ETAG, entry.etag)
            original = on_response

            def on_validated(response: Optional[CoapMessage], error):
                if response is not None and response.code == Code.VALID:
                    revived = self.cache.refresh(
                        message.without_option(OptionNumber.ETAG), response, self.sim.now
                    )
                    if revived is not None:
                        self._record("validation", message.token, message.mid)
                        original(revived, None)
                        return
                original(response, error)

            exchange = _Exchange(
                message.token, (dst_addr, dst_port), on_validated, metadata
            )
            exchange.carry(message)
            self._exchanges[message.token] = exchange
            self._transmit(exchange, first=True)
            return True
        return False

    # -- internals ----------------------------------------------------------------

    def _record(self, kind: str, token: bytes, mid: int) -> None:
        if self.events is not None:
            self.events.append(ClientEvent(self.sim.now, kind, token, mid))

    def _claim_token(self) -> bytes:
        token = self._next_token.to_bytes(4, "big")
        self._next_token = (self._next_token + 1) & 0xFFFFFFFF
        return token

    def _claim_mid(self) -> int:
        mid = self._next_mid
        self._next_mid = (self._next_mid + 1) & 0xFFFF
        return mid

    def _prepare(self, message: CoapMessage, token: bytes) -> CoapMessage:
        options = message.options
        if self.block_size is not None and not any(
            number == OptionNumber.BLOCK2 for number, _ in options
        ):
            # Ask the server to use our block size for the response.
            options += (
                (OptionNumber.BLOCK2, Block(0, False, self.block_size).encode()),
            )
        return CoapMessage(
            message.mtype, message.code, self._claim_mid(), token,
            options, message.payload,
        )

    def _block1_request(self, exchange: _Exchange, number: int) -> CoapMessage:
        assert exchange.block1_body is not None
        block, chunk = block_for(exchange.block1_body, number, self.block_size)
        message = replace(
            exchange.request, payload=chunk, mid=self._claim_mid()
        ).without_option(OptionNumber.BLOCK1).with_option(
            OptionNumber.BLOCK1, block.encode()
        )
        exchange.block1_number = number
        return message

    def _transmit(self, exchange: _Exchange, first: bool) -> None:
        self._record(
            "transmission" if first else "retransmission",
            exchange.token, exchange.mid,
        )
        wire = exchange.wire
        self.socket.sendto(wire, exchange.dst[0], exchange.dst[1], exchange.metadata)
        if wire[0] & 0x30 == 0:  # CON
            if first:
                exchange.transmission = TransmissionState(self.params, self.sim.rng)
            assert exchange.transmission is not None
            exchange.timer = self.sim.schedule(
                exchange.transmission.timeout, self._on_timeout, exchange
            )

    def _on_timeout(self, exchange: _Exchange) -> None:
        if exchange.done or exchange.acknowledged:
            return
        assert exchange.transmission is not None
        if exchange.transmission.register_timeout():
            self._transmit(exchange, first=False)
        else:
            self._fail(exchange, CoapTimeoutError("retransmissions exhausted"))

    def _fail(self, exchange: _Exchange, error: Exception) -> None:
        if exchange.done:
            return
        exchange.done = True
        self._exchanges.pop(exchange.token, None)
        exchange.on_response(None, error)

    def _on_datagram(self, src_addr: str, src_port: int, data: bytes, metadata: dict) -> None:
        """Handle one datagram, a reply to a body request read from its
        bytes first.

        The 4-byte header and the token of a CON, NON or ACK name the
        exchange. When that is a body request and the rest, the reply
        body (or what its ``open_body`` makes of it), is one the memo
        holds (see :meth:`request`), the reply is
        handled as the decoded one would be, in bytes: a CON is ACKed,
        and the exchange ends in ``on_memo``. Everything else is
        decoded: empty ACKs and RSTs, replies to message requests,
        reply bodies the memo does not hold, and malformed datagrams,
        which are dropped.
        """
        size = len(data)
        first = data[0] if size >= 4 else 0
        offset = 4 + (first & 0x0F)
        body = None
        if first & 0xF0 in (0x40, 0x50, 0x60) and offset <= 12 and offset <= size:
            # Version 1, not an RST, and a token (at most 8 bytes) that fits.
            exchange = self._exchanges.get(bytes(data[4:offset]))
            if exchange is not None and exchange.on_memo is not None:
                body = bytes((data[1],)) + data[offset:]  # code || the rest
                if exchange.open_body is not None:
                    body = exchange.open_body(body)
                value = self._replies.get(body)
                if value is not None:
                    if first & 0x30 == 0:  # a separate CON response
                        self._send_ack(data[2], data[3], src_addr, src_port)
                    self._stop_timer(exchange)
                    exchange.done = True
                    del self._exchanges[exchange.token]
                    exchange.on_memo(value)
                    return

        message = _decode(data)
        if message is None:
            return
        if message.mtype == MessageType.ACK and message.code == Code.EMPTY:
            # Empty ACK: stop retransmitting, await separate response.
            for exchange in self._exchanges.values():
                if exchange.mid == message.mid:
                    self._stop_timer(exchange)
                    exchange.acknowledged = True
                    return
            return
        if message.mtype == MessageType.RST:
            for exchange in list(self._exchanges.values()):
                if exchange.mid == message.mid:
                    self._fail(exchange, CoapTimeoutError("reset by peer"))
            return
        if not message.code.is_response:
            return

        exchange = self._exchanges.get(message.token)
        if message.mtype == MessageType.CON:
            # Separate CON response: always ACK, even duplicates.
            self._send_ack(data[2], data[3], src_addr, src_port)
        if exchange is None or exchange.done:
            return
        self._stop_timer(exchange)
        exchange.acknowledged = True
        value = self._handle_response(exchange, message)
        if value is not None and body is not None:
            replies = self._replies
            if len(replies) >= REPLY_MEMO_CAPACITY:
                del replies[next(iter(replies))]
            replies[body] = value

    def _send_ack(self, mid_high: int, mid_low: int, dst_addr: str, dst_port: int) -> None:
        """Send the empty ACK to the CON whose MID is these two bytes."""
        self.socket.sendto(
            bytes((0x60, 0, mid_high, mid_low)), dst_addr, dst_port, {"kind": "ack"}
        )

    def _stop_timer(self, exchange: _Exchange) -> None:
        if exchange.timer is not None:
            exchange.timer.cancel()
            exchange.timer = None

    def _handle_response(self, exchange: _Exchange, response: CoapMessage):
        """Continue or complete *exchange* with *response*; returns what
        ``on_response`` returned when the response came in one piece."""
        # Block1 continuation (2.31 Continue).
        if response.code == Code.CONTINUE and exchange.block1_body is not None:
            next_number = exchange.block1_number + 1
            exchange.carry(self._block1_request(exchange, next_number))
            exchange.transmission = None
            self._transmit(exchange, first=True)
            return None

        # Block2 download.
        block2_data = response.option(OptionNumber.BLOCK2)
        if block2_data is not None:
            try:
                block = Block.decode(block2_data)
                if exchange.block2_assembler is None:
                    exchange.block2_assembler = BlockAssembler()
                    exchange.first_block_response = response
                exchange.block2_assembler.add(block, response.payload)
            except BlockError as error:
                # An invalid Block2 value, or a block the transfer
                # cannot take: the exchange fails with it.
                self._fail(exchange, error)
                return None
            if block.more:
                if exchange.request is None:  # a body request
                    exchange.request = CoapMessage.decode(exchange.wire)
                # Continuation: same token, no body (RFC 7959 §3.3).
                next_request = replace(
                    exchange.request, mid=self._claim_mid(), payload=b""
                ).without_option(OptionNumber.BLOCK2).without_option(
                    OptionNumber.BLOCK1
                ).with_option(
                    OptionNumber.BLOCK2,
                    Block(block.number + 1, False, block.size).encode(),
                )
                exchange.carry(next_request)
                exchange.transmission = None
                exchange.acknowledged = False
                self._transmit(exchange, first=True)
                return None
            # Complete: synthesise the full response.
            first = exchange.first_block_response
            assert first is not None
            response = replace(
                first.without_option(OptionNumber.BLOCK2),
                payload=exchange.block2_assembler.body(),
            )

        exchange.done = True
        self._exchanges.pop(exchange.token, None)
        if self.cache is not None:
            key_request = exchange.request.without_option(OptionNumber.ETAG)
            if response.code == Code.VALID:
                pass  # refresh handled by the validation callback
            else:
                self.cache.store(key_request, response, self.sim.now)
        value = exchange.on_response(response, None)
        return value if exchange.block2_assembler is None else None


ResourceHandler = Callable[
    [CoapMessage, Callable[[CoapMessage], None], dict], None
]


class FastPath(Protocol):
    """A resource that :class:`CoapServer` offers raw requests to.

    A *body* is ``code || options || 0xFF payload``: a request datagram
    without its type, MID and token. :meth:`answer` returns the reply to
    a body as ``(code, max_age, rest)``, the reply body being ``code ||
    rest``, or ``None`` to leave the request to the message path.
    """

    def answer(self, body: bytes) -> Optional[Tuple[int, Optional[int], bytes]]: ...


class CoapServer:
    """The server role: resources, dedup, separate responses, Block2.

    Handlers receive ``(request, respond, metadata)`` and must call
    ``respond(response_message)`` exactly once, synchronously or later
    (a later call produces an empty ACK + separate CON response, the
    behaviour a proxy needs while it forwards upstream).
    """

    def __init__(
        self,
        sim: Clock,
        socket,
        params: ReliabilityParams = ReliabilityParams(),
    ) -> None:
        self.sim = sim
        self.socket = socket
        self.params = params
        self._resources: Dict[str, ResourceHandler] = {}
        self.default_handler: Optional[ResourceHandler] = None
        #: Answers requests from their bytes (see :meth:`_on_datagram`).
        self.fast_path: Optional[FastPath] = None
        # The three tables below are written by _remember and read by
        # _recall: an entry is (expires_at, value).
        #: (peer, mid, token) -> encoded reply, for deduplication. The
        #: token is part of the key because the 16-bit MID wraps inside
        #: EXCHANGE_LIFETIME on a busy connection: a new exchange that
        #: reuses a MID carries a new token and is not a duplicate.
        self._dedup: OrderedDict = OrderedDict()
        #: Block2 continuation state: full responses by (peer, token).
        self._block2_store: OrderedDict = OrderedDict()
        #: Block1 uploads in progress: assemblers by token.
        self._block1_assembly: OrderedDict = OrderedDict()
        #: Separate CON responses awaiting their ACK, by (peer, mid)
        #: (RFC 7252 §4.4 matches an ACK per endpoint): the
        #: retransmission state, dropped on ACK, RST or giving up.
        self._separate_pending: Dict[Tuple[str, int, int], TransmissionState] = {}
        self._next_mid = sim.rng.randrange(0x10000)
        socket.on_datagram = self._on_datagram

    def add_resource(self, path: str, handler: ResourceHandler) -> None:
        """Route *path* to *handler*."""
        self._resources["/" + path.strip("/")] = handler

    # -- receive path -----------------------------------------------------------

    def _on_datagram(self, src_addr: str, src_port: int, data: bytes, metadata: dict) -> None:
        """Handle one datagram, a request read from its bytes first.

        The 4-byte header and the token of a CON or NON request give
        its deduplication key, and the rest, its body, is offered to
        the :class:`FastPath` before anything is decoded. A body it
        answers is answered in bytes, building no :class:`CoapMessage`:
        ACK for CON, NON for NON, the request's MID and token, then the
        reply body. A CON the fast path leaves that is no request gets
        an RST with its MID (RFC 7252 §4.2, §5.3.2): an Empty message,
        the CoAP ping (§4.3) or one with a token or bytes it must not
        carry (§4.1), a response, or a reserved code class. Everything
        else is decoded: ACK and RST, requests the fast path leaves to
        the message path, and malformed datagrams, which are dropped
        without a reply.
        """
        size = len(data)
        first = data[0] if size >= 4 else 0
        offset = 4 + (first & 0x0F)
        if first & 0xE0 != 0x40 or offset > 12 or offset > size:
            # Not a version-1 CON or NON whose token (at most 8 bytes)
            # fits: an ACK or RST, or nothing the decoder accepts.
            message = _decode(data)
            if message is not None and message.mtype in (
                MessageType.ACK, MessageType.RST
            ):
                self._separate_pending.pop((src_addr, src_port, message.mid), None)
            return

        dedup_key = (src_addr, src_port, (data[2] << 8) | data[3], bytes(data[4:offset]))
        cached_reply = _recall(self._dedup, dedup_key, self.sim.now)
        if cached_reply is not None:
            message = _decode(data)
            if message is not None and message.code.is_request:
                self.socket.sendto(cached_reply, src_addr, src_port, {"kind": "dup-reply"})
            return

        fast_path = self.fast_path
        if fast_path is not None:
            reply = fast_path.answer(bytes((data[1],)) + data[offset:])  # code || the rest
            if reply is not None:
                code, _, rest = reply
                reply_type = first if first & 0x10 else first | 0x20  # CON -> ACK
                self._send_reply(
                    bytes((reply_type, code)) + data[2:offset] + rest,
                    src_addr, src_port, dedup_key, metadata,
                )
                return

        if not 0 < data[1] < 32:
            # Code 0.00 or a class other than 0: not a request. A CON
            # gets an RST, a NON nothing.
            if not first & 0x10:
                self.socket.sendto(bytes((0x70, 0, data[2], data[3])), src_addr, src_port, {"kind": "rst"})
            return
        message = _decode(data)
        if message is None:
            return
        path = message.uri_path
        handler = self._resources.get(path, self.default_handler)
        if handler is None:
            self._reply(
                message, src_addr, src_port,
                message.make_response(Code.NOT_FOUND), dedup_key, metadata,
            )
            return

        block1 = _request_block(message, OptionNumber.BLOCK1)
        block2 = _request_block(message, OptionNumber.BLOCK2)
        for refusal in (block1, block2):
            if isinstance(refusal, Code):
                self._reply(
                    message, src_addr, src_port, message.make_response(refusal),
                    dedup_key, metadata,
                )
                return
        request = message
        if block1 is not None:
            request, early_reply = self._apply_blockwise_request(message, block1)
            if early_reply is not None:
                self._reply(message, src_addr, src_port, early_reply, dedup_key, metadata)
                return
        if block2 is not None and self._serve_block2_continuation(
            message, block2, src_addr, src_port, dedup_key, metadata
        ):
            return

        responded = {"sync": True, "done": False}

        def respond(response: CoapMessage) -> None:
            if responded["done"]:
                raise RuntimeError("respond() called twice")
            responded["done"] = True
            if block2 is not None:
                response = self._apply_blockwise_response(
                    message, block2, response, src_addr, src_port
                )
            if not responded["sync"]:
                self._send_separate(message, src_addr, src_port, response, metadata)
                return
            self._reply(message, src_addr, src_port, response, dedup_key, metadata)

        handler(request, respond, metadata)
        if not responded["done"] and message.mtype == MessageType.CON:
            # Handler deferred: empty ACK now, separate response later.
            self.socket.sendto(
                message.make_ack().encode(), src_addr, src_port, {"kind": "ack"}
            )
        responded["sync"] = False

    # -- block-wise (server side) --------------------------------------------------

    def _apply_blockwise_request(self, message: CoapMessage, block: Block):
        """Handle Block1 assembly; returns (complete_request, early_reply)."""
        key = (message.token.hex(), 1)
        assembler = _recall(self._block1_assembly, key, self.sim.now)
        fresh = assembler is None or block.number == 0
        if fresh:
            assembler = BlockAssembler()
            _remember(self._block1_assembly, key, assembler, self.sim.now)
        try:
            complete = assembler.add(block, message.payload)
        except Exception:
            if fresh:
                # Nothing was assembled — typically a continuation of
                # an upload that has expired. The assembler can accept
                # no later block, so it must not hold a slot either.
                del self._block1_assembly[key]
            return None, message.make_response(Code.REQUEST_ENTITY_INCOMPLETE)
        if not complete:
            reply = message.make_response(Code.CONTINUE).with_option(
                OptionNumber.BLOCK1, block.encode()
            )
            return None, reply
        del self._block1_assembly[key]
        full = replace(message, payload=assembler.body()).without_option(
            OptionNumber.BLOCK1
        )
        return full, None

    def _serve_block2_continuation(
        self, message: CoapMessage, block: Block, src_addr: str,
        src_port: int, dedup_key, metadata,
    ) -> bool:
        if block.number == 0:
            return False
        # Continuation requests keep the exchange token (RFC 7959
        # §3.3), so the token identifies the stored full response.
        full = _recall(
            self._block2_store, (src_addr, src_port, message.token), self.sim.now
        )
        if full is None:
            self._reply(
                message, src_addr, src_port,
                message.make_response(Code.REQUEST_ENTITY_INCOMPLETE),
                dedup_key, metadata,
            )
            return True
        try:
            blk, chunk = block_for(full.payload, block.number, block.size)
        except Exception:
            self._reply(
                message, src_addr, src_port,
                message.make_response(Code.BAD_OPTION), dedup_key, metadata,
            )
            return True
        piece = replace(
            full, payload=chunk, mid=message.mid, token=message.token,
            mtype=MessageType.ACK if message.mtype == MessageType.CON else MessageType.NON,
        ).without_option(OptionNumber.BLOCK2).with_option(
            OptionNumber.BLOCK2, blk.encode()
        )
        self._reply(message, src_addr, src_port, piece, dedup_key, metadata)
        return True

    def _apply_blockwise_response(
        self, request: CoapMessage, preferred: Block, response: CoapMessage,
        src_addr: str, src_port: int,
    ) -> CoapMessage:
        """Slice a large response into block 0 of the requested size."""
        if not response.code.is_success:
            return response
        if len(response.payload) <= preferred.size:
            return response
        # Store the full response for continuations, send block 0.
        _remember(
            self._block2_store, (src_addr, src_port, request.token), response,
            self.sim.now,
        )
        blk, chunk = block_for(response.payload, 0, preferred.size)
        return replace(response, payload=chunk).with_option(
            OptionNumber.BLOCK2, blk.encode()
        )

    # -- send path ---------------------------------------------------------------

    def _reply(
        self,
        request: CoapMessage,
        src_addr: str,
        src_port: int,
        response: CoapMessage,
        dedup_key,
        metadata: dict,
    ) -> None:
        """Send *response* as the reply to *request*."""
        mtype = (
            MessageType.ACK if request.mtype == MessageType.CON
            else MessageType.NON
        )
        if (
            response.mtype != mtype
            or response.mid != request.mid
            or response.token != request.token
        ):
            # Not what make_response already set (the piggybacked case).
            response = CoapMessage(
                mtype, response.code, request.mid, request.token,
                response.options, response.payload,
            )
        self._send_reply(response.encode(), src_addr, src_port, dedup_key, metadata)

    def _send_reply(
        self, wire: bytes, src_addr: str, src_port: int, dedup_key,
        metadata: dict,
    ) -> None:
        """Send a reply's bytes, remembered for deduplication."""
        _remember(self._dedup, dedup_key, wire, self.sim.now)
        out_metadata = dict(metadata)
        out_metadata["kind"] = out_metadata.get("response_kind", "response")
        self.socket.sendto(wire, src_addr, src_port, out_metadata)

    def _send_separate(
        self,
        request: CoapMessage,
        src_addr: str,
        src_port: int,
        response: CoapMessage,
        metadata: dict,
    ) -> None:
        mid = self._next_mid
        self._next_mid = (self._next_mid + 1) & 0xFFFF
        response = CoapMessage(
            MessageType.CON, response.code, mid, request.token,
            response.options, response.payload,
        )
        out_metadata = dict(metadata)
        out_metadata["kind"] = out_metadata.get("response_kind", "response")
        # Separate CON responses get their own (simple) retransmission,
        # until _on_datagram sees the ACK or RST from this peer.
        state = TransmissionState(self.params, self.sim.rng)
        encoded = response.encode()
        pending = (src_addr, src_port, mid)
        self._separate_pending[pending] = state

        def send_and_arm() -> None:
            self.socket.sendto(encoded, src_addr, src_port, out_metadata)
            self.sim.schedule(state.timeout, maybe_retransmit)

        def maybe_retransmit() -> None:
            if self._separate_pending.get(pending) is not state:
                return  # acknowledged
            if state.register_timeout():
                send_and_arm()
            else:
                del self._separate_pending[pending]  # given up

        send_and_arm()


def _request_block(message: CoapMessage, number: int):
    """The Block1 or Block2 option (*number*) of request *message*: a
    :class:`Block`, ``None`` when it has none, or the :class:`Code`
    that refuses it — 4.02 Bad Option for a value longer than 3 bytes
    (RFC 7252 §5.4.3 treats it as an unrecognised critical option,
    §5.4.1), 4.00 for the reserved SZX 7 (RFC 7959 §2.2)."""
    value = message.option(number)
    if value is None:
        return None
    if len(value) > 3:
        return Code.BAD_OPTION
    try:
        return Block.decode(value)
    except BlockError:
        return Code.BAD_REQUEST


def _decode(data) -> Optional[CoapMessage]:
    """*data* decoded, or ``None`` when it is malformed."""
    try:
        return CoapMessage.decode(data)
    except (CoapMessageError, OptionError):
        return None
