"""Handler fuzzing: mutated datagrams must not escape the DoC server.

``tests/test_fuzz_decoders.py`` feeds random bytes to each decoder. This
harness drives the *handler* that runs after them: the ``coap``
profile's ``server_builder`` server on a simulated clock, in four
configurations, without and with an OSCORE context and with the
response cache at 64 entries and off. It replays the checked-in corpus
first (``handler_fuzz_corpus.txt``: hex datagrams taken from the
reply-stream and conformance harnesses' requests), then mutates corpus
entries under a fixed seed. A mutant that runs a line of ``repro`` no
earlier input ran joins the corpus, so the mutation follows coverage.

The invariants, for every datagram:

* nothing escapes ``on_datagram``, nor a timer it set;
* every reply decodes as a CoAP message.

``tests/test_handler_fuzz.py`` runs a fixed number of inputs per
configuration in tier-1. A longer run is a manual command; it prints
what breaks an invariant, and each input that reached a new line as a
corpus line to check in::

    PYTHONPATH=src python tests/handler_fuzz.py --inputs 100000
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import traceback
from typing import Callable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.coap import CoapMessage
from repro.dns import RecursiveResolver, Zone
from repro.doc import CachingScheme
from repro.oscore import SecurityContext
from repro.sim import Simulator
from repro.transports import get_profile

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "handler_fuzz_corpus.txt")
#: The context both ends of the corpus's OSCORE requests derive.
SECRET, SALT = b"reply-stream-secret", b"salt"
PEER = ("fe80::1", 40001)
#: (OSCORE context, response cache capacity) per configuration.
CONFIGURATIONS = ((False, 64), (False, 0), (True, 64), (True, 0))
SEED = 20230
_SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(
    sys.modules["repro"].__file__
)))
#: Byte values that sit on a boundary of some field.
_INTERESTING = (0x00, 0x01, 0x0C, 0x0D, 0x0E, 0x0F, 0x40, 0x7F, 0x80,
                0xD0, 0xE0, 0xF0, 0xFF)


class Find(NamedTuple):
    """An input that broke an invariant."""

    configuration: Tuple[bool, int]
    datagram: bytes
    failure: str


def load_corpus(path: str = CORPUS) -> List[bytes]:
    """The corpus file's datagrams: one hex string per line, with
    anything after it a comment."""
    with open(path, encoding="ascii") as handle:
        return [
            bytes.fromhex(line.split()[0])
            for line in handle
            if line.strip() and not line.startswith("#")
        ]


class _Socket:
    def __init__(self) -> None:
        self.on_datagram = None
        self.sent: List[bytes] = []

    def sendto(self, payload, dst_addr, dst_port, metadata=None):
        self.sent.append(bytes(payload))


def _server(secured: bool, capacity: int):
    """A fresh server: ``(simulator, socket)``."""
    zone = Zone()
    zone.add_address("a.example.org", "2001:db8::1", ttl=120)
    zone.add_address("a.example.org", "192.0.2.1", ttl=120)
    zone.add_address("b.example.org", "2001:db8::2", ttl=30)
    zone.add_address("c.example.org", "2001:db8::3", ttl=300)
    sim, socket = Simulator(seed=11), _Socket()
    _, server_context = SecurityContext.pair(SECRET, SALT)
    get_profile("coap").server_builder(
        sim, socket, RecursiveResolver(zone), scheme=CachingScheme.EOL_TTLS,
        oscore_context=server_context if secured else None,
        fastpath_capacity=capacity,
    )
    return sim, socket


def feed(sim: Simulator, socket: _Socket, datagram: bytes) -> Optional[str]:
    """Hand *datagram* to the server and run its timers for a second;
    what broke an invariant, or ``None``."""
    sent = len(socket.sent)
    try:
        socket.on_datagram(*PEER, datagram, {})
        sim.run(until=sim.now + 1.0)
    except Exception:  # noqa: BLE001 - an escape is what the harness looks for
        return "escaped: " + traceback.format_exc(limit=-3).strip()
    for reply in socket.sent[sent:]:
        try:
            CoapMessage.decode(reply)
        except Exception as error:  # noqa: BLE001
            return f"reply {reply.hex()} does not decode: {error!r}"
    return None


def mutate(data: bytes, rng: random.Random, corpus: List[bytes]) -> bytes:
    """One to four random edits of *data*: a byte flipped, set to a
    boundary value, inserted or deleted, a cut, or a splice with another
    corpus entry."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(6)
        at = rng.randrange(len(out) + 1)
        if kind == 0 and at < len(out):
            out[at] ^= 1 << rng.randrange(8)
        elif kind == 1 and at < len(out):
            out[at] = rng.choice(_INTERESTING)
        elif kind == 2:
            out.insert(at, rng.randrange(256))
        elif kind == 3 and at < len(out):
            del out[at]
        elif kind == 4:
            del out[at:]
        else:
            other = rng.choice(corpus)
            out[at:] = other[rng.randrange(len(other) + 1):]
    return bytes(out)


class _LineTracer:
    """The lines of ``repro`` that ran inside the ``with`` block, as
    (code object, line) pairs."""

    def __enter__(self) -> Set[Tuple[object, int]]:
        lines: Set[Tuple[object, int]] = set()

        def local(frame, event, arg):
            if event == "line":
                lines.add((frame.f_code, frame.f_lineno))
            return local

        def calls(frame, event, arg):
            if frame.f_code.co_filename.startswith(_SOURCE):
                return local
            return None

        self._previous = sys.gettrace()
        sys.settrace(calls)
        return lines

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def fuzz(
    inputs: int,
    configurations=CONFIGURATIONS,
    on_new: Callable[[bytes], None] = lambda datagram: None,
) -> Iterator[Find]:
    """Replay the corpus, then feed *inputs* mutants per configuration;
    yield every input that broke an invariant. *on_new* sees each mutant
    that reached a new line."""
    seeds = load_corpus()
    for secured, capacity in configurations:
        configuration = (secured, capacity)
        rng = random.Random(f"{SEED}/{secured}/{capacity}")
        sim, socket = _server(secured, capacity)
        seen: Set[Tuple[object, int]] = set()
        corpus = list(seeds)
        tracer = _LineTracer()
        for datagram in seeds:
            with tracer as lines:
                failure = feed(sim, socket, datagram)
            seen |= lines
            if failure is not None:
                yield Find(configuration, datagram, failure)
        for _ in range(inputs):
            datagram = mutate(rng.choice(corpus), rng, corpus)
            with tracer as lines:
                failure = feed(sim, socket, datagram)
            if failure is not None:
                yield Find(configuration, datagram, failure)
            elif not lines <= seen:
                seen |= lines
                corpus.append(datagram)
                on_new(datagram)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=int, default=20000,
                        help="mutants per configuration (default 20000)")
    args = parser.parse_args(argv)
    finds = 0

    def new(datagram: bytes) -> None:
        print(f"{datagram.hex()} new-line")

    for find in fuzz(args.inputs, on_new=new):
        finds += 1
        secured, capacity = find.configuration
        print(f"# FIND oscore={secured} cache={capacity} "
              f"{find.datagram.hex()}\n#   {find.failure}", file=sys.stderr)
    return 1 if finds else 0


if __name__ == "__main__":
    sys.exit(main())
