"""The golden codec vectors: byte-identical wire formats, per vector.

``golden_codec_vectors.json`` is the only copy of the reference bytes;
``golden_codec.BUILDERS`` rebuilds each message from its parts. A codec
fast path that changes one output byte fails here under the vector's
name.
"""

import json
import os

import pytest

from golden_codec import BUILDERS
from repro.coap.message import CoapMessage
from repro.dns.message import Message

with open(
    os.path.join(os.path.dirname(__file__), "golden_codec_vectors.json"),
    encoding="utf-8",
) as _handle:
    BANKED = {vector["name"]: vector for vector in json.load(_handle)["vectors"]}

_DECODERS = {"coap": CoapMessage.decode, "dns": Message.decode}

# Over the union, so a builder without banked bytes fails by name just
# as banked bytes without a builder do.
per_vector = pytest.mark.parametrize("name", sorted(set(BANKED) | set(BUILDERS)))


class TestGoldenVectors:
    def test_vectors_cover_both_codecs(self):
        codecs = {vector["codec"] for vector in BANKED.values()}
        assert codecs == {"coap", "dns"}

    @per_vector
    def test_encode_matches_golden_bytes(self, name):
        assert BUILDERS[name]().encode().hex() == BANKED[name]["wire_hex"]

    @per_vector
    def test_decode_encode_round_trips(self, name):
        wire = bytes.fromhex(BANKED[name]["wire_hex"])
        assert _DECODERS[BANKED[name]["codec"]](wire).encode() == wire
